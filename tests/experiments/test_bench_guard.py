"""Bench additions: cold/warm cache batch and the perf-regression guard."""

import json

from repro.experiments.bench import bench_cache_batch, check_regression


def test_cache_batch_cold_warm_bit_identical():
    record = bench_cache_batch(experiments=("table1", "billing"))
    assert record["bit_identical"]
    assert record["misses"] == 2  # cold pass ran everything
    assert record["hits"] == 2  # warm pass ran nothing
    assert record["warm_s"] < record["cold_s"]
    assert record["speedup"] > 1.0


def test_cache_batch_uses_given_dir_and_keeps_it(tmp_path):
    root = tmp_path / "bench-cache"
    bench_cache_batch(cache_dir=str(root), experiments=("table1",))
    assert (root / "index.json").exists()  # caller-owned dirs survive


def _baseline_doc(tmp_path, rate):
    path = tmp_path / "BENCH.json"
    path.write_text(
        json.dumps(
            {
                "schema": "rfaas-repro-bench-v1",
                "entries": {"base": {"kernel_event_throughput": {"events_per_sec": rate}}},
            }
        )
    )
    return str(path)


def _results(rate):
    return {"kernel_event_throughput": {"events_per_sec": rate}}


def test_check_regression_passes_within_budget(tmp_path):
    baseline = _baseline_doc(tmp_path, 1_000_000)
    assert check_regression(_results(900_000), baseline, "base") == []
    assert check_regression(_results(701_000), baseline, "base") == []
    # Faster than baseline is trivially fine.
    assert check_regression(_results(2_000_000), baseline, "base") == []


def test_check_regression_fails_beyond_budget(tmp_path):
    baseline = _baseline_doc(tmp_path, 1_000_000)
    problems = check_regression(_results(500_000), baseline, "base")
    assert len(problems) == 1 and "below baseline" in problems[0]
    # Tighter budget flips a previously passing rate.
    assert check_regression(_results(900_000), baseline, "base", max_regression=0.05)


def test_check_regression_reports_missing_baseline(tmp_path):
    assert check_regression(_results(1), str(tmp_path / "nope.json"), "base")
    baseline = _baseline_doc(tmp_path, 1_000_000)
    assert check_regression(_results(1_000_000), baseline, "absent-label")


def test_check_regression_defaults_to_last_label(tmp_path):
    baseline = _baseline_doc(tmp_path, 1_000_000)
    assert check_regression(_results(999_999), baseline, None) == []
