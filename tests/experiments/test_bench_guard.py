"""Bench additions: the parallel batch and the perf-regression guard."""

import json

import pytest

from repro.experiments import bench
from repro.experiments.bench import check_regression


def test_parallel_batch_records_no_process_peak_rss(monkeypatch):
    """The serial pass runs in the bench process, so the record
    carries timings only."""
    monkeypatch.setattr(bench, "BATCH_EXPERIMENTS", ("table1",))
    record = bench.bench_parallel_batch(2)
    assert record["experiments"] == ["table1"]
    assert record["serial_s"] > 0 and record["parallel_s"] > 0
    assert "peak_rss_bytes" not in record


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


def test_check_regression_fails_beyond_budget(tmp_path, monkeypatch):
    baseline = _baseline_doc(tmp_path, 1_000_000)
    problems = check_regression(_results(500_000), baseline, "base")
    assert len(problems) == 1 and "below baseline" in problems[0]
    assert check_regression(_results(699_000), baseline, "base")
    # The bound is the module constant: a tighter one flips a
    # previously passing rate.
    monkeypatch.setattr(bench, "MAX_REGRESSION", 0.05)
    assert check_regression(_results(900_000), baseline, "base")


def test_check_regression_reports_missing_baseline(tmp_path):
    assert check_regression(_results(1), str(tmp_path / "nope.json"), "base")
    baseline = _baseline_doc(tmp_path, 1_000_000)
    assert check_regression(_results(1_000_000), baseline, "absent-label")


def test_check_regression_defaults_to_last_label(tmp_path):
    baseline = _baseline_doc(tmp_path, 1_000_000)
    assert check_regression(_results(999_999), baseline, None) == []


# -- the verdict rule and the baseline table ----------------------------


_KERNEL = {"kernel_event_throughput": {"events_per_sec": 1_000_000}}


def _entry_doc(tmp_path, **records):
    path = tmp_path / "BENCH-base.json"
    entry = {**_KERNEL, **records}
    path.write_text(json.dumps({"schema": "rfaas-repro-bench-v1", "entries": {"base": entry}}))
    return str(path)


def _with_verdict(record, verdict, value):
    """Results whose dotted *record* path holds *verdict* = *value*."""
    results = json.loads(json.dumps(_KERNEL))
    node = results
    for part in record.split("."):
        node = node.setdefault(part, {})
    node[verdict] = value
    return results


@pytest.mark.parametrize(
    "record",
    [
        "scale_openloop",
        "scale_10m",
        "control_plane",
        "coldstart",
        "coldstart.reclaim",
        "coldstart_10m",
        "multitenant",
    ],
)
def test_false_bit_identical_fails_and_names_its_record(tmp_path, record):
    baseline = _entry_doc(tmp_path)
    assert check_regression(_with_verdict(record, "bit_identical", True), baseline, "base") == []
    problems = check_regression(_with_verdict(record, "bit_identical", False), baseline, "base")
    assert len(problems) == 1
    assert problems[0].startswith(f"{record}.bit_identical is false")
    assert "diverged" in problems[0]


@pytest.mark.parametrize("record", ["scale_10m", "coldstart_10m"])
def test_rss_guard_breach_fails(tmp_path, record):
    baseline = _entry_doc(tmp_path)
    assert check_regression(_with_verdict(record, "within_rss_guard", True), baseline, "base") == []
    problems = check_regression(_with_verdict(record, "within_rss_guard", False), baseline, "base")
    assert len(problems) == 1 and problems[0].startswith(f"{record}.within_rss_guard is false")


def test_isolation_collapse_fails(tmp_path):
    baseline = _entry_doc(tmp_path)
    results = _with_verdict("multitenant.isolation", "isolated", False)
    problems = check_regression(results, baseline, "base")
    assert len(problems) == 1
    assert problems[0].startswith("multitenant.isolation.isolated is false")
    assert "insulates" in problems[0]


def test_false_verdict_inside_a_list_is_named_by_index(tmp_path):
    results = {**_KERNEL, "coldstart": {"spectrum": [{"bit_identical": True}, {"bit_identical": False}]}}
    problems = check_regression(results, _entry_doc(tmp_path), "base")
    assert len(problems) == 1 and problems[0].startswith("coldstart.spectrum[1].bit_identical")


@pytest.mark.parametrize(
    "record, figure",
    [("control_plane", "grants_per_sec"), ("multitenant", "events_per_sec")],
)
def test_throughput_drop_fails(tmp_path, record, figure):
    baseline = _entry_doc(tmp_path, **{record: {figure: 100_000}})
    ok = {**_KERNEL, record: {figure: 71_000}}
    assert check_regression(ok, baseline, "base") == []
    bad = {**_KERNEL, record: {figure: 69_000}}
    problems = check_regression(bad, baseline, "base")
    assert len(problems) == 1
    assert problems[0].startswith(f"{record}.{figure} 69,000 is 31.0% below baseline 'base'")
    # A baseline recorded before the bench existed skips the guard.
    assert check_regression(bad, _entry_doc(tmp_path), "base") == []


def test_tenant_miss_rate_blowup_fails(tmp_path):
    baseline = _entry_doc(
        tmp_path, multitenant={"miss_rates": {"hot": 0.01, "batch": 0.02, "gone": 0.05}}
    )
    ok = {**_KERNEL, "multitenant": {"miss_rates": {"hot": 0.039, "batch": 0.02}}}
    assert check_regression(ok, baseline, "base") == []
    bad = {**_KERNEL, "multitenant": {"miss_rates": {"hot": 0.041, "batch": 0.02}}}
    problems = check_regression(bad, baseline, "base")
    assert len(problems) == 1
    assert problems[0].startswith("multitenant.miss_rates['hot'] 0.0410 is more than 4x")


def test_missing_kernel_throughput_is_a_problem(tmp_path):
    problems = check_regression({"scale_openloop": {}}, _entry_doc(tmp_path), "base")
    assert problems == ["baseline/current entries missing kernel_event_throughput.events_per_sec"]
