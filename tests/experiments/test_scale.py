"""Open-loop scale harness: determinism, queueing, bounded memory."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.bench import _scale_once, check_regression
from repro.experiments.scale import (
    QUICK_KWARGS,
    ScaleConfig,
    _draw_services,
    _draw_tenant_services,
    run_scale,
)
from repro.workloads.tenants import standard_mix


@pytest.fixture(scope="module")
def quick_run():
    """One CI-sized default-engine run (shared: the run is the cost)."""
    return run_scale(**QUICK_KWARGS)


def test_all_invocations_complete(quick_run):
    result = quick_run
    assert result.completed == result.invocations == QUICK_KWARGS["invocations"]
    assert result.final_now_ns > 0
    assert result.events_per_sec > 0


def test_quick_config_exercises_backlog(quick_run):
    """The CI sizing must saturate the pool so the FIFO path is covered."""
    result = quick_run
    assert result.queued > 0
    assert result.max_backlog > 0
    assert result.queued <= result.invocations


def test_streaming_memory_is_bounded(quick_run):
    result = quick_run
    # Latencies span ~10 octaves; buckets must be nowhere near n.
    assert result.stream_buckets < 5_000
    assert result.latency.count == result.invocations
    assert 0 < result.latency.median <= result.latency.p95 <= result.latency.p99
    assert result.peak_rss_bytes > 0


def test_events_dominated_by_lease_renewals(quick_run):
    """Every invocation costs one arrival, >=1 lease event; long services
    re-arm periodically, so events exceed 2x invocations."""
    result = quick_run
    assert result.events_processed > 2 * result.invocations


def test_per_event_engine_exercises_timeout_pool():
    """The per-event driver allocates no Timeouts: one BatchEvent is
    re-scheduled from arrival to arrival at ``_ARRIVAL_PRIO`` and every
    lease timer is a BatchEvent, so the timeout pool is never touched.
    The default engine walks no event calendar at all.  Both must agree."""
    result = run_scale(admission="per-event", **QUICK_KWARGS)
    assert result.timeout_pool_hits == 0
    batch = run_scale(admission="batch", **QUICK_KWARGS)
    assert batch.timeout_pool_hits == 0
    assert batch.fingerprint() == result.fingerprint()


def test_table_renders(quick_run):
    text = quick_run.table().render()
    assert "invocations" in text
    assert "events/sec" in text


def test_rejects_empty_run():
    with pytest.raises(ValueError):
        run_scale(invocations=0, workers=4)


def test_rss_regression_guard(tmp_path):
    """check_regression flags >20% RSS growth on the scale entry and
    tolerates baselines recorded before RSS tracking existed."""
    baseline = {
        "kernel_event_throughput": {"events_per_sec": 1_000_000},
        "scale_openloop": {"peak_rss_bytes": 100 * 2**20},
    }
    path = tmp_path / "bench.json"
    path.write_text(
        '{"schema": "rfaas-repro-bench-v1", "entries": {"base": '
        + __import__("json").dumps(baseline)
        + "}}"
    )
    current_ok = {
        "kernel_event_throughput": {"events_per_sec": 1_000_000},
        "scale_openloop": {"peak_rss_bytes": int(110 * 2**20)},
    }
    assert check_regression(current_ok, str(path), "base") == []
    current_bad = {
        "kernel_event_throughput": {"events_per_sec": 1_000_000},
        "scale_openloop": {"peak_rss_bytes": int(130 * 2**20)},
    }
    problems = check_regression(current_bad, str(path), "base")
    assert len(problems) == 1
    assert "peak_rss_bytes" in problems[0]
    # Baseline without the scale entry: throughput still guarded, no
    # spurious RSS failure.
    path.write_text(
        '{"schema": "rfaas-repro-bench-v1", "entries": {"base": '
        '{"kernel_event_throughput": {"events_per_sec": 1000000}}}}'
    )
    assert check_regression(current_bad, str(path), "base") == []


@pytest.mark.parametrize("size", [1, 7, 65_536])
def test_service_draws_match_the_recipe(size):
    """Clipping and flooring in place keep the recipes' arrays."""
    # Wide enough that both clip bounds and the tenant floor bind.
    config = ScaleConfig(service_log_mean=14.0, service_log_sigma=3.0)
    draws = np.random.default_rng(9).lognormal(14.0, 3.0, size=size)
    want = np.clip(draws.astype(np.int64), config.min_service_ns, config.max_service_ns)
    got = _draw_services(np.random.default_rng(9), size, config)
    assert got.dtype == np.int64 and np.array_equal(got, want)

    spec = replace(standard_mix()[0], compute_ns=2, service_log_sigma=2.0)
    draws = np.random.default_rng(9).lognormal(np.log(2), 2.0, size=size)
    want = np.maximum(draws.astype(np.int64), 1)
    got = _draw_tenant_services(np.random.default_rng(9), size, spec)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_bench_run_records_host_cost():
    """Every bench scale record carries its minor faults and system time."""
    record = _scale_once(quick=True)
    assert record["minor_faults"] >= 0 and record["sys_s"] >= 0.0
    assert record["fingerprint"] == run_scale(**QUICK_KWARGS).fingerprint()
