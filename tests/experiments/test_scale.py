"""Open-loop scale harness: determinism, queueing, bounded memory."""

import pytest

from repro.experiments.bench import check_regression
from repro.experiments.scale import QUICK_KWARGS, run_scale


@pytest.fixture(scope="module")
def quick_runs():
    """One CI-sized run per scheduler (shared: the runs are the cost)."""
    return {
        scheduler: run_scale(scheduler=scheduler, **QUICK_KWARGS)
        for scheduler in ("heap", "wheel")
    }


def test_fingerprints_identical_across_schedulers(quick_runs):
    """The tentpole invariant: same simulated outputs, bit for bit."""
    assert quick_runs["heap"].fingerprint() == quick_runs["wheel"].fingerprint()


def test_all_invocations_complete(quick_runs):
    for result in quick_runs.values():
        assert result.completed == result.invocations == QUICK_KWARGS["invocations"]
        assert result.final_now_ns > 0
        assert result.events_per_sec > 0


def test_quick_config_exercises_backlog(quick_runs):
    """The CI sizing must saturate the pool so the FIFO path is covered."""
    result = quick_runs["heap"]
    assert result.queued > 0
    assert result.max_backlog > 0
    assert result.queued <= result.invocations


def test_streaming_memory_is_bounded(quick_runs):
    for result in quick_runs.values():
        # Latencies span ~10 octaves; buckets must be nowhere near n.
        assert result.stream_buckets < 5_000
        assert result.latency.count == result.invocations
        assert 0 < result.latency.median <= result.latency.p95 <= result.latency.p99
        assert result.peak_rss_bytes > 0


def test_events_dominated_by_lease_renewals(quick_runs):
    """Every invocation costs one arrival, >=1 lease event; long services
    re-arm periodically, so events exceed 2x invocations."""
    result = quick_runs["heap"]
    assert result.events_processed > 2 * result.invocations


def test_per_event_engine_exercises_timeout_pool():
    """The per-event driver allocates no Timeouts: one BatchEvent is
    re-scheduled from arrival to arrival at ``_ARRIVAL_PRIO`` and every
    lease timer is a BatchEvent, so the timeout pool is never touched.
    The default engine walks no scheduler at all.  Both must agree."""
    result = run_scale(scheduler="heap", admission="per-event", **QUICK_KWARGS)
    assert result.timeout_pool_hits == 0
    batch = run_scale(scheduler="heap", admission="batch", **QUICK_KWARGS)
    assert batch.timeout_pool_hits == 0
    assert batch.fingerprint() == result.fingerprint()


def test_table_renders(quick_runs):
    text = quick_runs["wheel"].table().render()
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
