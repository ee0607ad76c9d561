"""Open-loop scale harness: determinism, queueing, bounded memory."""

import re
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.bench import _scale_once, check_regression
from repro.experiments.scale import (
    MAX_SERVICE_NS,
    MIN_SERVICE_NS,
    QUICK_KWARGS,
    MultiTenantConfig,
    ScaleConfig,
    _draw_services,
    _draw_tenant_services,
    run_scale,
    run_scale_referee,
    run_tenant_scale,
)
from repro.sim.clock import us
from repro.workloads.tenants import standard_mix

#: Pool never saturates (slots >= invocations).
UNSATURATED = {"invocations": 1_500, "workers": 2_048, "mean_arrival_gap_ns": us(25)}
#: Pool saturates: the FIFO backlog fills and drains.
SATURATED = {"invocations": 3_000, "workers": 256, "mean_arrival_gap_ns": us(25)}


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


def test_per_event_engine_matches_default_engine():
    """The per-event driver re-schedules one BatchEvent from arrival to
    arrival at ``_ARRIVAL_PRIO`` and keeps every lease timer a
    BatchEvent; the default engine walks no event calendar at all.
    Both must agree."""
    result = run_scale_referee(**QUICK_KWARGS)
    batch = run_scale(**QUICK_KWARGS)
    assert batch.fingerprint() == result.fingerprint()


def test_table_renders(quick_run):
    text = quick_run.table().render()
    assert "invocations" in text
    assert "events/sec" in text


def test_rejects_empty_run():
    with pytest.raises(ValueError):
        run_scale(invocations=0, workers=4)
    with pytest.raises(ValueError):
        run_scale(invocations=4, workers=0)


_POOL_MESSAGES = [
    ({"pool_policy": "tepid"}, "pool_policy must be 'queue', 'cold' or 'hybrid', got 'tepid'"),
    ({"start_model": "podman"}, "start_model must be one of ["),
    ({"hybrid_threshold": 0}, "hybrid_threshold must be >= 1, got 0"),
]


@pytest.mark.parametrize(
    "config, bad, message",
    [
        *[(ScaleConfig, bad, message) for bad, message in _POOL_MESSAGES],
        (ScaleConfig, {"keepalive_ns": -1}, "keepalive_ns must be >= 0, got -1"),
        (ScaleConfig, {"invocations": 0}, "scale run needs at least one invocation, got 0"),
        (ScaleConfig, {"workers": 0}, "scale run needs at least one warm slot, got 0"),
        *[(MultiTenantConfig, bad, message) for bad, message in _POOL_MESSAGES],
        (
            MultiTenantConfig,
            {"partitioning": "communal"},
            "partitioning must be one of ('pinned', 'shared', 'overflow'), got 'communal'",
        ),
        (MultiTenantConfig, {"specs": []}, "multi-tenant run needs at least one tenant spec"),
    ],
)
def test_bad_knob_fails_when_its_config_is_built(config, bad, message):
    """Each knob is declared and checked once, in its config."""
    base = {"specs": standard_mix()} if config is MultiTenantConfig else {}
    with pytest.raises(ValueError, match=re.escape(message)):
        config(**{**base, **bad})


def test_retired_engine_selectors_are_unknown_arguments():
    for knob in ("admission", "subbits", "min_service_ns", "max_service_ns"):
        with pytest.raises(TypeError, match=knob):
            ScaleConfig(**{knob: 8})
        with pytest.raises(TypeError, match=knob):
            run_scale(**{knob: 8}, **UNSATURATED)
    for knob in ("admission", "subbits"):
        with pytest.raises(TypeError, match=knob):
            MultiTenantConfig(specs=standard_mix(), **{knob: 8})


@pytest.mark.parametrize("shape", ["bursty", "diurnal"])
def test_arrival_shapes_complete_and_reproduce(shape):
    a = run_scale(arrival_shape=shape, **UNSATURATED)
    b = run_scale(arrival_shape=shape, **UNSATURATED)
    assert a.completed == UNSATURATED["invocations"]
    assert a.fingerprint() == b.fingerprint()
    assert f"{shape} arrivals" in a.table().render()


def test_bursty_shape_saturates_harder_than_poisson():
    poisson = run_scale(**SATURATED)
    bursty = run_scale(arrival_shape="bursty", burst_len=256, **SATURATED)
    assert bursty.max_backlog >= poisson.max_backlog


@pytest.mark.parametrize(
    "bad",
    [{"arrival_shape": "nope"}, {"arrival_shape": "bursty", "burst_len": 0}],
    ids=["unknown-shape", "empty-burst"],
)
def test_bad_arrival_knobs_fail_as_value_error(bad):
    with pytest.raises(ValueError):
        run_scale(**bad, **UNSATURATED)


def test_retired_shard_knobs_are_unknown_arguments():
    # One scenario runs on one pool in one process: no shard split.
    with pytest.raises(TypeError, match="shards"):
        run_scale(shards=2, **UNSATURATED)
    with pytest.raises(TypeError, match="shards"):
        run_tenant_scale(specs=standard_mix(invocations=100), shards=2)


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
    want = np.clip(draws.astype(np.int64), MIN_SERVICE_NS, MAX_SERVICE_NS)
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
