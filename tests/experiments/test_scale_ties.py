"""Tie order: events that share a nanosecond fire in the referee's order.

Random nanosecond-resolution streams almost never put two events on
the same instant, so the identity tests elsewhere say nothing about
tie rules.  The cases here build ties on purpose: a hand-built stream
where a completion lands exactly on an arrival, fed to every engine
through a monkeypatched ``_scale_chunks``, and grid cases that floor
the generated streams onto a coarse grid and compare the default
engine with the per-event heap referee: the reduced-event walk, or for
``queue`` tenants on a pinned or shared plan the FIFO recurrence.

The rule: at a shared nanosecond every completion, spin-up and
reclaim fires before the arrival (``_ARRIVAL_PRIO``), whatever the
order their event ids were drawn in; among themselves they fire in
event-id order.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import scale
from repro.experiments.scale import (
    run_scale,
    run_scale_referee,
    run_tenant_scale,
    run_tenant_scale_referee,
)
from repro.sim.clock import ms, us
from repro.workloads.tenants import standard_mix


def _feed(monkeypatch, times, services):
    """Replace the generated stream with *times*/*services* (one chunk)."""

    def chunks(config, lists=True):
        t = np.asarray(times, dtype=np.int64)
        s = np.asarray(services, dtype=np.int64)
        yield (t.tolist(), s.tolist()) if lists else (t, s)

    monkeypatch.setattr(scale, "_scale_chunks", chunks)


#: One slot, 1 ms services, arrivals at 0 / 1.0 / 1.5 ms: the first
#: lease ends exactly on the second arrival.
_HAND_BUILT = ([0, ms(1), ms(1) + ms(1) // 2], [ms(1)] * 3)

#: The per-event referee, then the default engine.
_ENTRIES = [run_scale_referee, run_scale]


@pytest.mark.parametrize("policy", ["queue", "cold", "hybrid"])
def test_completion_at_an_arrival_instant_fires_first(monkeypatch, policy):
    _feed(monkeypatch, *_HAND_BUILT)
    fps = [
        run(
            invocations=3, workers=1, pool_policy=policy, hybrid_threshold=1,
            start_model="remote-fork",
        ).fingerprint()
        for run in _ENTRIES
    ]
    assert all(fp == fps[0] for fp in fps[1:])
    fp = fps[0]
    if policy == "queue":
        # The freed slot serves the arrival at 1.0 ms; only the one at
        # 1.5 ms waits.
        assert (fp["queued"], fp["final_now_ns"]) == (1, ms(3))
    elif policy == "cold":
        # Only the arrival at 1.5 ms finds the pool dry: 1 ms spawn.
        assert (fp["cold_starts"], fp["final_now_ns"]) == (1, ms(3) + ms(1) // 2)
    else:
        # Threshold 1: the dry arrival at 1.5 ms queues behind the
        # lease that started at 1.0 ms.
        assert (fp["queued"], fp["cold_starts"], fp["final_now_ns"]) == (1, 0, ms(3))


# -- grid ties: the walk against the per-event referee -----------------


@pytest.fixture
def on_grid(monkeypatch):
    """Floor every arrival and service onto a *step*-ns grid.

    A test-only wrapper around the stream generators (no engine knob):
    with spawn, keepalive and interval multiples of the step too, most
    events share their instant with others -- completion vs arrival,
    reclaim vs completion, ready vs reclaim, pinned vs shared.  Tenant
    streams are floored before they merge, so the merged calendar keeps
    the merge's tie order (equal times in ascending tenant id).
    """

    def install(step: int) -> None:
        scale_chunks = scale._scale_chunks
        merge, draw = scale.merge_tenant_streams, scale._draw_tenant_services

        def snap(times):
            return np.asarray(times, dtype=np.int64) // step * step

        def snap_services(services):
            return np.maximum(np.asarray(services, dtype=np.int64) // step, 1) * step

        def chunks(config, lists=True):
            for times, services in scale_chunks(config, lists=False):
                t, s = snap(times), snap_services(services)
                yield (t.tolist(), s.tolist()) if lists else (t, s)

        def merged(streams, chunk):
            return merge([map(snap, stream) for stream in streams], chunk=chunk)

        def services(rng, size, spec):
            return snap_services(draw(rng, size, spec))

        monkeypatch.setattr(scale, "_scale_chunks", chunks)
        monkeypatch.setattr(scale, "merge_tenant_streams", merged)
        monkeypatch.setattr(scale, "_draw_tenant_services", services)

    return install


def _default_vs_referee(run, run_referee, **kwargs):
    """Results of the default engine and the heap referee, fingerprints equal."""
    default = run(**kwargs)
    referee = run_referee(**kwargs)
    assert default.fingerprint() == referee.fingerprint()
    return default, referee


#: remote-fork spawns in 1 ms; the intervals sit below, at and above it.
_INTERVALS = [us(500), ms(1), ms(2)]


@pytest.mark.parametrize("step", [us(1), us(250)], ids=["1us", "250us"])
@pytest.mark.parametrize("interval", _INTERVALS, ids=["lt-spawn", "eq-spawn", "gt-spawn"])
@pytest.mark.parametrize("keepalive", ["off", "le-interval", "gt-interval"])
@pytest.mark.parametrize("policy", ["cold", "hybrid"])
def test_grid_ties_single_stream(on_grid, policy, keepalive, interval, step):
    # At the 250 us step with interval 500 us, keepalive 250 us, 5 us
    # gaps and 128 slots this is the adversarial config: a renewal
    # re-arm, a ready and a reclaim routinely share their draw instant.
    on_grid(step)
    keepalive_ns = {"off": 0, "le-interval": interval // 2, "gt-interval": 3 * interval}
    fp = _default_vs_referee(
        run_scale,
        run_scale_referee,
        invocations=2_000, workers=128, mean_arrival_gap_ns=us(5),
        service_log_mean=14.7, service_log_sigma=0.5,
        lease_check_interval_ns=interval, pool_policy=policy, hybrid_threshold=4,
        start_model="remote-fork", keepalive_ns=keepalive_ns[keepalive],
    )[0].fingerprint()
    assert fp["cold_starts"] > 0
    if keepalive != "off":
        assert fp["cold_reclaimed"] > 0 and fp["cold_retained"] > 0


@pytest.mark.parametrize("step", [us(1), ms(1)], ids=["1us", "1ms"])
@pytest.mark.parametrize("queue_cap", [None, 8], ids=["uncapped", "capped"])
@pytest.mark.parametrize("pool_policy", ["queue", "cold", "hybrid"])
@pytest.mark.parametrize("partitioning", ["pinned", "shared", "overflow"])
def test_grid_ties_tenants(on_grid, partitioning, pool_policy, queue_cap, step):
    on_grid(step)
    specs = standard_mix(invocations=1_500, rate_scale=400.0, compute_scale=40.0)
    if queue_cap is not None:
        specs = [replace(spec, queue_cap=queue_cap) for spec in specs]
    default, referee = _default_vs_referee(
        run_tenant_scale,
        run_tenant_scale_referee,
        specs=specs, workers=24, partitioning=partitioning, pool_policy=pool_policy,
        hybrid_threshold=4, lease_check_interval_ns=ms(4), seed=13,
    )
    # Not in the fingerprint, but perfbench's backlog gauge reads it.
    assert [t.max_backlog for t in default.tenants.values()] == [
        t.max_backlog for t in referee.tenants.values()
    ]
    fp = default.fingerprint()
    assert fp["completed"] + fp["congested"] == 1_500
    assert (fp["cold_starts"] > 0) == (pool_policy != "queue")
