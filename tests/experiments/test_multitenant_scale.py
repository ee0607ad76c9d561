"""Multi-tenant scale engine: bit-identity, accounting, and pool plans.

The contract under test mirrors the single-stream scale engine's: the
default engines -- the tenant FIFO recurrence for ``queue`` runs on a
pinned or shared plan, the tenant reduced-event walk otherwise -- and
the per-event referee FSM must agree on every simulated-domain output,
here *per tenant*: outcome counts (SUCCESS / CONGESTION /
DEADLINE_MISSED), exact sojourn totals, histogram-derived tails and
peak backlog.
"""

from dataclasses import replace

import pytest

from repro import perf
from repro.experiments import scale
from repro.experiments.scale import (
    MultiTenantConfig,
    _TenantWalk,
    _tenant_pool_plan,
    run_tenant_scale,
    run_tenant_scale_referee,
)
from repro.workloads.tenants import TenantSpec, standard_mix

#: A saturated mix: pool far smaller than the in-flight demand, so
#: queueing, deadline misses, and (with a queue cap) congestion all
#: actually occur and the engines must agree on each of them.
SATURATED = dict(workers=48, seed=13)


def _outputs(result):
    """The fingerprint plus per-tenant ``max_backlog``, which it omits."""
    backlogs = {name: t.max_backlog for name, t in result.tenants.items()}
    return result.fingerprint(), backlogs


def _specs(**overrides):
    specs = standard_mix(invocations=4_000, rate_scale=400.0, compute_scale=40.0)
    return [replace(spec, **overrides) for spec in specs] if overrides else specs


@pytest.mark.parametrize("partitioning", ["pinned", "shared", "overflow"])
def test_engines_bit_identical_across_partitionings(partitioning):
    outputs = [
        _outputs(run(specs=_specs(), partitioning=partitioning, **SATURATED))
        for run in (run_tenant_scale_referee, run_tenant_scale)
    ]
    assert all(out == outputs[0] for out in outputs[1:])
    fingerprints = [fp for fp, _ in outputs]
    assert fingerprints[0]["completed"] == 4_000
    # Saturation produced real per-tenant queueing/misses to agree on.
    assert fingerprints[0]["missed"] > 0
    assert all(t["dispatched"] > 0 for t in fingerprints[0]["tenants"].values())


@pytest.mark.parametrize("pool_policy", ["queue", "cold", "hybrid"])
def test_engines_bit_identical_across_pool_policies(pool_policy):
    specs = _specs(queue_cap=32)
    results = [
        run(
            specs=specs,
            partitioning="overflow",
            pool_policy=pool_policy,
            hybrid_threshold=8,
            **SATURATED,
        )
        for run in (run_tenant_scale_referee, run_tenant_scale)
    ]
    assert all(_outputs(r) == _outputs(results[0]) for r in results[1:])
    base = results[0].fingerprint()
    if pool_policy == "queue":
        assert base["congested"] > 0 and base["cold_starts"] == 0
    else:
        assert base["cold_starts"] > 0
    # Accounting closes: every arrival either completed or was rejected.
    assert base["completed"] + base["congested"] == 4_000


@pytest.mark.parametrize("queue_cap", [None, 3_000], ids=["uncapped", "capped"])
@pytest.mark.parametrize("partitioning", ["pinned", "shared"])
def test_engines_bit_identical_across_merge_chunks(monkeypatch, partitioning, queue_cap):
    """The tests above fit one 65,536-arrival merge chunk.  With ~1,000
    the barrier merge splits every tenant's stream over several chunks,
    each served from its own tenant grouping, and thousands of waiters
    (and, capped, the cap checks) carry from one chunk to the next."""
    monkeypatch.setattr(scale, "_RNG_CHUNK", 1_000)
    specs = standard_mix(invocations=12_000, rate_scale=400.0, compute_scale=40.0)
    if queue_cap is not None:
        specs = [replace(spec, queue_cap=queue_cap) for spec in specs]
    config = MultiTenantConfig(specs=tuple(specs), partitioning=partitioning, **SATURATED)
    assert sum(1 for _ in scale._tenant_chunks(config, lists=False)) > 5
    outputs = [
        _outputs(run(specs=specs, partitioning=partitioning, **SATURATED))
        for run in (run_tenant_scale_referee, run_tenant_scale)
    ]
    assert outputs[0] == outputs[1]
    fingerprint, backlogs = outputs[0]
    assert fingerprint["completed"] + fingerprint["congested"] == 12_000
    assert (fingerprint["congested"] > 0) == (queue_cap is not None)
    assert max(backlogs.values()) > 2_000


@pytest.mark.parametrize("partitioning", ["pinned", "shared"])
def test_queue_runs_on_pinned_and_shared_plans_skip_the_walk(monkeypatch, partitioning):
    def walk(self):
        raise AssertionError("the FIFO recurrence should have run")

    monkeypatch.setattr(_TenantWalk, "drive", walk)
    result = run_tenant_scale(specs=_specs(), partitioning=partitioning, **SATURATED)
    assert result.completed == 4_000 and result.queued > 0


def test_benchmark_cell_matches_the_referee():
    """The perfbench ``tenant_mix`` cell's shape -- 1,536 shared slots,
    the bursty tenant's rate boosted 6x, 20k invocations, about half of
    them queued -- is where the shared FIFO serves arrivals in blocks.
    The recurrence must match the per-event heap referee there too."""
    specs = [
        replace(spec, rate_per_s=spec.rate_per_s * 6.0) if spec.name == "bursty-service" else spec
        for spec in standard_mix(invocations=20_000, rate_scale=400.0, compute_scale=40.0)
    ]
    kwargs = dict(specs=specs, workers=1_536, partitioning="shared", seed=11)
    before = perf.snapshot()
    perf.enable()
    try:
        fifo = run_tenant_scale(**kwargs)
    finally:
        perf.disable()
    moved = perf.delta(before, perf.snapshot())
    referee = run_tenant_scale_referee(**kwargs)
    assert _outputs(fifo) == _outputs(referee)
    assert fifo.completed == 20_000 and fifo.queued > 5_000
    assert moved["fifo_block_arrivals"] + moved["fifo_step_arrivals"] == 20_000
    assert moved["fifo_block_arrivals"] > 15_000


def test_per_tenant_outcome_conservation_and_stats():
    result = run_tenant_scale(specs=_specs(queue_cap=64), partitioning="pinned", **SATURATED)
    total_arrived = 0
    for stats in result.tenants.values():
        assert stats.arrived == stats.dispatched + stats.congested
        assert stats.succeeded + stats.missed == stats.dispatched
        assert 0.0 <= stats.miss_rate <= 1.0
        assert 0.0 <= stats.congestion_rate <= 1.0
        assert stats.latency.mean == stats.sojourn_total / stats.dispatched
        total_arrived += stats.arrived
    assert total_arrived == result.invocations
    assert result.events_processed > 0
    assert "(all)" in result.table().render()


def test_all_tenant_summary_merges_the_tenant_parts():
    """Each sojourn is histogrammed once, under its tenant: the
    all-tenant summary is the exact merge of the tenants' parts."""
    result = run_tenant_scale(specs=_specs(), partitioning="overflow", **SATURATED)
    parts = [t for t in result.tenants.values() if t.latency is not None]
    dispatched = sum(t.dispatched for t in parts)
    assert result.latency.count == dispatched == result.completed
    assert result.latency.mean == sum(t.sojourn_total for t in parts) / dispatched
    assert result.latency.minimum == min(t.latency.minimum for t in parts)
    assert result.latency.maximum == max(t.latency.maximum for t in parts)
    low = min(t.latency.median for t in parts)
    high = max(t.latency.median for t in parts)
    assert low <= result.latency.median <= high


def test_pool_plan_partitions_and_validation():
    specs = tuple(standard_mix())
    pinned, shared = _tenant_pool_plan(specs, 1_000, "pinned")
    assert sum(pinned) == 1_000 and shared == 0
    pinned, shared = _tenant_pool_plan(specs, 1_000, "shared")
    assert pinned == [0, 0, 0] and shared == 1_000
    pinned, shared = _tenant_pool_plan(specs, 1_001, "overflow")
    assert sum(pinned) + shared == 1_001 and shared >= 501
    with pytest.raises(ValueError):
        _tenant_pool_plan(specs, 2, "pinned")  # thinner than one slot each
    # An unknown plan never reaches the planner: its config refuses it.
    with pytest.raises(ValueError):
        MultiTenantConfig(specs=specs, workers=1_000, partitioning="bogus")


def test_negative_queue_cap_is_rejected_at_the_config():
    specs = [
        replace(spec, queue_cap=-3) if spec.name == "bursty-service" else spec
        for spec in standard_mix()
    ]
    with pytest.raises(ValueError, match="'bursty-service' has a negative queue_cap"):
        MultiTenantConfig(specs=specs)
    with pytest.raises(ValueError, match="'bursty-service'"):
        run_tenant_scale(specs=specs)
    # A cap of 0 stays valid: every arrival that finds the pool dry is
    # congested, on the FIFO recurrence as on the referee.
    outputs = [
        _outputs(run(specs=_specs(queue_cap=0), partitioning="shared", **SATURATED))
        for run in (run_tenant_scale_referee, run_tenant_scale)
    ]
    assert outputs[0] == outputs[1]
    fingerprint, backlogs = outputs[0]
    assert fingerprint["queued"] == 0 and fingerprint["congested"] > 0
    assert set(backlogs.values()) == {0}


def test_run_validation_rejects_bad_knobs():
    specs = standard_mix()
    with pytest.raises(ValueError):
        run_tenant_scale(specs=specs, partitioning="bogus")
    # The engine selector is retired: the referee has its own entry.
    with pytest.raises(TypeError, match="admission"):
        run_tenant_scale(specs=specs, admission="per-event")
    with pytest.raises(TypeError, match="admission"):
        run_tenant_scale_referee(specs=specs, admission="per-event")
    with pytest.raises(ValueError):
        run_tenant_scale(specs=specs, pool_policy="bogus")
    with pytest.raises(ValueError):
        run_tenant_scale(specs=[])
    with pytest.raises(ValueError):
        run_tenant_scale(specs=[TenantSpec(name="a"), TenantSpec(name="a")])
    with pytest.raises(ValueError):
        run_tenant_scale(specs=[replace(spec, invocations=0) for spec in specs])
    # A tenant that reaches no slot would leave its waiters queued forever.
    with pytest.raises(ValueError):
        run_tenant_scale(specs=specs, partitioning="shared", workers=0)
    with pytest.raises(ValueError):
        run_tenant_scale(specs=specs, partitioning="pinned", workers=2)
