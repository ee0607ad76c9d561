"""Multi-tenant scale engine: bit-identity, sharding, and pool plans.

The contract under test mirrors the single-stream scale engine's: the
default engines -- the tenant FIFO recurrence for ``queue`` runs on a
pinned or shared plan, the tenant reduced-event walk otherwise -- and
the per-event referee FSM must agree on every simulated-domain output,
here *per tenant*: outcome counts (SUCCESS / CONGESTION /
DEADLINE_MISSED), exact sojourn totals, histogram-derived tails and
peak backlog -- and (unsaturated) a K-way shard split must merge back
bit-identical to the 1-shard run.
"""

from dataclasses import replace

import pytest

from repro import perf
from repro.analysis.streams import KeyedStreamingSummary
from repro.experiments.scale import (
    MultiTenantConfig,
    TenantShardResult,
    _TenantWalk,
    _tenant_chunks,
    _tenant_pool_plan,
    merge_tenant_shards,
    run_tenant_scale,
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
        _outputs(
            run_tenant_scale(
                specs=_specs(),
                partitioning=partitioning,
                admission=admission,
                **SATURATED,
            )
        )
        for admission in ("per-event", "batch")
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
        run_tenant_scale(
            specs=specs,
            partitioning="overflow",
            pool_policy=pool_policy,
            hybrid_threshold=8,
            admission=admission,
            **SATURATED,
        )
        for admission in ("per-event", "batch")
    ]
    assert all(_outputs(r) == _outputs(results[0]) for r in results[1:])
    base = results[0].fingerprint()
    if pool_policy == "queue":
        assert base["congested"] > 0 and base["cold_starts"] == 0
    else:
        assert base["cold_starts"] > 0
    # Accounting closes: every arrival either completed or was rejected.
    assert base["completed"] + base["congested"] == 4_000


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
    referee = run_tenant_scale(admission="per-event", **kwargs)
    assert _outputs(fifo) == _outputs(referee)
    assert fifo.completed == 20_000 and fifo.queued > 5_000
    assert moved["fifo_block_arrivals"] + moved["fifo_step_arrivals"] == 20_000
    assert moved["fifo_block_arrivals"] > 15_000


@pytest.mark.parametrize("shards", [2, 3])
def test_unsaturated_shard_split_is_exact(shards):
    """K-way partition split merges bit-identical to the 1-shard run
    when the pool never saturates (no cross-shard queue interaction)."""
    specs = standard_mix(invocations=3_000, rate_scale=50.0)
    kwargs = dict(specs=specs, workers=8_192, partitioning="overflow", seed=5)
    serial = run_tenant_scale(**kwargs)
    sharded = run_tenant_scale(shards=shards, **kwargs)
    assert sharded.fingerprint() == serial.fingerprint()
    assert sharded.shards == shards


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
    result = run_tenant_scale(specs=_specs(), partitioning="overflow", shards=2, **SATURATED)
    parts = [t for t in result.tenants.values() if t.latency is not None]
    dispatched = sum(t.dispatched for t in parts)
    assert result.latency.count == dispatched == result.completed
    assert result.latency.mean == sum(t.sojourn_total for t in parts) / dispatched
    assert result.latency.minimum == min(t.latency.minimum for t in parts)
    assert result.latency.maximum == max(t.latency.maximum for t in parts)
    low = min(t.latency.median for t in parts)
    high = max(t.latency.median for t in parts)
    assert low <= result.latency.median <= high


def test_merge_without_dispatched_sojourns_fails():
    empty = TenantShardResult(
        shard=0, shards=1, names=["a"], invocations=1, completed=0,
        arrived_by=[1], dispatched_by=[0], missed_by=[0], congested_by=[1],
        queued_by=[0], cold_by=[0], max_backlog_by=[0], sojourn_totals=[0],
        sojourn_total=0, events_processed=1, wall_s=0.0, peak_rss_bytes=0,
        final_now_ns=0, timeout_pool_hits=0, keyed=KeyedStreamingSummary(),
    )
    with pytest.raises(ValueError):
        merge_tenant_shards(
            [empty], admission="batch", partitioning="pinned", pool_policy="queue",
            workers=1, wall_s=0.0,
        )


def test_tenant_chunks_shard_union_is_global_stream():
    """The K shards' merged calendars tile the global one exactly."""
    config = MultiTenantConfig(specs=tuple(standard_mix(invocations=2_000)))
    serial = []
    for times, tenants, services in _tenant_chunks(config, 0, 1):
        serial.extend(zip(times, tenants, services))
    recombined = [[] for _ in range(3)]
    for shard in range(3):
        for times, tenants, services in _tenant_chunks(config, shard, 3):
            recombined[shard].extend(zip(times, tenants, services))
    interleaved = []
    cursors = [0, 0, 0]
    for index in range(len(serial)):
        shard = index % 3
        interleaved.append(recombined[shard][cursors[shard]])
        cursors[shard] += 1
    assert interleaved == serial
    assert [t for t, _, _ in serial] == sorted(t for t, _, _ in serial)


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
    with pytest.raises(ValueError):
        _tenant_pool_plan(specs, 1_000, "bogus")


def test_run_validation_rejects_bad_knobs():
    specs = standard_mix()
    with pytest.raises(ValueError):
        run_tenant_scale(specs=specs, partitioning="bogus")
    with pytest.raises(ValueError):
        run_tenant_scale(specs=specs, admission="bogus")
    with pytest.raises(ValueError):
        run_tenant_scale(specs=specs, pool_policy="bogus")
    with pytest.raises(ValueError):
        run_tenant_scale(specs=[])
    with pytest.raises(ValueError):
        run_tenant_scale(specs=[TenantSpec(name="a"), TenantSpec(name="a")])
    with pytest.raises(ValueError):
        run_tenant_scale(specs=specs, shards=0)
    with pytest.raises(ValueError):
        run_tenant_scale(specs=specs, shards=10**9)
    # Some shard would get no slot a tenant can use: its waiters would
    # never run.
    with pytest.raises(ValueError):
        run_tenant_scale(specs=specs, partitioning="shared", workers=1, shards=2)
    with pytest.raises(ValueError):
        run_tenant_scale(specs=specs, partitioning="pinned", workers=4, shards=2)
