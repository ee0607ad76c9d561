"""Wall-clock benchmarks of the simulator's own three hot loops.

This is the bench *trajectory*: each PR that touches a hot path appends
its numbers to a committed JSON (``BENCH_PR1.json`` seeded the file), so
regressions in the simulator's wall-clock cost are visible in review,
not just in pytest-benchmark runs that nobody diffs.

The three loops mirror ``benchmarks/test_simulator_performance.py``
exactly -- the DES kernel, the verbs data path, and a full rFaaS
invocation -- plus the opt-in :mod:`repro.perf` counters (allocations
avoided, bytes copied vs. referenced) that wall-clock numbers alone
cannot show.

Every fast engine (the scale, cold-start and multi-tenant engines, the
control-plane kernel) is recorded the same way: :func:`_two_way` forks
its per-event referee and the engine on one scenario and builds the
record's ``speedup``, ``bit_identical`` and RSS ratio once, and
:func:`check_regression` fails any verdict in the results that reads
false.

Usage::

    python -m repro.experiments bench --json BENCH_PR1.json --label pr1
    python -m repro.experiments bench --quick --parallel 4

``--parallel N`` runs the repetitions of each loop concurrently via
:mod:`repro.parallel`.  Every repetition times *itself* inside its own
process, so the per-run wall-clock numbers (and their medians) remain
comparable with serial entries; only the batch finishes sooner.

Merging semantics: ``--json`` loads the file if it exists and replaces
only the ``--label`` entry, so a baseline recorded by an older checkout
survives re-runs on the optimized one.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Optional

from repro import perf
from repro.parallel import FailedPoint, RunSpec, available_workers, resolve_workers, run_specs


def _rss_self() -> int:
    """Lifetime peak RSS of this process in bytes (Linux reports KiB).

    Inside a fanned-out repetition this is the forked worker's own
    peak; in a serial run it is the whole bench process, so serial
    numbers are an upper bound rather than per-loop attribution.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _rss_tree() -> int:
    """Peak RSS across this process and all reaped children, bytes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    return max(_rss_self(), children)


def _engine_run(run: Callable[[], Any]) -> tuple[Any, dict[str, Any]]:
    """Call *run*, one scale-engine run; return its result and the
    record every engine run carries.  ``minor_faults`` and ``sys_s``
    are what the run cost this process in the kernel (``getrusage``
    deltas): a chunked engine that re-faults its memory every chunk
    shows there, not in its simulated outputs."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    result = run()
    after = resource.getrusage(resource.RUSAGE_SELF)
    return result, {
        "wall_s": result.wall_s,
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "sys_s": after.ru_stime - before.ru_stime,
        "invocations": result.invocations,
        "workers": result.workers,
        "events_processed": result.events_processed,
        "events_per_sec": round(result.events_per_sec),
        "peak_rss_bytes": result.peak_rss_bytes,
        "stream_buckets": result.stream_buckets,
        "fingerprint": result.fingerprint(),
    }


def _kernel_once() -> dict[str, Any]:
    """One self-timed run of the pure event loop (5000 ping-pong timeouts)."""
    from repro.sim import Environment

    t0 = time.perf_counter()
    env = Environment()

    def ticker():
        for _ in range(5_000):
            yield env.timeout(10)

    env.process(ticker())
    env.run()
    wall_s = time.perf_counter() - t0
    pool_hits = getattr(env, "timeout_pool_hits", 0)
    if perf.enabled:
        perf.counters.alloc_avoided += pool_hits
    return {
        "wall_s": wall_s,
        "events_processed": env.events_processed,
        "timeout_pool_hits": pool_hits,
        "peak_rss_bytes": _rss_self(),
    }


def _pingpong_once() -> dict[str, Any]:
    """One self-timed run of 100 WRITE_WITH_IMM ping-pongs of 64 B."""
    from repro.rdma.fabric import Fabric
    from repro.rdma.microbench import ib_write_lat
    from repro.sim import Environment

    t0 = time.perf_counter()
    env = Environment()
    result = ib_write_lat(64, iterations=100, fabric=Fabric(env))
    return {
        "wall_s": time.perf_counter() - t0,
        "iterations": len(result.rtts_ns),
        "median_rtt_ns": statistics.median(result.rtts_ns),
        "events_processed": env.events_processed,
        "peak_rss_bytes": _rss_self(),
    }


def _invocation_once() -> dict[str, Any]:
    """One self-timed end-to-end run: 50 rFaaS invocations incl. setup."""
    from repro.core.deployment import Deployment
    from repro.workloads.noop import noop_package

    t0 = time.perf_counter()
    dep = Deployment.build(executors=1, clients=1)
    dep.settle()
    invoker = dep.new_invoker()
    package = noop_package()

    def driver():
        yield from invoker.allocate(package, workers=1)
        in_buf = invoker.alloc_input(1024)
        in_buf.write(bytes(1024))
        out_buf = invoker.alloc_output(1024)
        for _ in range(50):
            future = invoker.submit("echo", in_buf, 1024, out_buf)
            yield future.wait()
        return 50

    dep.run(driver())
    return {
        "wall_s": time.perf_counter() - t0,
        "invocations": 50,
        "events_processed": dep.env.events_processed,
        "final_now_ns": dep.env.now,
        "peak_rss_bytes": _rss_self(),
    }


def _scale_once(
    referee: bool = False,
    quick: bool = False,
    overrides: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """One open-loop scale run (see :mod:`repro.experiments.scale`) on
    the default engine or, with *referee*, the per-event referee: a side
    of :func:`_two_way`.  *overrides* merges extra ``run_scale`` kwargs
    (the cold-start and 10^7 stress scenarios)."""
    from repro.experiments.scale import QUICK_KWARGS, run_scale, run_scale_referee

    kwargs = dict(QUICK_KWARGS) if quick else {}
    if overrides:
        kwargs.update(overrides)
    run = run_scale_referee if referee else run_scale
    _, record = _engine_run(lambda: run(**kwargs))
    return record


def _control_once(
    referee: bool = False, quick: bool = False, overrides: Optional[dict[str, Any]] = None
) -> dict[str, Any]:
    """One control-plane run (see :mod:`repro.experiments.control`) on
    the kernel or, with *referee*, the per-event reference: a side of
    :func:`_two_way`.  The manager gauges (grants, renewals,
    steals, dead nodes, peak active leases) ride along via
    :mod:`repro.perf` so every control BENCH entry records them, as
    this run's counter deltas: the counters keep running for whatever
    counts around the call.
    """
    from repro.experiments.control import QUICK_KWARGS, run_control, run_control_referee

    kwargs: dict[str, Any] = {}
    if quick:
        kwargs.update(QUICK_KWARGS)
        kwargs.pop("verify", None)  # bit-identity is asserted by the bench itself
    if overrides:
        kwargs.update(overrides)
    before = perf.snapshot()
    was_enabled = perf.enabled
    perf.enable()
    try:
        result = (run_control_referee if referee else run_control)(**kwargs)
    finally:
        if not was_enabled:
            perf.disable()
    counters = perf.delta(before, perf.snapshot())
    return {
        "wall_s": result.wall_s,
        "executors": result.executors,
        "requests": result.requests,
        "lease_events": result.lease_events,
        "lease_events_per_sec": round(result.lease_events_per_sec),
        "grants_per_sec": round(result.grants_per_sec),
        "events_processed": result.events_processed,
        "peak_rss_bytes": result.peak_rss_bytes,
        "gauges": {
            # A peak has no delta: the run reports its own.
            "leases_active_peak": result.leases_active_peak,
            "grants": counters["lease_grants"],
            "renewals": counters["lease_renewals"],
            "steals": counters["lease_steals"],
            "dead_nodes": counters["dead_nodes"],
        },
        "fingerprint": result.fingerprint(),
    }


#: The record keys of every engine comparison's two sides, referee
#: first: the per-event heap referee and the default engine, which is
#: the exact FIFO recurrence under the "queue" policy and the
#: reduced-event walk under "cold"/"hybrid".  The keys stay
#: "heap"/"wheel" so older BENCH entries remain comparable.
_ENGINES = ("heap", "wheel")

#: The control plane's two drivers, referee first.
_DRIVERS = ("reference", "kernel")

#: How far ``check_regression`` lets a guarded throughput drop below
#: its baseline.
MAX_REGRESSION = 0.30
#: How far a peak RSS may grow over what it is held against: the
#: baseline entry's scale run in ``check_regression``, the per-event
#: referee's in a 10^7 record's ``within_rss_guard``.
MAX_RSS_GROWTH = 0.20


def _two_way(
    label: str,
    factory: str,
    kwargs: dict[str, Any],
    lift: tuple[str, ...] = (),
    keys: tuple[str, str] = _ENGINES,
    rss_guard: bool = False,
) -> dict[str, Any]:
    """One engine-versus-referee record.

    Runs *factory* once per side -- ``referee=True`` then
    ``referee=False`` -- each in its own forked process (peak RSS is a
    process-lifetime high-water mark, so sharing a process would let
    one run's footprint mask the other's), and keeps both runs under
    their *keys*.  Builds the verdicts every two-way record carries:
    ``speedup`` (referee wall clock / engine wall clock),
    ``bit_identical`` (the fingerprints agree), ``rss_ratio_vs_heap``
    (engine peak RSS / referee peak RSS) and ``peak_rss_bytes`` (the
    larger).  The engine run's *lift* fields
    are copied into the record.  With *rss_guard* set,
    ``within_rss_guard`` asserts the engine's peak RSS stays within
    :data:`MAX_RSS_GROWTH` of the referee's on the same scenario: the
    fast engine must not buy speed with footprint.
    """
    runs: dict[str, dict[str, Any]] = {}
    for key, is_referee in zip(keys, (True, False)):
        spec = RunSpec(
            factory=f"repro.experiments.bench:{factory}",
            kwargs={"referee": is_referee, **kwargs},
            label=f"{label}[{key}]",
        )
        (outcome,) = run_specs([spec], 2)
        if isinstance(outcome, FailedPoint):
            raise RuntimeError(f"{label} bench failed: {outcome.summary()}")
        runs[key] = outcome
    referee, engine = runs.values()
    record = {
        **runs,
        **{name: engine[name] for name in lift},
        "speedup": referee["wall_s"] / engine["wall_s"] if engine["wall_s"] else 0.0,
        "bit_identical": referee["fingerprint"] == engine["fingerprint"],
        "rss_ratio_vs_heap": (
            engine["peak_rss_bytes"] / referee["peak_rss_bytes"]
            if referee["peak_rss_bytes"]
            else 0.0
        ),
        "peak_rss_bytes": max(referee["peak_rss_bytes"], engine["peak_rss_bytes"]),
    }
    if rss_guard:
        record["max_rss_growth"] = MAX_RSS_GROWTH
        record["within_rss_guard"] = bool(record["rss_ratio_vs_heap"] <= 1.0 + MAX_RSS_GROWTH)
    return record


def bench_control(
    quick: bool = False, overrides: Optional[dict[str, Any]] = None
) -> dict[str, Any]:
    """Both control-plane drivers on the same calendar, forked apart.

    The per-event ResourceManager replay is the referee; the
    merged-stream kernel is the engine under test.  Fingerprints
    must agree (``bit_identical``, churn included unless overridden
    off); the headline is ``speedup`` (reference wall / kernel wall)
    and ``grants_per_sec``, with ``rss_ok`` guarding that the kernel's
    footprint stays at or below the referee's.
    """
    record = _two_way(
        "control",
        "_control_once",
        {"quick": quick, "overrides": dict(overrides or {})},
        lift=(
            "executors",
            "requests",
            "lease_events",
            "lease_events_per_sec",
            "grants_per_sec",
            "gauges",
        ),
        keys=_DRIVERS,
    )
    record["rss_ok"] = record["kernel"]["peak_rss_bytes"] <= record["reference"]["peak_rss_bytes"]
    return record


def _micro_bench(factory: str, repeats: int, parallel: int, *fields: str) -> dict[str, Any]:
    """Run a self-timed micro-bench *repeats* times, maybe fanned out.

    Every entry carries the median, minimum and every run's wall clock,
    ``events_per_sec`` (the event count over the median wall clock) and
    ``peak_rss_bytes`` (the max across repetitions) so the trajectory
    file tracks memory alongside throughput, plus the last run's
    *fields*.
    """
    specs = [
        RunSpec(factory=f"repro.experiments.bench:{factory}", index=i, label=f"{factory}[{i}]")
        for i in range(repeats)
    ]
    reps = run_specs(specs, parallel)
    failed = [o for o in reps if isinstance(o, FailedPoint)]
    if failed:
        raise RuntimeError(f"benchmark repetition failed: {failed[0].summary()}")
    runs = [r["wall_s"] for r in reps]
    last = reps[-1]
    median_s = statistics.median(runs)
    return {
        "median_s": median_s,
        "min_s": min(runs),
        "runs_s": runs,
        "peak_rss_bytes": max(r["peak_rss_bytes"] for r in reps),
        "events_processed": last["events_processed"],
        "events_per_sec": round(last["events_processed"] / median_s),
        **{name: last[name] for name in fields},
    }


#: Repetitions behind ``kernel_event_throughput``, quick runs included:
#: one run takes ~4-7 ms, and perf-guard checks this figure's median
#: against a baseline, which a median of 3 such runs is too noisy for.
KERNEL_REPEATS = 9


def bench_kernel(repeats: int, parallel: int = 1) -> dict[str, Any]:
    """Pure event-loop throughput: ping-pong timeouts (5000 events)."""
    return _micro_bench("_kernel_once", repeats, parallel, "timeout_pool_hits")


def bench_pingpong(repeats: int, parallel: int = 1) -> dict[str, Any]:
    """Full verbs data path: 100 WRITE_WITH_IMM ping-pongs of 64 B."""
    return _micro_bench("_pingpong_once", repeats, parallel, "iterations", "median_rtt_ns")


def bench_invocation(repeats: int, parallel: int = 1) -> dict[str, Any]:
    """End-to-end rFaaS invocations incl. control-plane setup (50 calls)."""
    return _micro_bench("_invocation_once", repeats, parallel, "invocations", "final_now_ns")


#: What a scale record lifts from its default-engine run.
_SCALE_FIELDS = ("invocations", "events_processed", "events_per_sec")


def bench_scale(quick: bool = False) -> dict[str, Any]:
    """Two engines on the open-loop scale scenario (the tentpole bench).

    ``heap`` is the per-event heap referee; ``wheel`` is the default
    engine, which under the ``queue`` policy is the exact FIFO
    recurrence.  The simulated outputs must be bit-identical
    (``bit_identical``); the headline ``speedup`` is heap wall clock /
    default-engine wall clock.
    """
    return _two_way("scale", "_scale_once", {"quick": quick}, lift=_SCALE_FIELDS)


#: The policies the coldstart bench compares on one saturated scenario.
#: "queue" proves the default path stayed byte-identical with the cold
#: machinery compiled in; "cold" and "hybrid" exercise the dry-pool
#: spin-up path (and, with keepalive on, the idle-reclaim path).
_COLD_POLICIES = ("queue", "cold", "hybrid")

#: Shared cold scenario knobs: the MITOSIS-style remote-fork start
#: model (~1 ms spawn), idle-reclaim off -- the headline record.  The
#: reclaim path is covered by a secondary record at a short keepalive
#: (see ``bench_coldstart``).
_COLD_SCENARIO = {
    "start_model": "remote-fork",
    "keepalive_ns": 0,
    "hybrid_threshold": 64,
}

#: Secondary scenario: a short keepalive so reclaim expiries both
#: succeed and lose races -- exercises the default engine's reclaim
#: ordering.
_COLD_RECLAIM_KEEPALIVE_NS = 5_000_000


def _cold_two_way(
    label: str,
    scenario: dict[str, Any],
    quick: bool = False,
    rss_guard: bool = False,
) -> dict[str, Any]:
    """:func:`_two_way` on a cold-start *scenario*, plus its cold-start
    economics read from the default engine's fingerprint."""
    from repro.experiments.coldstart import executor_seconds

    record = _two_way(
        label,
        "_scale_once",
        {"quick": quick, "overrides": scenario},
        lift=("invocations",),
        rss_guard=rss_guard,
    )
    fp = record["wheel"]["fingerprint"]
    record.update(
        {
            "cold_starts": fp["cold_starts"],
            "cold_fraction": fp["cold_starts"] / max(1, fp["completed"]),
            "cold_reclaimed": fp["cold_reclaimed"],
            "cold_retained": fp["cold_retained"],
            "p99_ns": fp["latency_p99_ns"],
            "executor_seconds": executor_seconds(
                record["wheel"]["workers"],
                fp["final_now_ns"],
                fp["cold_busy_ns"],
                fp["cold_reclaimed"],
                scenario["keepalive_ns"],
            ),
        }
    )
    return record


def bench_coldstart(
    quick: bool = False, overrides: Optional[dict[str, Any]] = None
) -> dict[str, Any]:
    """The cold-start engine: heap referee vs default engine x three policies.

    Per policy this is the same forked two-way as :func:`bench_scale`
    with the dry-pool cold-start path enabled; every policy's record
    carries its own ``bit_identical``, and the top-level one requires
    all three.  The headline ``speedup`` and ``rss_ratio_vs_heap`` are
    the cold policy's.

    The headline scenario runs with keepalive 0; a secondary
    ``reclaim`` record re-runs the cold policy at a short keepalive,
    where reclaims race completions and readies at shared instants --
    its guard is bit-identity plus live reclaim traffic.
    """

    def scenario(**knobs: Any) -> dict[str, Any]:
        knobs = {**_COLD_SCENARIO, **knobs}
        if not quick:
            # The paper-scale default pool (2^20 slots) exceeds the
            # 10^6 total arrivals, so it can never run dry; the cold
            # bench needs a pool that saturates (the mid spectrum
            # point), or every run measures the queue path.
            knobs["workers"] = 1 << 14
        return {**knobs, **(overrides or {})}

    policies = {
        policy: _cold_two_way(f"coldstart[{policy}]", scenario(pool_policy=policy), quick)
        for policy in _COLD_POLICIES
    }
    cold = policies["cold"]
    record: dict[str, Any] = {
        "policies": policies,
        "start_model": _COLD_SCENARIO["start_model"],
        "keepalive_ns": _COLD_SCENARIO["keepalive_ns"],
        **{
            key: cold[key]
            for key in (
                "invocations",
                "speedup",
                "rss_ratio_vs_heap",
                "cold_fraction",
                "p99_ns",
                "executor_seconds",
            )
        },
        "bit_identical": all(p["bit_identical"] for p in policies.values()),
        "peak_rss_bytes": max(p["peak_rss_bytes"] for p in policies.values()),
    }
    # Secondary record: idle-reclaim on.
    reclaim_scenario = {
        **scenario(pool_policy="cold"),
        "keepalive_ns": _COLD_RECLAIM_KEEPALIVE_NS,
    }
    reclaim = _cold_two_way("coldstart[reclaim]", reclaim_scenario, quick)
    reclaim["keepalive_ns"] = _COLD_RECLAIM_KEEPALIVE_NS
    reclaim["wall_s"] = reclaim["wheel"]["wall_s"]
    record["reclaim"] = reclaim
    return record


def _coldstart_spectrum(quick: bool = False) -> dict[str, Any]:
    """The :mod:`coldstart` experiment sweep (pool size x start model x
    arrival shape), run in this process: the trajectory file records
    cold fraction, p99 sojourn and executor-seconds per spectrum point,
    not just engine wall clocks."""
    from repro.experiments.coldstart import QUICK_KWARGS as COLD_QUICK
    from repro.experiments.coldstart import run_coldstart

    sweep = run_coldstart(**(dict(COLD_QUICK) if quick else {}))
    return {
        "spectrum": [
            {
                "pool_size": p.pool_size,
                "start_model": p.start_model,
                "arrival_shape": p.arrival_shape,
                "cold_starts": p.cold_starts,
                "cold_fraction": p.cold_fraction,
                "p95_ns": p.p95_ns,
                "p99_ns": p.p99_ns,
                "executor_seconds": p.executor_seconds,
                "bit_identical": p.bit_identical,
            }
            for p in sweep.points
        ],
        "spectrum_wall_s": sweep.wall_s,
    }


#: The 10^7-invocation cold-start stress scenario: the saturated pool
#: depth (not the unsaturated 10^7 scale stress -- a pool that never
#: runs dry exercises no cold path), so every dry arrival spins up a
#: remote-fork executor.
COLD_TEN_MILLION_KWARGS = {
    "invocations": 10_000_000,
    "workers": 1 << 16,
    "mean_arrival_gap_ns": 500,
}


def bench_coldstart_ten_million() -> dict[str, Any]:
    """10^7 cold-start invocations, cold policy only: the stress run,
    with the default engine's peak RSS held within
    :data:`MAX_RSS_GROWTH` of the heap referee's (``within_rss_guard``)."""
    scenario = {**_COLD_SCENARIO, "pool_policy": "cold", **COLD_TEN_MILLION_KWARGS}
    return _cold_two_way("coldstart10m", scenario, rss_guard=True)


def _multitenant_once(
    referee: bool = False,
    quick: bool = False,
    partitioning: str = "pinned",
    overrides: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """One multi-tenant scale run (see :func:`repro.experiments.scale.
    run_tenant_scale`) on the default engine or, with *referee*, the
    per-event referee: a side of :func:`_two_way`."""
    from repro.experiments.multitenant import QUICK_KWARGS, SCALE_KWARGS
    from repro.experiments.scale import run_tenant_scale, run_tenant_scale_referee

    kwargs = dict(QUICK_KWARGS if quick else SCALE_KWARGS)
    if overrides:
        kwargs.update(overrides)
    run = run_tenant_scale_referee if referee else run_tenant_scale
    result, record = _engine_run(lambda: run(partitioning=partitioning, **kwargs))
    record["partitioning"] = partitioning
    record["miss_rates"] = {name: t.miss_rate for name, t in result.tenants.items()}
    record["congestion_rates"] = {
        name: t.congestion_rate for name, t in result.tenants.items()
    }
    return record


#: The isolation-spectrum scenario: a pool sized so the calm mix runs
#: healthily (~2% deadline misses from the log-normal tail alone) but a
#: 6x-boosted bursty tenant floods any capacity it is allowed to touch.
#: Under "pinned" partitioning the victim's numbers must stay EXACTLY
#: flat (its partition is private and per-tenant streams are seeded
#: independently); under "shared" the aggressor inflates the victim's
#: p99 and deadline-miss rate by an order of magnitude.
_ISOLATION_SCENARIO = {
    "rate_scale": 400.0,
    "compute_scale": 40.0,
    "workers": 1_536,
    "aggressor_boost": 6.0,
    "victim": "latency-critical",
    "aggressor": "bursty-service",
}


def _multitenant_isolation(quick: bool = False) -> dict[str, Any]:
    """The 2x2 isolation matrix: {pinned, shared} x {calm, aggressor}."""
    from dataclasses import replace as dc_replace

    from repro.experiments.scale import run_tenant_scale
    from repro.workloads.tenants import standard_mix

    scenario = _ISOLATION_SCENARIO
    invocations = 8_000 if quick else 60_000

    def mix(aggressor: bool):
        specs = standard_mix(
            invocations=invocations,
            rate_scale=scenario["rate_scale"],
            compute_scale=scenario["compute_scale"],
        )
        if aggressor:
            specs = [
                dc_replace(spec, rate_per_s=spec.rate_per_s * scenario["aggressor_boost"])
                if spec.name == scenario["aggressor"]
                else spec
                for spec in specs
            ]
        return specs

    cells: dict[str, dict[str, Any]] = {}
    for partitioning in ("pinned", "shared"):
        cells[partitioning] = {}
        for label, aggressor in (("calm", False), ("aggressor", True)):
            result = run_tenant_scale(
                specs=mix(aggressor),
                workers=scenario["workers"],
                partitioning=partitioning,
                seed=17,
            )
            victim = result.tenants[scenario["victim"]]
            cells[partitioning][label] = {
                "victim_p99_ns": victim.latency.p99,
                "victim_miss_rate": victim.miss_rate,
                "victim_sojourn_total": victim.sojourn_total,
                "victim_dispatched": victim.dispatched,
            }
    pinned, shared = cells["pinned"], cells["shared"]
    # Pinned isolation is exact: the victim's private partition never
    # sees the aggressor, and its arrival/service streams are its own.
    pinned_flat = (
        pinned["calm"]["victim_sojourn_total"] == pinned["aggressor"]["victim_sojourn_total"]
        and pinned["calm"]["victim_dispatched"] == pinned["aggressor"]["victim_dispatched"]
    )
    shared_p99_ratio = (
        shared["aggressor"]["victim_p99_ns"] / shared["calm"]["victim_p99_ns"]
        if shared["calm"]["victim_p99_ns"]
        else 0.0
    )
    return {
        "invocations_per_cell": invocations,
        **{k: v for k, v in scenario.items()},
        "pinned": pinned,
        "shared": shared,
        "pinned_victim_flat": pinned_flat,
        "shared_victim_p99_ratio": shared_p99_ratio,
        "shared_victim_miss_rates": [
            shared["calm"]["victim_miss_rate"],
            shared["aggressor"]["victim_miss_rate"],
        ],
        # The demonstrated spectrum: strong isolation pinned, noisy
        # neighbours shared.
        "isolated": bool(pinned_flat and shared_p99_ratio > 2.0),
    }


def bench_multitenant(quick: bool = False) -> dict[str, Any]:
    """The multi-tenant scale engine vs its per-event referee.

    The comparison forks the per-event heap referee and the default
    engine (the tenant FIFO recurrence; record key ``wheel``) on the
    same 10^6-invocation three-tenant scenario (pinned partitioning):
    ``speedup`` is the wall-clock ratio and ``bit_identical`` demands
    every per-tenant outcome count and sojourn fingerprint agree.
    """
    return _two_way(
        "multitenant",
        "_multitenant_once",
        {"quick": quick},
        lift=(
            "invocations",
            "workers",
            "events_processed",
            "events_per_sec",
            "partitioning",
            "miss_rates",
            "congestion_rates",
        ),
    )


#: The 10^7-invocation stress scenario: arrivals come 2x
#: faster than the paper-scale default but the pool is twice as deep,
#: so the run stays *unsaturated* (~10^6 in-flight leases at peak, the
#: same order as the saturated 10^6 scenario) -- memory stays within
#: the scale guard while the event count grows 10x.
TEN_MILLION_KWARGS = {
    "invocations": 10_000_000,
    "workers": 1 << 21,
    "mean_arrival_gap_ns": 500,
}


def bench_scale_ten_million() -> dict[str, Any]:
    """10^7 invocations in one run: the acceptance stress run.

    Same shape as :func:`bench_scale`, an order of magnitude more
    events, with the default engine's peak RSS held within
    :data:`MAX_RSS_GROWTH` of the heap referee's (``within_rss_guard``).
    """
    return _two_way(
        "scale10m",
        "_scale_once",
        {"overrides": TEN_MILLION_KWARGS},
        lift=_SCALE_FIELDS,
        rss_guard=True,
    )


def run_bench(
    quick: bool = False, parallel: int = 1, ten_million: bool = False
) -> dict[str, Any]:
    """Run every engine comparison and the three hot-loop
    micro-benches; returns a JSON-ready dict.

    Each engine comparison (scale, control plane, cold start,
    multi-tenant) forks its referee and its engine through
    :func:`repro.parallel.run_specs`, whatever *parallel* says, and all
    of them run first.  A forked run's peak RSS counts the pages it
    inherits, so each one forks from a bench process that no in-process
    work (the micro-benches, the cold-start spectrum, the isolation
    matrix) has grown.  *parallel* fans out the micro-benches'
    repetitions.  *ten_million* additionally runs the 10^7-invocation
    stress scenarios (several minutes of wall clock; meant for recorded
    trajectory entries, not CI quick runs).

    ``perf_counters`` covers every entry: counting stays on for the
    whole bench, and forked runs ship their counters back through
    :mod:`repro.parallel`.  Every entry records its execution
    environment (``workers``, ``cpus_available``) so trajectory
    comparisons know which entries were measured on comparable hosts.
    """
    repeats = 3 if quick else 9
    perf.reset()
    perf.enable()
    try:
        forked = {
            "scale_openloop": bench_scale(quick),
            "control_plane": bench_control(quick),
            "coldstart": bench_coldstart(quick),
            "multitenant": bench_multitenant(quick),
        }
        if ten_million:
            forked["scale_10m"] = bench_scale_ten_million()
            forked["coldstart_10m"] = bench_coldstart_ten_million()
        results = {
            "kernel_event_throughput": bench_kernel(KERNEL_REPEATS, parallel),
            "rdma_pingpong": bench_pingpong(max(3, repeats - 2), parallel),
            "invocation": bench_invocation(max(3, repeats - 4), parallel),
        }
        forked["coldstart"].update(_coldstart_spectrum(quick))
        # The 2x2 {pinned, shared} x {calm, aggressor} isolation matrix.
        forked["multitenant"]["isolation"] = _multitenant_isolation(quick)
        results.update(forked)
    finally:
        perf.disable()
    results["perf_counters"] = perf.snapshot()
    results["workers"] = resolve_workers(parallel)
    results["cpus_available"] = available_workers()
    results["peak_rss_bytes"] = _rss_tree()
    return results


def write_bench(path: str, results: dict[str, Any], label: Optional[str] = None) -> str:
    """Merge *results* under *label* into the bench-trajectory file."""
    target = Path(path)
    doc: dict[str, Any] = {"schema": "rfaas-repro-bench-v1", "entries": {}}
    if target.exists():
        try:
            existing = json.loads(target.read_text())
            if isinstance(existing, dict) and "entries" in existing:
                doc = existing
        except (OSError, json.JSONDecodeError):
            pass
    doc["entries"][label or "run"] = results
    target.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return str(target)


#: The verdicts a run records, and what one that reads false means.
#: Wherever one sits in the results, false fails the run outright, with
#: no baseline needed: a wrong fast answer is not a perf win.
_VERDICTS = {
    "bit_identical": "the fast path diverged from its referee",
    "within_rss_guard": "the default engine's peak RSS outgrew the per-event "
    "referee's by more than the allowed growth (see rss_ratio_vs_heap)",
    "isolated": "pinned partitioning no longer insulates the victim tenant "
    "from a bursty co-tenant",
}

#: The baseline guards, as (record, figure, bound, what a breach means).
#: "drop" fails a figure more than :data:`MAX_REGRESSION` below the
#: baseline; "growth" one more than :data:`MAX_RSS_GROWTH` above it; "4x"
#: one past four times it, for outputs that are deterministic on the
#: quick scenario (a dict of figures, the per-tenant miss rates, is
#: checked key by key).  A figure either side lacks, or a zero
#: baseline, skips its guard, so entries recorded before a bench
#: existed stay usable baselines.
_BASELINE_GUARDS = (
    ("kernel_event_throughput", "events_per_sec", "drop", ""),
    ("scale_openloop", "peak_rss_bytes", "growth", ""),
    ("control_plane", "grants_per_sec", "drop", ""),
    ("multitenant", "events_per_sec", "drop", ""),
    (
        "coldstart",
        "cold_fraction",
        "4x",
        "warm-pool accounting regressed (slots leaking or reclaim misfiring)",
    ),
    ("multitenant", "miss_rates", "4x", "per-tenant admission or pool accounting regressed"),
)


def _false_verdicts(node: Any, path: str = "") -> list[str]:
    """Every verdict under *node* that reads false, named by its record path."""
    if isinstance(node, dict):
        items = [(f"{path}.{key}" if path else str(key), key, value) for key, value in node.items()]
    elif isinstance(node, list):
        items = [(f"{path}[{index}]", None, value) for index, value in enumerate(node)]
    else:
        return []
    problems = []
    for where, key, value in items:
        if value is False and key in _VERDICTS:
            problems.append(f"{where} is false: {_VERDICTS[key]}")
        else:
            problems.extend(_false_verdicts(value, where))
    return problems


def _figure(doc: dict[str, Any], record: str, figure: str) -> Any:
    section = doc.get(record)
    return section.get(figure) if isinstance(section, dict) else None


def check_regression(
    results: dict[str, Any], baseline_path: str, baseline_label: Optional[str]
) -> list[str]:
    """Compare *results* against a committed trajectory entry.

    One rule and one table.  The rule: any ``bit_identical``,
    ``within_rss_guard`` or ``isolated`` that reads false anywhere in
    *results* fails, named by its record path.  The table
    (``_BASELINE_GUARDS``): the DES kernel's ``events_per_sec`` and the
    control and multi-tenant throughputs may drop at most
    :data:`MAX_REGRESSION` below the baseline entry, the scale run's
    peak RSS may grow at most :data:`MAX_RSS_GROWTH` (the scale
    engine's whole point is bounded memory), and the cold-start
    fraction and per-tenant deadline-miss rates may not pass 4x the
    baseline.

    Returns a list of problems, empty when the run is clean; a missing
    baseline file or entry, or a kernel throughput either side lacks,
    is itself a problem (a silently absent guard guards nothing).
    """
    try:
        doc = json.loads(Path(baseline_path).read_text())
        entries = doc["entries"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"cannot load baseline {baseline_path}: {exc}"]
    label = baseline_label or (sorted(entries)[-1] if entries else None)
    entry = entries.get(label) if label else None
    if not isinstance(entry, dict):
        return [f"no baseline entry {label!r} in {baseline_path}"]
    problems = _false_verdicts(results)
    if any(_figure(d, "kernel_event_throughput", "events_per_sec") is None for d in (entry, results)):
        problems.append("baseline/current entries missing kernel_event_throughput.events_per_sec")
    for record, figure, bound, breach in _BASELINE_GUARDS:
        base, current = _figure(entry, record, figure), _figure(results, record, figure)
        if isinstance(base, dict) and isinstance(current, dict):
            pairs = [
                (f"{record}.{figure}[{key!r}]", value, current.get(key))
                for key, value in base.items()
            ]
        else:
            pairs = [(f"{record}.{figure}", base, current)]
        for name, base_value, value in pairs:
            try:
                base_value, value = float(base_value), float(value)
            except (TypeError, ValueError):
                continue  # absent on one side: nothing to compare
            if not base_value:
                continue
            if bound == "drop" and value < base_value * (1.0 - MAX_REGRESSION):
                problems.append(
                    f"{name} {value:,.0f} is {1 - value / base_value:.1%} below "
                    f"baseline {label!r} ({base_value:,.0f}; allowed drop {MAX_REGRESSION:.0%})"
                )
            elif bound == "growth" and value > base_value * (1.0 + MAX_RSS_GROWTH):
                problems.append(
                    f"{name} {value:,.0f} is {value / base_value - 1:.1%} above "
                    f"baseline {label!r} ({base_value:,.0f}; allowed growth {MAX_RSS_GROWTH:.0%})"
                )
            elif bound == "4x" and value > 4.0 * base_value:
                problems.append(
                    f"{name} {value:.4f} is more than 4x baseline {label!r} "
                    f"({base_value:.4f}) -- {breach}"
                )
    return problems


#: Headline figures a two-way line shows, where its record has them.
_HEADLINES = (
    ("invocations", "{:,} invocations"),
    ("lease_events", "{:,} lease events"),
    ("partitioning", "{} partitioning"),
    ("keepalive_ns", "keepalive {:,} ns"),
)

#: Outcome figures a two-way line shows, where its record has them.
_FIGURES = (
    ("events_per_sec", "{:,} events/s"),
    ("grants_per_sec", "{:,} grants/s"),
    ("cold_fraction", "cold fraction {:.1%}"),
    ("cold_reclaimed", "{:,} reclaimed"),
)


def _two_way_lines(node: Any, path: str = "") -> list[str]:
    """Every engine-versus-referee record under *node*, one line each."""
    if not isinstance(node, dict):
        return []
    keys = next((k for k in (_ENGINES, _DRIVERS) if k[0] in node), None)
    if keys is None:
        return [
            line
            for key, value in node.items()
            for line in _two_way_lines(value, f"{path}.{key}" if path else key)
        ]
    referee_key, engine_key = keys
    referee, engine = node[referee_key], node[engine_key]
    head = ", ".join(f.format(node[k]) for k, f in _HEADLINES if k in node)
    figures = "".join(", " + f.format(node[k]) for k, f in _FIGURES if k in node)
    guard = node.get("within_rss_guard")
    if guard is not None:
        figures += f" [RSS guard {'ok' if guard else 'BREACHED'}]"
    if "minor_faults" in engine:
        figures += f", {engine['minor_faults']:,} minor faults"
    return [
        f"{path}: {head}  {referee_key} {referee['wall_s']:.3f}s -> "
        f"{'default' if engine_key == 'wheel' else engine_key} {engine['wall_s']:.3f}s  "
        f"({node['speedup']:.2f}x{figures}, peak RSS {node['peak_rss_bytes'] / 2**20:.0f} MiB "
        f"= {node['rss_ratio_vs_heap']:.2f}x {referee_key}, bit_identical={node['bit_identical']})"
    ]


def show(results: dict[str, Any]) -> None:
    for name in ("kernel_event_throughput", "rdma_pingpong", "invocation"):
        r = results[name]
        line = f"{name:<28} median {r['median_s'] * 1e3:8.3f} ms  (min {r['min_s'] * 1e3:.3f})"
        if "events_per_sec" in r:
            line += f"  {r['events_per_sec']:,} events/s"
        print(line)
    counters = results.get("perf_counters", {})
    if counters:
        print(
            "perf: alloc_avoided={alloc_avoided:,} bytes_copied={bytes_copied:,} "
            "bytes_referenced={bytes_referenced:,} "
            "fifo_block_arrivals={fifo_block_arrivals:,} "
            "fifo_step_arrivals={fifo_step_arrivals:,}".format(**counters)
        )
    for line in _two_way_lines(results):
        print(line)
    spectrum = results.get("coldstart", {}).get("spectrum")
    if spectrum:
        verified = sum(1 for p in spectrum if p.get("bit_identical"))
        print(
            "coldstart.spectrum: {n} points (pool x start model x arrival shape), "
            "{verified} heap-verified, {wall:.1f}s wall".format(
                n=len(spectrum),
                verified=verified,
                wall=results["coldstart"].get("spectrum_wall_s", 0.0),
            )
        )
    mt = results.get("multitenant")
    if mt:
        for tenant, rate in mt["miss_rates"].items():
            print(
                "multitenant {tenant:<18} miss {rate:.2%}  congestion {cong:.2%}".format(
                    tenant=tenant,
                    rate=rate,
                    cong=mt.get("congestion_rates", {}).get(tenant, 0.0),
                )
            )
        iso = mt.get("isolation")
        if iso:
            print(
                "multitenant.isolation: pinned victim flat={flat}  shared victim p99 "
                "x{ratio:.1f} under bursty co-tenant  (isolated={isolated})".format(
                    flat=iso["pinned_victim_flat"],
                    ratio=iso["shared_victim_p99_ratio"],
                    isolated=iso["isolated"],
                )
            )
