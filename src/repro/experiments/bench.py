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

Usage::

    python -m repro.experiments bench --json BENCH_PR1.json --label pr1
    python -m repro.experiments bench --quick --parallel 4

``--parallel N`` runs the repetitions of each loop concurrently via
:mod:`repro.parallel`.  Every repetition times *itself* inside its own
process, so the per-run wall-clock numbers (and their medians) remain
comparable with serial entries; only the batch finishes sooner.  It
also times a multi-experiment quick batch serial-vs-parallel
(``parallel_batch``) -- the headline fan-out speedup for
``python -m repro.experiments all``.

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


def _host_cost(run: Callable[[], Any]) -> tuple[Any, dict[str, Any]]:
    """Call *run*; return its result and what it cost this process in
    the kernel: minor page faults and system CPU seconds (``getrusage``
    deltas).  A chunked engine that re-faults its memory every chunk
    shows here, not in its simulated outputs."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    result = run()
    after = resource.getrusage(resource.RUSAGE_SELF)
    return result, {
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "sys_s": after.ru_stime - before.ru_stime,
    }

#: The multi-experiment batch timed serial-vs-parallel (quick kwargs).
#: Deliberately the *heavier* quick experiments, so worker startup and
#: result pickling are amortized and the speedup reflects the engine.
BATCH_EXPERIMENTS = (
    "fig10",
    "fig11",
    "fig13",
    "suite",
    "fig8",
    "concurrency",
    "multitenant",
    "billing",
)


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
    admission: str = "batch",
    quick: bool = False,
    overrides: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """One open-loop scale run (see :mod:`repro.experiments.scale`).

    Module-level so ``run_specs`` can ship it to a forked worker: each
    engine runs in a fresh process, which is what makes the
    ``peak_rss_bytes`` numbers attributable to that engine instead of
    to whatever ran earlier in the bench process.  *overrides* merges
    extra ``run_scale`` kwargs (the 10^7 stress scenario).
    """
    from repro.experiments.scale import QUICK_KWARGS, run_scale

    kwargs = dict(QUICK_KWARGS) if quick else {}
    if overrides:
        kwargs.update(overrides)
    result, host = _host_cost(lambda: run_scale(admission=admission, **kwargs))
    return {
        "wall_s": result.wall_s,
        **host,
        "invocations": result.invocations,
        "workers": result.workers,
        "events_processed": result.events_processed,
        "events_per_sec": round(result.events_per_sec),
        "peak_rss_bytes": result.peak_rss_bytes,
        "stream_buckets": result.stream_buckets,
        "admission": admission,
        "fingerprint": result.fingerprint(),
    }


def _control_once(driver: str, quick: bool = False, overrides: Optional[dict[str, Any]] = None) -> dict[str, Any]:
    """One control-plane run (see :mod:`repro.experiments.control`).

    Module-level so ``run_specs`` can fork it: each driver runs in a
    fresh process, making ``peak_rss_bytes`` attributable to that
    driver.  The manager gauges (grants, renewals, steals, dead nodes,
    peak active leases) ride along via :mod:`repro.perf` so every
    control BENCH entry records them, as this run's counter deltas:
    the counters keep running for whatever counts around the call.
    """
    from repro.experiments.control import QUICK_KWARGS, run_control

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
        result = run_control(driver=driver, **kwargs)
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


def bench_control(
    quick: bool = False, overrides: Optional[dict[str, Any]] = None
) -> dict[str, Any]:
    """Both control-plane drivers on the same calendar, forked apart.

    The per-event ResourceManager replay is the referee; the
    struct-of-arrays kernel is the engine under test.  Fingerprints
    must agree (``bit_identical``, churn included unless overridden
    off); the headline is ``speedup`` (reference wall / kernel wall)
    and ``grants_per_sec``, with ``rss_ok`` guarding that the kernel's
    footprint stays at or below the referee's.
    """
    runs: dict[str, dict[str, Any]] = {}
    for driver in ("reference", "kernel"):
        spec = RunSpec(
            factory="repro.experiments.bench:_control_once",
            kwargs={"driver": driver, "quick": quick, "overrides": dict(overrides or {})},
            label=f"control[{driver}]",
        )
        (outcome,) = run_specs([spec], 2)
        if isinstance(outcome, FailedPoint):
            raise RuntimeError(f"control bench failed: {outcome.summary()}")
        runs[driver] = outcome
    reference, kernel = runs["reference"], runs["kernel"]
    return {
        "reference": reference,
        "kernel": kernel,
        "executors": kernel["executors"],
        "requests": kernel["requests"],
        "lease_events": kernel["lease_events"],
        "lease_events_per_sec": kernel["lease_events_per_sec"],
        "grants_per_sec": kernel["grants_per_sec"],
        "peak_rss_bytes": max(r["peak_rss_bytes"] for r in runs.values()),
        "gauges": kernel["gauges"],
        "speedup": (
            reference["wall_s"] / kernel["wall_s"] if kernel["wall_s"] else 0.0
        ),
        "rss_ok": kernel["peak_rss_bytes"] <= reference["peak_rss_bytes"],
        "bit_identical": reference["fingerprint"] == kernel["fingerprint"],
    }


def _repeated(factory: str, repeats: int, parallel: int) -> list[dict[str, Any]]:
    """Run a self-timed benchmark function *repeats* times, maybe fanned out."""
    specs = [
        RunSpec(factory=f"repro.experiments.bench:{factory}", index=i, label=f"{factory}[{i}]")
        for i in range(repeats)
    ]
    outcomes = run_specs(specs, parallel)
    failed = [o for o in outcomes if isinstance(o, FailedPoint)]
    if failed:
        raise RuntimeError(f"benchmark repetition failed: {failed[0].summary()}")
    return outcomes


def _stats(reps: list[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate self-timed repetitions.

    Every entry carries ``events_per_sec`` (from its event count and
    median wall clock) and ``peak_rss_bytes`` (max across repetitions)
    so the trajectory file tracks memory alongside throughput.
    """
    runs = [r["wall_s"] for r in reps]
    out: dict[str, Any] = {
        "median_s": statistics.median(runs),
        "min_s": min(runs),
        "runs_s": runs,
        "peak_rss_bytes": max(r["peak_rss_bytes"] for r in reps),
    }
    if "events_processed" in reps[-1]:
        out["events_processed"] = reps[-1]["events_processed"]
        out["events_per_sec"] = round(out["events_processed"] / out["median_s"])
    return out


def bench_kernel(repeats: int, parallel: int = 1) -> dict[str, Any]:
    """Pure event-loop throughput: ping-pong timeouts (5000 events)."""
    reps = _repeated("_kernel_once", repeats, parallel)
    out = _stats(reps)
    out["timeout_pool_hits"] = reps[-1]["timeout_pool_hits"]
    return out


def bench_pingpong(repeats: int, parallel: int = 1) -> dict[str, Any]:
    """Full verbs data path: 100 WRITE_WITH_IMM ping-pongs of 64 B."""
    reps = _repeated("_pingpong_once", repeats, parallel)
    out = _stats(reps)
    out["iterations"] = reps[-1]["iterations"]
    out["median_rtt_ns"] = reps[-1]["median_rtt_ns"]
    return out


def bench_invocation(repeats: int, parallel: int = 1) -> dict[str, Any]:
    """End-to-end rFaaS invocations incl. control-plane setup (50 calls)."""
    reps = _repeated("_invocation_once", repeats, parallel)
    out = _stats(reps)
    out["invocations"] = reps[-1]["invocations"]
    out["final_now_ns"] = reps[-1]["final_now_ns"]
    return out


#: The two scale engines every scale bench compares, by record key and
#: admission: the per-event heap referee and the default engine (batch
#: admission), which is the exact FIFO recurrence under the "queue"
#: policy and the reduced-event walk under "cold"/"hybrid".  The record
#: keys stay "heap"/"wheel" so older BENCH entries remain comparable.
_ENGINES = (("heap", "per-event"), ("wheel", "batch"))


def _scale_two_way(
    label: str, quick: bool = False, overrides: Optional[dict[str, Any]] = None
) -> dict[str, dict[str, Any]]:
    """Run the heap referee and the default engine, each in its own
    forked process (peak RSS is a process-lifetime high-water mark, so
    sharing a process would let one run's footprint mask another's).
    """
    runs: dict[str, dict[str, Any]] = {}
    for key, admission in _ENGINES:
        kwargs: dict[str, Any] = {"admission": admission, "quick": quick}
        if overrides:
            kwargs["overrides"] = dict(overrides)
        spec = RunSpec(
            factory="repro.experiments.bench:_scale_once",
            kwargs=kwargs,
            label=f"{label}[{key}]",
        )
        (outcome,) = run_specs([spec], 2)
        if isinstance(outcome, FailedPoint):
            raise RuntimeError(f"{label} bench failed: {outcome.summary()}")
        runs[key] = outcome
    return runs


def _versus_referee(runs: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """Both runs plus the verdicts every two-way record carries."""
    heap, default = runs["heap"], runs["wheel"]
    return {
        "heap": heap,
        "wheel": default,
        "speedup": heap["wall_s"] / default["wall_s"] if default["wall_s"] else 0.0,
        "bit_identical": heap["fingerprint"] == default["fingerprint"],
    }


def bench_scale(quick: bool = False) -> dict[str, Any]:
    """Two engines on the open-loop scale scenario (the tentpole bench).

    ``heap`` is the per-event heap referee; ``wheel`` is the default
    engine, which under the ``queue`` policy is the exact FIFO
    recurrence.  The simulated outputs must be bit-identical
    (``bit_identical``); the headline ``speedup`` is heap wall clock /
    default-engine wall clock.
    """
    runs = _scale_two_way("scale", quick=quick)
    default = runs["wheel"]
    record = _versus_referee(runs)
    record.update(
        {
            "invocations": default["invocations"],
            "events_processed": default["events_processed"],
            "events_per_sec": default["events_per_sec"],
            "peak_rss_bytes": max(r["peak_rss_bytes"] for r in runs.values()),
        }
    )
    return record


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


def bench_coldstart(
    quick: bool = False,
    overrides: Optional[dict[str, Any]] = None,
    spectrum: bool = True,
) -> dict[str, Any]:
    """The cold-start engine: heap referee vs default engine x three policies.

    Per policy this is the same forked two-way as :func:`bench_scale`
    (per-event heap referee vs the default engine) with the dry-pool
    cold-start path enabled; fingerprints must agree across all six
    runs (``bit_identical``).  The headline ``speedup`` is the heap
    referee over the default engine *under the cold policy*, and
    ``rss_ratio_vs_heap`` guards that the default engine does not buy
    speed with footprint.

    ``spectrum`` additionally folds in the :mod:`coldstart` experiment
    sweep (pool size x start model x arrival shape) so the trajectory
    file records cold fraction, p99 sojourn and executor-seconds per
    spectrum point, not just engine wall clocks.

    The headline scenario runs with keepalive 0; a secondary
    ``reclaim`` record re-runs the cold policy at a short keepalive,
    where reclaims race completions and readies at shared instants --
    its guard is bit-identity plus live reclaim traffic.
    """
    from repro.experiments.coldstart import QUICK_KWARGS as COLD_QUICK
    from repro.experiments.coldstart import executor_seconds, run_coldstart

    policies: dict[str, dict[str, Any]] = {}
    for policy in _COLD_POLICIES:
        scenario = dict(_COLD_SCENARIO)
        scenario["pool_policy"] = policy
        if not quick:
            # The paper-scale default pool (2^20 slots) exceeds the
            # 10^6 total arrivals, so it can never run dry; the cold
            # bench needs a pool that saturates (the mid spectrum
            # point), or every run measures the queue path.
            scenario["workers"] = 1 << 14
        if overrides:
            scenario.update(overrides)
        runs = _scale_two_way(f"coldstart[{policy}]", quick=quick, overrides=scenario)
        heap, default = runs["heap"], runs["wheel"]
        fp = default["fingerprint"]
        policies[policy] = _versus_referee(runs)
        policies[policy].update(
            {
                "rss_ratio_vs_heap": (
                    default["peak_rss_bytes"] / heap["peak_rss_bytes"]
                    if heap["peak_rss_bytes"]
                    else 0.0
                ),
                "cold_starts": fp["cold_starts"],
                "cold_fraction": fp["cold_starts"] / max(1, fp["completed"]),
                "cold_reclaimed": fp["cold_reclaimed"],
                "cold_retained": fp["cold_retained"],
                "p99_ns": fp["latency_p99_ns"],
                "executor_seconds": executor_seconds(
                    default["workers"],
                    fp["final_now_ns"],
                    fp["cold_busy_ns"],
                    fp["cold_reclaimed"],
                    scenario["keepalive_ns"],
                ),
            }
        )
    cold = policies["cold"]
    record: dict[str, Any] = {
        "policies": policies,
        "start_model": _COLD_SCENARIO["start_model"],
        "keepalive_ns": _COLD_SCENARIO["keepalive_ns"],
        "invocations": cold["wheel"]["invocations"],
        "speedup": cold["speedup"],
        "rss_ratio_vs_heap": cold["rss_ratio_vs_heap"],
        "cold_fraction": cold["cold_fraction"],
        "p99_ns": cold["p99_ns"],
        "executor_seconds": cold["executor_seconds"],
        "bit_identical": all(p["bit_identical"] for p in policies.values()),
        "peak_rss_bytes": max(
            r["peak_rss_bytes"] for p in policies.values() for r in (p["heap"], p["wheel"])
        ),
    }
    # Secondary record: idle-reclaim on.
    reclaim_scenario = dict(_COLD_SCENARIO)
    reclaim_scenario["pool_policy"] = "cold"
    reclaim_scenario["keepalive_ns"] = _COLD_RECLAIM_KEEPALIVE_NS
    if not quick:
        reclaim_scenario["workers"] = 1 << 14
    if overrides:
        reclaim_scenario.update(overrides)
        reclaim_scenario["keepalive_ns"] = _COLD_RECLAIM_KEEPALIVE_NS
    reruns = _scale_two_way("coldstart[reclaim]", quick=quick, overrides=reclaim_scenario)
    verdict = _versus_referee(reruns)
    rfp = reruns["wheel"]["fingerprint"]
    record["reclaim"] = {
        "keepalive_ns": _COLD_RECLAIM_KEEPALIVE_NS,
        "speedup": verdict["speedup"],
        "bit_identical": verdict["bit_identical"],
        "cold_starts": rfp["cold_starts"],
        "cold_reclaimed": rfp["cold_reclaimed"],
        "cold_retained": rfp["cold_retained"],
        "wall_s": reruns["wheel"]["wall_s"],
    }
    if spectrum:
        sweep = run_coldstart(**(dict(COLD_QUICK) if quick else {}))
        record["spectrum"] = [
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
        ]
        record["spectrum_wall_s"] = sweep.wall_s
    return record


#: The 10^7-invocation cold-start stress scenario: the saturated pool
#: depth (not the unsaturated 10^7 scale stress -- a pool that never
#: runs dry exercises no cold path), so every dry arrival spins up a
#: remote-fork executor.
COLD_TEN_MILLION_KWARGS = {
    "invocations": 10_000_000,
    "workers": 1 << 16,
    "mean_arrival_gap_ns": 500,
}


def bench_coldstart_ten_million(max_rss_growth: float = 0.20) -> dict[str, Any]:
    """10^7 cold-start invocations, cold policy only: the stress run.

    Same two-way shape as :func:`bench_coldstart` for the cold policy;
    ``within_rss_guard`` asserts the default engine's peak RSS stays
    within *max_rss_growth* of the per-event heap referee on the same
    scenario.
    """
    from repro.experiments.coldstart import executor_seconds

    scenario = dict(_COLD_SCENARIO)
    scenario["pool_policy"] = "cold"
    scenario.update(COLD_TEN_MILLION_KWARGS)
    runs = _scale_two_way("coldstart10m", overrides=scenario)
    heap, default = runs["heap"], runs["wheel"]
    fp = default["fingerprint"]
    rss_ratio = (
        default["peak_rss_bytes"] / heap["peak_rss_bytes"] if heap["peak_rss_bytes"] else 0.0
    )
    record = _versus_referee(runs)
    record.update(
        {
            "invocations": default["invocations"],
            "cold_starts": fp["cold_starts"],
            "cold_fraction": fp["cold_starts"] / max(1, fp["completed"]),
            "p99_ns": fp["latency_p99_ns"],
            "executor_seconds": executor_seconds(
                default["workers"],
                fp["final_now_ns"],
                fp["cold_busy_ns"],
                fp["cold_reclaimed"],
                scenario["keepalive_ns"],
            ),
            "peak_rss_bytes": max(r["peak_rss_bytes"] for r in runs.values()),
            "rss_ratio_vs_heap": rss_ratio,
            "max_rss_growth": max_rss_growth,
            "within_rss_guard": bool(rss_ratio <= 1.0 + max_rss_growth),
        }
    )
    return record


def _multitenant_once(
    admission: str,
    quick: bool = False,
    shards: int = 1,
    parallel: int = 1,
    partitioning: str = "pinned",
    overrides: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """One multi-tenant scale run (see :func:`repro.experiments.scale.
    run_tenant_scale`).  Module-level so ``run_specs`` can fork it:
    per-engine peak RSS must be attributable to that engine."""
    from repro.experiments.multitenant import QUICK_KWARGS, run_multitenant_scale

    kwargs = dict(QUICK_KWARGS) if quick else {}
    if overrides:
        kwargs.update(overrides)
    result, host = _host_cost(
        lambda: run_multitenant_scale(
            admission=admission,
            shards=shards,
            parallel=parallel,
            partitioning=partitioning,
            **kwargs,
        )
    )
    return {
        "wall_s": result.wall_s,
        **host,
        "invocations": result.invocations,
        "workers": result.workers,
        "events_processed": result.events_processed,
        "events_per_sec": round(result.events_per_sec),
        "peak_rss_bytes": result.peak_rss_bytes,
        "stream_buckets": result.stream_buckets,
        "partitioning": partitioning,
        "admission": admission,
        "shards": shards,
        "miss_rates": {name: t.miss_rate for name, t in result.tenants.items()},
        "congestion_rates": {
            name: t.congestion_rate for name, t in result.tenants.items()
        },
        "fingerprint": result.fingerprint(),
    }


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

    The headline comparison forks the per-event heap referee and the
    default engine (the tenant FIFO recurrence; record key ``wheel``) on
    the same 10^6-invocation three-tenant scenario (pinned
    partitioning): ``speedup`` is the wall-clock ratio and
    ``bit_identical`` demands every per-tenant outcome count and
    sojourn fingerprint agree.  ``shard_identical`` re-runs the
    default engine split 2 ways and demands the merged
    fingerprint match the 1-shard run exactly (the scenario is
    unsaturated by construction).  ``isolation`` carries the 2x2
    {pinned, shared} x {calm, aggressor} matrix demonstrating the
    isolation spectrum.
    """
    runs: dict[str, dict[str, Any]] = {}
    for key, admission in _ENGINES:
        spec = RunSpec(
            factory="repro.experiments.bench:_multitenant_once",
            kwargs={"admission": admission, "quick": quick},
            label=f"multitenant[{key}]",
        )
        (outcome,) = run_specs([spec], 2)
        if isinstance(outcome, FailedPoint):
            raise RuntimeError(f"multitenant bench failed: {outcome.summary()}")
        runs[key] = outcome
    heap, default = runs["heap"], runs["wheel"]
    sharded = _multitenant_once("batch", quick=quick, shards=2, parallel=2)
    record = {
        "heap": heap,
        "wheel": default,
        "sharded": sharded,
        "invocations": default["invocations"],
        "workers": default["workers"],
        "events_processed": default["events_processed"],
        "events_per_sec": default["events_per_sec"],
        "peak_rss_bytes": max(heap["peak_rss_bytes"], default["peak_rss_bytes"]),
        "partitioning": default["partitioning"],
        "miss_rates": default["miss_rates"],
        "congestion_rates": default["congestion_rates"],
        "speedup": heap["wall_s"] / default["wall_s"] if default["wall_s"] else 0.0,
        "rss_ratio_vs_heap": (
            default["peak_rss_bytes"] / heap["peak_rss_bytes"]
            if heap["peak_rss_bytes"]
            else 0.0
        ),
        "bit_identical": heap["fingerprint"] == default["fingerprint"],
        "shard_identical": sharded["fingerprint"] == default["fingerprint"],
        "isolation": _multitenant_isolation(quick),
    }
    return record


#: The 10^7-invocation single-shard stress scenario: arrivals come 2x
#: faster than the paper-scale default but the pool is twice as deep,
#: so the run stays *unsaturated* (~10^6 in-flight leases at peak, the
#: same order as the saturated 10^6 scenario) -- memory stays within
#: the scale guard while the event count grows 10x.
TEN_MILLION_KWARGS = {
    "invocations": 10_000_000,
    "workers": 1 << 21,
    "mean_arrival_gap_ns": 500,
}


def bench_scale_ten_million(max_rss_growth: float = 0.20) -> dict[str, Any]:
    """10^7 invocations on one shard: the acceptance stress run.

    Same shape as :func:`bench_scale` (heap referee vs default engine;
    forked processes, bit-identity required), an order of magnitude
    more events.  ``within_rss_guard`` asserts the default engine's
    peak RSS stays within the regression guard's RSS allowance
    (*max_rss_growth*) of the per-event heap baseline on the *same*
    scenario -- the fast engine must not buy speed with footprint.
    """
    runs = _scale_two_way("scale10m", overrides=TEN_MILLION_KWARGS)
    heap, default = runs["heap"], runs["wheel"]
    rss_ratio = (
        default["peak_rss_bytes"] / heap["peak_rss_bytes"] if heap["peak_rss_bytes"] else 0.0
    )
    record = _versus_referee(runs)
    record.update(
        {
            "invocations": default["invocations"],
            "events_processed": default["events_processed"],
            "events_per_sec": default["events_per_sec"],
            "peak_rss_bytes": max(r["peak_rss_bytes"] for r in runs.values()),
            "rss_ratio_vs_heap": rss_ratio,
            "max_rss_growth": max_rss_growth,
            "within_rss_guard": bool(rss_ratio <= 1.0 + max_rss_growth),
        }
    )
    return record


def bench_scale_sharded(
    quick: bool = False,
    shards: int = 2,
    parallel: int = 0,
    single: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """The sharded scale engine vs. the single-process default engine.

    Decomposes the same scenario :func:`bench_scale` just timed on the
    default engine (the run record *single*) into *shards* and fans
    them out.  Dispatch is forced through forked
    workers (``max(2, resolved)``) even on one CPU, so ``peak_rss_bytes``
    is the per-shard worker high-water mark, attributable to one shard
    rather than to the whole bench process.

    ``speedup_vs_single`` is merged sharded events/sec over the
    single-process events/sec from the same bench run.  On a
    single usable CPU the fan-out serializes behind fork + IPC overhead,
    so the entry is flagged ``speedup_representative: false`` -- the
    committed number documents the environment, it does not pretend to
    a speedup the hardware cannot show.
    """
    from repro.experiments.scale import QUICK_KWARGS, run_scale_sharded

    kwargs = dict(QUICK_KWARGS) if quick else {}
    cpus = available_workers()
    dispatch_workers = max(2, resolve_workers(parallel))
    result = run_scale_sharded(shards=shards, parallel=dispatch_workers, **kwargs)
    single_rate = float((single or {}).get("events_per_sec") or 0.0)
    record = {
        "shards": shards,
        "workers": dispatch_workers,
        "cpus_available": cpus,
        "invocations": result.invocations,
        "events_processed": result.events_processed,
        "wall_s": result.wall_s,
        "serial_wall_s": result.serial_wall_s,
        "shard_walls_s": result.shard_walls_s,
        "events_per_sec": round(result.events_per_sec),
        "peak_rss_bytes": result.peak_rss_bytes,
        "stream_buckets": result.stream_buckets,
        "fingerprint": result.fingerprint(),
        "speedup_vs_single": result.events_per_sec / single_rate if single_rate else 0.0,
        "speedup_representative": cpus > 1,
    }
    if cpus <= 1:
        record["note"] = (
            "sharded fan-out measured with 1 usable CPU: shards serialize "
            "behind fork+IPC overhead; speedup_vs_single is not representative"
        )
    return record


def bench_parallel_batch(parallel: int) -> dict[str, Any]:
    """Time a quick multi-experiment batch serially, then fanned out.

    This is the number the parallel engine exists for: the same
    independent experiment runs, serial vs. ``parallel`` workers.
    """
    specs = [
        RunSpec(
            factory="repro.experiments.registry:run_experiment",
            kwargs={"experiment_id": experiment_id, "quick": True},
            index=index,
            label=experiment_id,
        )
        for index, experiment_id in enumerate(BATCH_EXPERIMENTS)
    ]

    def timed(workers: int) -> float:
        t0 = time.perf_counter()
        outcomes = run_specs(specs, workers)
        wall = time.perf_counter() - t0
        failed = [o for o in outcomes if isinstance(o, FailedPoint)]
        if failed:
            raise RuntimeError(f"batch experiment failed: {failed[0].summary()}")
        return wall

    serial_s = timed(1)
    parallel_s = timed(parallel)
    cpus = available_workers()
    record = {
        "experiments": list(BATCH_EXPERIMENTS),
        "workers": parallel,
        "cpus_available": cpus,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s else 0.0,
        "peak_rss_bytes": _rss_tree(),
        # On a single usable CPU the "parallel" run just adds worker
        # startup + IPC on top of serialized execution, so the speedup
        # says nothing about the engine.  Flag it so trajectory readers
        # (and CI) know which entries are comparable.
        "speedup_representative": cpus > 1,
    }
    if cpus <= 1:
        record["note"] = "speedup measured with 1 usable CPU; not representative"
    return record


def bench_cache_batch(
    cache_dir: Optional[str] = None, experiments: tuple[str, ...] = BATCH_EXPERIMENTS
) -> dict[str, Any]:
    """Cold-vs-warm wall clock for the experiment batch through the cache.

    Runs the quick batch twice against one result cache: the first pass
    misses everywhere and pays full simulation cost, the second is
    answered from disk.  Results must be bit-identical (compared via
    the same JSON projection the archive uses); the headline is
    ``speedup = cold_s / warm_s``.  Uses a throwaway cache directory
    unless *cache_dir* is given, so timed runs never reuse stale state.
    """
    import shutil
    import tempfile

    from repro.cache import ResultCache
    from repro.experiments.io import to_jsonable

    specs = [
        RunSpec(
            factory="repro.experiments.registry:run_experiment",
            kwargs={"experiment_id": experiment_id, "quick": True},
            index=index,
            label=experiment_id,
        )
        for index, experiment_id in enumerate(experiments)
    ]

    owns_dir = cache_dir is None
    root = cache_dir or tempfile.mkdtemp(prefix="repro-cache-bench-")
    try:
        cache = ResultCache(root)

        def timed(label: str) -> tuple[float, list[Any]]:
            t0 = time.perf_counter()
            outcomes = run_specs(specs, 1, cache=cache)
            wall = time.perf_counter() - t0
            failed = [o for o in outcomes if isinstance(o, FailedPoint)]
            if failed:
                raise RuntimeError(f"{label} batch experiment failed: {failed[0].summary()}")
            return wall, outcomes

        cold_s, cold = timed("cold")
        warm_s, warm = timed("warm")
        stats = cache.stats()
        return {
            "experiments": list(experiments),
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": cold_s / warm_s if warm_s else 0.0,
            "bit_identical": to_jsonable(cold) == to_jsonable(warm),
            "hits": stats["session"]["hits"],
            "misses": stats["session"]["misses"],
            "bytes_read": stats["session"]["bytes_read"],
            "bytes_written": stats["session"]["bytes_written"],
            "peak_rss_bytes": _rss_tree(),
        }
    finally:
        if owns_dir:
            shutil.rmtree(root, ignore_errors=True)


def run_bench(
    quick: bool = False, parallel: int = 1, shards: int = 2, ten_million: bool = False
) -> dict[str, Any]:
    """Run all three hot-loop benchmarks; returns a JSON-ready dict.

    Every entry records its execution environment (``shards``,
    ``workers``, ``cpus_available``) so trajectory comparisons know
    which entries were measured under comparable decompositions.
    *ten_million* additionally runs the 10^7-invocation stress scenario
    (several minutes of wall clock; meant for recorded trajectory
    entries, not CI quick runs).  ``perf_counters`` covers every entry:
    counting stays on for the whole bench, and forked runs ship their
    counters back through :mod:`repro.parallel`.
    """
    repeats = 3 if quick else 9
    perf.reset()
    perf.enable()
    try:
        results = {
            "kernel_event_throughput": bench_kernel(repeats, parallel),
            "rdma_pingpong": bench_pingpong(max(3, repeats - 2), parallel),
            "invocation": bench_invocation(max(3, repeats - 4), parallel),
        }
        if parallel != 1:
            results["parallel_batch"] = bench_parallel_batch(parallel)
        results["cache_batch"] = bench_cache_batch()
        results["scale_openloop"] = bench_scale(quick)
        results["control_plane"] = bench_control(quick)
        results["coldstart"] = bench_coldstart(quick)
        results["multitenant"] = bench_multitenant(quick)
        if shards > 1:
            results["scale_sharded"] = bench_scale_sharded(
                quick, shards=shards, parallel=parallel,
                single=results["scale_openloop"]["wheel"],
            )
        if ten_million:
            results["scale_10m"] = bench_scale_ten_million()
            results["coldstart_10m"] = bench_coldstart_ten_million()
    finally:
        perf.disable()
    results["perf_counters"] = perf.snapshot()
    results["shards"] = shards
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


def check_regression(
    results: dict[str, Any],
    baseline_path: str,
    baseline_label: Optional[str],
    max_regression: float = 0.30,
    max_rss_growth: float = 0.20,
) -> list[str]:
    """Compare *results* against a committed trajectory entry.

    Guards the DES kernel's ``events_per_sec`` (the one figure every
    hot-path PR moves): a drop of more than *max_regression* versus the
    baseline entry is reported as a failure string.  Also guards peak
    RSS: growth beyond *max_rss_growth* versus the baseline fails --
    the scale engine's whole point is bounded memory, so a quiet
    footprint regression is as real as a throughput one.  Baselines
    recorded before RSS tracking simply lack the key and skip that
    check (old entries stay usable as throughput baselines).

    Returns a list of problems, empty when the run is clean; a missing
    baseline file or entry is itself a problem (a silently absent guard
    guards nothing).
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
    problems = []
    try:
        base_rate = float(entry["kernel_event_throughput"]["events_per_sec"])
        current_rate = float(results["kernel_event_throughput"]["events_per_sec"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"baseline/current entries missing kernel_event_throughput: {exc}"]
    floor = base_rate * (1.0 - max_regression)
    if current_rate < floor:
        problems.append(
            f"kernel_event_throughput.events_per_sec {current_rate:,.0f} is "
            f"{1 - current_rate / base_rate:.1%} below baseline {label!r} "
            f"({base_rate:,.0f}; allowed drop {max_regression:.0%})"
        )
    base_scale = entry.get("scale_openloop")
    current_scale = results.get("scale_openloop")
    if isinstance(base_scale, dict) and isinstance(current_scale, dict):
        base_rss = base_scale.get("peak_rss_bytes")
        current_rss = current_scale.get("peak_rss_bytes")
        if base_rss and current_rss:
            ceiling = float(base_rss) * (1.0 + max_rss_growth)
            if float(current_rss) > ceiling:
                problems.append(
                    f"scale_openloop.peak_rss_bytes {current_rss:,} is "
                    f"{current_rss / base_rss - 1:.1%} above baseline {label!r} "
                    f"({base_rss:,}; allowed growth {max_rss_growth:.0%})"
                )
    # The 10^7 stress entry carries its own RSS verdict (default engine
    # vs heap-per-event on the same scenario, same forked-process
    # measurement); when the run recorded one, a breach fails here.
    current_10m = results.get("scale_10m")
    if isinstance(current_10m, dict) and current_10m.get("within_rss_guard") is False:
        problems.append(
            "scale_10m: default-engine peak RSS is "
            f"{current_10m.get('rss_ratio_vs_heap', 0.0):.2f}x the per-event heap "
            "baseline, beyond the allowed "
            f"{1.0 + float(current_10m.get('max_rss_growth', 0.0)):.2f}x"
        )
    # The control-plane kernel's whole claim is brokering leases faster
    # than the per-event referee: guard its grant throughput like the
    # DES kernel's events/sec, and fail outright if the drivers stopped
    # agreeing (a wrong fast answer is not a perf win).  Baselines
    # recorded before the control bench existed lack the key and skip.
    base_control = entry.get("control_plane")
    current_control = results.get("control_plane")
    if isinstance(current_control, dict) and current_control.get("bit_identical") is False:
        problems.append(
            "control_plane: kernel and reference driver fingerprints diverged"
        )
    if isinstance(base_control, dict) and isinstance(current_control, dict):
        try:
            base_rate = float(base_control["grants_per_sec"])
            current_rate = float(current_control["grants_per_sec"])
        except (KeyError, TypeError, ValueError):
            base_rate = current_rate = 0.0
        if base_rate and current_rate < base_rate * (1.0 - max_regression):
            problems.append(
                f"control_plane.grants_per_sec {current_rate:,.0f} is "
                f"{1 - current_rate / base_rate:.1%} below baseline {label!r} "
                f"({base_rate:,.0f}; allowed drop {max_regression:.0%})"
            )
    # The cold-start engine's correctness guard: a wrong fast answer is
    # not a perf win, so fingerprint divergence between the default
    # engine and the per-event referee fails outright.  The cold-start
    # *fraction* is guarded too: on the pinned quick scenario it is a
    # deterministic output, so a fraction ballooning past 4x the
    # baseline means the warm-pool accounting broke (slots leaking,
    # reclaim tearing down busy executors) even if every engine still
    # agrees with every other.  Baselines recorded before the cold
    # bench existed lack the key and skip both checks.
    base_cold = entry.get("coldstart")
    current_cold = results.get("coldstart")
    if isinstance(current_cold, dict) and current_cold.get("bit_identical") is False:
        problems.append(
            "coldstart: default engine and per-event referee fingerprints diverged"
        )
    if isinstance(current_cold, dict):
        reclaim = current_cold.get("reclaim")
        if isinstance(reclaim, dict) and reclaim.get("bit_identical") is False:
            problems.append(
                "coldstart.reclaim: the default engine diverged from the "
                "per-event referee under keepalive"
            )
    if isinstance(base_cold, dict) and isinstance(current_cold, dict):
        base_cf = base_cold.get("cold_fraction")
        current_cf = current_cold.get("cold_fraction")
        if base_cf and current_cf is not None and float(current_cf) > 4.0 * float(base_cf):
            problems.append(
                f"coldstart.cold_fraction {float(current_cf):.4f} is more than 4x "
                f"baseline {label!r} ({float(base_cf):.4f}) -- warm-pool "
                "accounting regressed (slots leaking or reclaim misfiring)"
            )
    current_cold_10m = results.get("coldstart_10m")
    if isinstance(current_cold_10m, dict):
        if current_cold_10m.get("bit_identical") is False:
            problems.append(
                "coldstart_10m: default engine and per-event referee fingerprints diverged"
            )
        if current_cold_10m.get("within_rss_guard") is False:
            problems.append(
                "coldstart_10m: default-engine peak RSS is "
                f"{current_cold_10m.get('rss_ratio_vs_heap', 0.0):.2f}x the per-event "
                "heap referee, beyond the allowed "
                f"{1.0 + float(current_cold_10m.get('max_rss_growth', 0.0)):.2f}x"
            )
    # Multi-tenant scale engine guards.  Correctness first: the default
    # engine, the per-event heap referee, and the K=2 shard split
    # must agree on every per-tenant outcome count and sojourn
    # fingerprint -- a divergence is a wrong answer, not a slow one,
    # and fails outright with no baseline needed.  Isolation is a
    # structural property of `pinned` partitioning (private partition +
    # independent per-tenant streams), so its collapse also fails
    # outright.  The per-tenant deadline-miss rates on the pinned quick
    # scenario are deterministic outputs: any tenant's rate ballooning
    # past 4x the baseline means admission or pool accounting broke
    # even if every engine still agrees with every other.  Baselines
    # recorded before this bench existed lack the key and skip; tenants
    # absent from the baseline mix are skipped too.
    base_mt = entry.get("multitenant")
    current_mt = results.get("multitenant")
    if isinstance(current_mt, dict):
        if current_mt.get("bit_identical") is False:
            problems.append(
                "multitenant: default engine and per-event heap referee "
                "per-tenant fingerprints diverged"
            )
        if current_mt.get("shard_identical") is False:
            problems.append(
                "multitenant: K=2 shard split no longer merges bit-identical "
                "to the single-shard run"
            )
        isolation = current_mt.get("isolation")
        if isinstance(isolation, dict) and isolation.get("isolated") is False:
            problems.append(
                "multitenant.isolation: pinned partitioning no longer "
                "insulates the victim tenant from a bursty co-tenant"
            )
    if isinstance(base_mt, dict) and isinstance(current_mt, dict):
        base_rates = base_mt.get("miss_rates")
        current_rates = current_mt.get("miss_rates")
        if isinstance(base_rates, dict) and isinstance(current_rates, dict):
            for tenant, base_rate in base_rates.items():
                current_rate = current_rates.get(tenant)
                if current_rate is None:
                    continue  # tenant absent from this run's mix: skip
                if float(base_rate) and float(current_rate) > 4.0 * float(base_rate):
                    problems.append(
                        f"multitenant.miss_rates[{tenant!r}] "
                        f"{float(current_rate):.4f} is more than 4x baseline "
                        f"{label!r} ({float(base_rate):.4f}) -- per-tenant "
                        "admission or pool accounting regressed"
                    )
        try:
            base_rate = float(base_mt["events_per_sec"])
            current_rate = float(current_mt["events_per_sec"])
        except (KeyError, TypeError, ValueError):
            base_rate = current_rate = 0.0
        if base_rate and current_rate < base_rate * (1.0 - max_regression):
            problems.append(
                f"multitenant.events_per_sec {current_rate:,.0f} is "
                f"{1 - current_rate / base_rate:.1%} below baseline {label!r} "
                f"({base_rate:,.0f}; allowed drop {max_regression:.0%})"
            )
    # Sharded throughput is only comparable between identical
    # decompositions: a 2-shard and a 4-shard run simulate different
    # per-environment workloads, so mismatched shard counts (or a
    # baseline recorded before sharding existed) skip this guard
    # rather than fabricate a regression.  Entries flagged
    # speedup_representative=false (single-CPU fan-out serialized
    # behind fork+IPC) carry rates dominated by dispatch noise, not by
    # the engine, so they are recorded but never guarded against.
    base_sharded = entry.get("scale_sharded")
    current_sharded = results.get("scale_sharded")
    if (
        isinstance(base_sharded, dict)
        and isinstance(current_sharded, dict)
        and base_sharded.get("shards") == current_sharded.get("shards")
        and base_sharded.get("workers") == current_sharded.get("workers")
        and base_sharded.get("speedup_representative")
        and current_sharded.get("speedup_representative")
    ):
        try:
            base_rate = float(base_sharded["events_per_sec"])
            current_rate = float(current_sharded["events_per_sec"])
        except (KeyError, TypeError, ValueError):
            base_rate = current_rate = 0.0
        if base_rate and current_rate < base_rate * (1.0 - max_regression):
            problems.append(
                f"scale_sharded.events_per_sec {current_rate:,.0f} is "
                f"{1 - current_rate / base_rate:.1%} below baseline {label!r} "
                f"({base_rate:,.0f}; allowed drop {max_regression:.0%}; "
                f"both at {base_sharded.get('shards')} shards)"
            )
    return problems


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
    batch = results.get("parallel_batch")
    if batch:
        line = (
            "parallel_batch: {n} experiments  serial {serial_s:.1f}s -> "
            "{workers} workers {parallel_s:.1f}s  ({speedup:.2f}x, {cpus_available} cpus)".format(
                n=len(batch["experiments"]), **batch
            )
        )
        if not batch.get("speedup_representative", True):
            line += "  [NOT representative: 1 cpu]"
        print(line)
    cached = results.get("cache_batch")
    if cached:
        print(
            "cache_batch: {n} experiments  cold {cold_s:.1f}s -> warm {warm_s:.2f}s  "
            "({speedup:.1f}x, bit_identical={bit_identical}, "
            "{hits} hits/{misses} misses)".format(n=len(cached["experiments"]), **cached)
        )
    scale = results.get("scale_openloop")
    if scale:
        line = (
            "scale_openloop: {invocations:,} invocations  heap {heap_s:.1f}s -> "
            "default {default_s:.1f}s  ({speedup:.2f}x, {events_per_sec:,} events/s, "
            "peak RSS {rss_mib:.0f} MiB, {faults:,} minor faults, "
            "bit_identical={bit_identical})".format(
                invocations=scale["invocations"],
                heap_s=scale["heap"]["wall_s"],
                default_s=scale["wheel"]["wall_s"],
                faults=scale["wheel"]["minor_faults"],
                speedup=scale["speedup"],
                events_per_sec=scale["events_per_sec"],
                rss_mib=scale["peak_rss_bytes"] / 2**20,
                bit_identical=scale["bit_identical"],
            )
        )
        print(line)
    stress = results.get("scale_10m")
    if stress:
        print(
            "scale_10m: {invocations:,} invocations  heap {heap_s:.1f}s -> "
            "default {default_s:.1f}s  ({speedup:.2f}x, {events_per_sec:,} events/s, "
            "RSS {rss_ratio:.2f}x heap [guard {guard}], "
            "bit_identical={bit_identical})".format(
                invocations=stress["invocations"],
                heap_s=stress["heap"]["wall_s"],
                default_s=stress["wheel"]["wall_s"],
                speedup=stress["speedup"],
                events_per_sec=stress["events_per_sec"],
                rss_ratio=stress["rss_ratio_vs_heap"],
                guard="ok" if stress["within_rss_guard"] else "BREACHED",
                bit_identical=stress["bit_identical"],
            )
        )
    control = results.get("control_plane")
    if control:
        print(
            "control_plane: {lease_events:,} lease events / {executors:,} executors  "
            "reference {ref_s:.1f}s -> kernel {kernel_s:.1f}s  ({speedup:.2f}x, "
            "{grants_per_sec:,} grants/s, peak {peak:,} active leases, "
            "bit_identical={bit_identical}, rss_ok={rss_ok})".format(
                lease_events=control["lease_events"],
                executors=control["executors"],
                ref_s=control["reference"]["wall_s"],
                kernel_s=control["kernel"]["wall_s"],
                speedup=control["speedup"],
                grants_per_sec=control["grants_per_sec"],
                peak=control["gauges"]["leases_active_peak"],
                bit_identical=control["bit_identical"],
                rss_ok=control["rss_ok"],
            )
        )
    coldstart = results.get("coldstart")
    if coldstart:
        cold = coldstart["policies"]["cold"]
        print(
            "coldstart: {invocations:,} invocations (cold policy, {model})  "
            "heap {heap_s:.1f}s -> default {default_s:.1f}s  ({speedup:.2f}x, "
            "cold fraction {cold_fraction:.1%}, "
            "RSS {rss_ratio:.2f}x heap, bit_identical={bit_identical})".format(
                invocations=coldstart["invocations"],
                model=coldstart["start_model"],
                heap_s=cold["heap"]["wall_s"],
                default_s=cold["wheel"]["wall_s"],
                speedup=coldstart["speedup"],
                cold_fraction=coldstart["cold_fraction"],
                rss_ratio=coldstart["rss_ratio_vs_heap"],
                bit_identical=coldstart["bit_identical"],
            )
        )
        reclaim = coldstart.get("reclaim")
        if reclaim:
            print(
                "  reclaim (keepalive {ka_ms:.0f} ms): {speedup:.2f}x vs heap, "
                "{reclaimed:,} reclaimed / {retained:,} retained, "
                "bit_identical={bit_identical}".format(
                    ka_ms=reclaim["keepalive_ns"] / 1e6,
                    speedup=reclaim["speedup"],
                    reclaimed=reclaim["cold_reclaimed"],
                    retained=reclaim["cold_retained"],
                    bit_identical=reclaim["bit_identical"],
                )
            )
        spectrum = coldstart.get("spectrum")
        if spectrum:
            verified = sum(1 for p in spectrum if p.get("bit_identical"))
            print(
                "  spectrum: {n} points (pool x start model x arrival shape), "
                "{verified} heap-verified, {wall:.1f}s wall".format(
                    n=len(spectrum),
                    verified=verified,
                    wall=coldstart.get("spectrum_wall_s", 0.0),
                )
            )
    cold_stress = results.get("coldstart_10m")
    if cold_stress:
        print(
            "coldstart_10m: {invocations:,} invocations  heap {heap_s:.1f}s -> "
            "default {default_s:.1f}s  ({speedup:.2f}x, cold fraction "
            "{cold_fraction:.1%}, RSS {rss_ratio:.2f}x heap [guard {guard}], "
            "bit_identical={bit_identical})".format(
                invocations=cold_stress["invocations"],
                heap_s=cold_stress["heap"]["wall_s"],
                default_s=cold_stress["wheel"]["wall_s"],
                speedup=cold_stress["speedup"],
                cold_fraction=cold_stress["cold_fraction"],
                rss_ratio=cold_stress["rss_ratio_vs_heap"],
                guard="ok" if cold_stress["within_rss_guard"] else "BREACHED",
                bit_identical=cold_stress["bit_identical"],
            )
        )
    sharded = results.get("scale_sharded")
    if sharded:
        line = (
            "scale_sharded: {invocations:,} invocations over {shards} shards  "
            "batch {wall_s:.1f}s  ({events_per_sec:,} events/s, "
            "{speedup_vs_single:.2f}x vs single default, {workers} workers/"
            "{cpus_available} cpus, peak shard RSS {rss_mib:.0f} MiB)".format(
                rss_mib=sharded["peak_rss_bytes"] / 2**20, **sharded
            )
        )
        if not sharded.get("speedup_representative", True):
            line += "  [NOT representative: 1 cpu]"
        print(line)
    mt = results.get("multitenant")
    if mt:
        print(
            "multitenant: {invocations:,} invocations / {tenants} tenants "
            "({partitioning})  heap {heap_s:.1f}s -> default {default_s:.1f}s  "
            "({speedup:.2f}x, {events_per_sec:,} events/s, RSS "
            "{rss_ratio:.2f}x heap, bit_identical={bit_identical}, "
            "shard_identical={shard_identical})".format(
                invocations=mt["invocations"],
                tenants=len(mt.get("miss_rates", {})),
                partitioning=mt["partitioning"],
                heap_s=mt["heap"]["wall_s"],
                default_s=mt["wheel"]["wall_s"],
                speedup=mt["speedup"],
                events_per_sec=mt["events_per_sec"],
                rss_ratio=mt["rss_ratio_vs_heap"],
                bit_identical=mt["bit_identical"],
                shard_identical=mt["shard_identical"],
            )
        )
        for tenant, rate in mt.get("miss_rates", {}).items():
            print(
                "  {tenant:<18} miss {rate:.2%}  congestion {cong:.2%}".format(
                    tenant=tenant,
                    rate=rate,
                    cong=mt.get("congestion_rates", {}).get(tenant, 0.0),
                )
            )
        iso = mt.get("isolation")
        if iso:
            print(
                "  isolation: pinned victim flat={flat}  shared victim p99 "
                "x{ratio:.1f} under bursty co-tenant  (isolated={isolated})".format(
                    flat=iso["pinned_victim_flat"],
                    ratio=iso["shared_victim_p99_ratio"],
                    isolated=iso["isolated"],
                )
            )
