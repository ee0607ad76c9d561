"""Cold-start spectrum sweep: what does provisioned concurrency buy?

The paper's Fig. 9 measures *one* cold start (bare-metal ~25 ms vs
Docker ~2.7 s); MITOSIS ("No Provisioned Concurrency", PAPERS.md)
argues an RDMA remote-fork start path (~1 ms) collapses the
warm-vs-cold tradeoff entirely.  This experiment asks the question at
scale: drive the open-loop scenario (10^6 invocations by default) over
the spectrum {provisioned pool size x start model x arrival shape}
with a dry-pool cold-start policy, and report per point

* the **cold-start fraction** -- how many invocations paid a spawn,
* the **p95/p99 sojourn** -- what the tail felt like,
* the **executor-seconds provisioned** -- what the capacity cost:
  ``pool x simulated span`` for the warm slots, plus the busy time the
  cold starts bought, plus the keepalive each reclaimed cold executor
  idled before teardown.

Together these are the capacity-planning tool the ROADMAP envisions: a
small pool + remote-fork buys Docker-pool tail latency at a fraction
of the executor-seconds, while a Docker cold path needs a pool ~the
full concurrency to hide its 2.7 s spawns.

Engine notes: every point runs the scale experiment's default engine
(batch admission): the reduced-event walk for the ``cold``/``hybrid``
policies, the exact FIFO recurrence for ``queue`` (see
:mod:`repro.experiments.scale`).  ``verify=True`` replays each point on
the per-event heap referee and records bit-identity.  Profiling a
sweep is refused with a pointer at the single-run path -- see
``--profile`` on the ``scale`` experiment, which covers the walk
(``scale --pool-policy cold --profile``).

Run it::

    python -m repro.experiments coldstart --quick
    python -m repro.experiments coldstart --pool-policy hybrid
    python -m repro.experiments scale --pool-policy cold --profile
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.analysis.reporting import Table, format_ns
from repro.core.sandbox import SANDBOX_PROFILES
from repro.experiments.scale import run_scale
from repro.sim.clock import us


@dataclass(frozen=True)
class ColdstartPoint:
    """One spectrum point: a full open-loop run's cold-start economics."""

    pool_size: int
    start_model: str
    arrival_shape: str
    spawn_ns: int
    invocations: int
    cold_starts: int
    cold_fraction: float
    cold_reclaimed: int
    cold_retained: int
    max_backlog: int
    p50_ns: int
    p95_ns: int
    p99_ns: int
    #: Capacity cost: warm-pool slot-time + cold busy time + keepalive
    #: idled by reclaimed cold executors, in seconds of executor time.
    executor_seconds: float
    wall_s: float
    events_per_sec: float
    #: Heap-referee agreement (``None`` unless ``verify=True``).
    bit_identical: Optional[bool] = None


@dataclass
class ColdstartResult:
    """The swept spectrum plus the scenario-level knobs."""

    invocations: int
    pool_policy: str
    keepalive_ns: int
    points: list[ColdstartPoint] = field(default_factory=list)
    wall_s: float = 0.0

    def fingerprint(self) -> dict[str, Any]:
        """Simulated-domain outputs per point -- admission-independent."""
        out: dict[str, Any] = {}
        for p in self.points:
            key = f"pool={p.pool_size}|model={p.start_model}|shape={p.arrival_shape}"
            out[key] = {
                "cold_starts": p.cold_starts,
                "cold_reclaimed": p.cold_reclaimed,
                "cold_retained": p.cold_retained,
                "max_backlog": p.max_backlog,
                "p50_ns": p.p50_ns,
                "p95_ns": p.p95_ns,
                "p99_ns": p.p99_ns,
            }
        return out

    def table(self) -> Table:
        table = Table(
            f"Cold-start spectrum -- {self.invocations:,} invocations, "
            f"policy={self.pool_policy}, keepalive={format_ns(self.keepalive_ns)} "
            "(default engine)",
            [
                "pool",
                "start model",
                "arrivals",
                "cold %",
                "p95",
                "p99",
                "exec-sec",
                "verified",
            ],
        )
        for p in self.points:
            table.add_row(
                f"{p.pool_size:,}",
                p.start_model,
                p.arrival_shape,
                f"{100.0 * p.cold_fraction:.2f}%",
                format_ns(p.p95_ns),
                format_ns(p.p99_ns),
                f"{p.executor_seconds:,.1f}",
                {True: "yes", False: "MISMATCH"}.get(p.bit_identical, "-"),
            )
        return table


def executor_seconds(
    workers: int, final_now_ns: int, cold_busy_ns: int, cold_reclaimed: int, keepalive_ns: int
) -> float:
    """Executor-seconds provisioned for one run.

    Warm slots are paid for the whole simulated span whether busy or
    not (that is what "provisioned" means); cold executors are paid
    for their spawn+service busy time, plus -- when idle-reclaim is on
    -- the keepalive each reclaimed one idled before teardown.
    Retained cold executors have already been counted busy.
    """
    return (
        workers * final_now_ns + cold_busy_ns + cold_reclaimed * keepalive_ns
    ) / 1e9


def run_coldstart(
    invocations: int = 1_000_000,
    pool_sizes: tuple = (1 << 12, 1 << 14, 1 << 16),
    start_models: tuple = ("remote-fork", "microvm", "bare-metal", "docker"),
    arrival_shapes: tuple = ("poisson", "bursty"),
    pool_policy: str = "cold",
    keepalive_ns: int = 0,
    hybrid_threshold: int = 64,
    mean_arrival_gap_ns: int = 250,
    seed: int = 0x0C01D,
    verify: bool = False,
    profile: Union[bool, str, None] = None,
) -> ColdstartResult:
    """Sweep the cold-start spectrum and fold the per-point economics.

    Every point is one full open-loop run (:func:`run_scale`) with the
    dry-pool cold-start path enabled; non-Poisson shapes route through
    the sharded engine exactly as ``scale`` does.  ``verify=True``
    replays each point on the per-event heap referee and asserts the
    fingerprints agree (recorded per point, raising on mismatch).

    ``keepalive_ns`` defaults to 0 -- no idle-reclaim.  Pass a positive
    keepalive to let the pool breathe under bursty/diurnal shapes; the
    default engine then fires reclaims in the referee's order and stays
    bit-identical to it (see ``scale``).
    """
    if profile:
        raise ValueError(
            "coldstart sweeps many runs and cannot profile them as one; "
            "profile the cold driver on a single run instead: "
            "python -m repro.experiments scale --pool-policy cold --profile"
        )
    unknown = [model for model in start_models if model not in SANDBOX_PROFILES]
    if unknown:
        raise ValueError(
            f"unknown start model(s) {unknown}; choose from {sorted(SANDBOX_PROFILES)}"
        )
    points: list[ColdstartPoint] = []
    started = time.perf_counter()
    for shape in arrival_shapes:
        for pool in pool_sizes:
            for model in start_models:
                kwargs = dict(
                    invocations=invocations,
                    workers=pool,
                    seed=seed,
                    mean_arrival_gap_ns=mean_arrival_gap_ns,
                    arrival_shape=shape,
                    pool_policy=pool_policy,
                    start_model=model,
                    keepalive_ns=keepalive_ns,
                    hybrid_threshold=hybrid_threshold,
                )
                result = run_scale(**kwargs)
                bit_identical: Optional[bool] = None
                if verify:
                    referee = run_scale(**kwargs, admission="per-event")
                    bit_identical = referee.fingerprint() == result.fingerprint()
                    if not bit_identical:
                        raise RuntimeError(
                            "cold-start fingerprint mismatch vs heap referee at "
                            f"pool={pool} model={model} shape={shape}"
                        )
                points.append(
                    ColdstartPoint(
                        pool_size=pool,
                        start_model=model,
                        arrival_shape=shape,
                        spawn_ns=SANDBOX_PROFILES[model].spawn_ns(1),
                        invocations=result.invocations,
                        cold_starts=result.cold_starts,
                        cold_fraction=result.cold_starts / max(1, result.completed),
                        cold_reclaimed=result.cold_reclaimed,
                        cold_retained=result.cold_retained,
                        max_backlog=result.max_backlog,
                        p50_ns=result.latency.median,
                        p95_ns=result.latency.p95,
                        p99_ns=result.latency.p99,
                        executor_seconds=executor_seconds(
                            pool,
                            result.final_now_ns,
                            result.cold_busy_ns,
                            result.cold_reclaimed,
                            keepalive_ns,
                        ),
                        wall_s=result.wall_s,
                        events_per_sec=result.events_per_sec,
                        bit_identical=bit_identical,
                    )
                )
    return ColdstartResult(
        invocations=invocations,
        pool_policy=pool_policy,
        keepalive_ns=keepalive_ns,
        points=points,
        wall_s=time.perf_counter() - started,
    )


#: Quick (CI) spectrum: small pools saturate within the burst so the
#: cold path is exercised hard, and the heap referee re-runs every
#: point (verify) -- the smoke contract of the cold-start engine.
QUICK_KWARGS = {
    "invocations": 6_000,
    "pool_sizes": (64, 512),
    "start_models": ("remote-fork", "docker"),
    "arrival_shapes": ("poisson",),
    "mean_arrival_gap_ns": us(25),
    "verify": True,
}
