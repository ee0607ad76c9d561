"""Million-invocation open-loop load harness (the scale engine demo).

The paper's pitch is *high-performance* serverless: a cluster absorbing
enormous bursts of sub-millisecond invocations under leases.  The
figure harnesses drive at most ~10^5 events; this one drives
**>= 10^6 invocations** through the simulator in a single run.

Model -- an open-loop generator over a warm executor pool:

* **Arrivals** are Poisson (exponential inter-arrival gaps), drawn in
  pre-batched numpy chunks -- the same recipe as
  :mod:`repro.cluster.trace_gen`, rescaled from batch jobs to
  serverless invocations.  Open loop: the arrival process never waits
  for completions, so overload shows up as queueing delay (the honest
  way to measure tail latency; closed loops coordinate-omit).
* **Service** times are log-normal with clipping, again the trace_gen
  shape scaled to the paper's function-duration range.
* **The pool** is ``workers`` warm executor slots.  A free slot starts
  the invocation immediately; otherwise the arrival waits in a FIFO
  backlog and its sojourn time includes the queueing delay.
* **Leases**: every running invocation holds a lease on its slot and
  re-validates it every ``lease_check_interval_ns`` (Sec. III-E: leased
  resources are periodically re-checked rather than centrally tracked).
  The lease timer is one event *reused* across renewals -- re-armed in
  place via ``schedule_timeout`` -- so a 400 ms invocation costs ~8
  scheduler operations and zero per-renewal allocations.  The final
  re-arm lands exactly on the finish time, so sojourn times are exact,
  not quantized to the check interval.

Engines -- which one runs is fixed by the knobs the caller already
passes (see ``_simulate``); no engine builds an environment under batch
admission, the default:

* ``pool_policy="queue"`` walks no events at all.  Under a FIFO backlog
  no output depends on event interleaving, so :class:`_FifoDriver`
  computes the run as an exact c-server FIFO recurrence and derives the
  event count in closed form.  Multi-tenant ``queue`` runs on a
  ``shared`` or ``pinned`` plan do the same (:class:`_TenantFifo`): one
  recurrence over the merged calendar for the shared tier, one per
  tenant for pinned partitions.
* ``"cold"``/``"hybrid"`` need the event order (a dry arrival's choice
  reads the backlog, a reclaim reads the idle slots), but not the lease
  renewals: :class:`_PoolWalk` fires only completions, spin-up readies
  and reclaims, in the referee's order, and counts renewals in closed
  form.  Multi-tenant runs under these policies, and ``overflow`` plans
  under any (a pinned completion serves its own tenant ahead of older
  shared waiters), take :class:`_TenantWalk`, the same walk over
  per-tenant pools.
* ``admission="per-event"`` walks every event on the heap
  :class:`~repro.sim.core.Environment`: the referees the fast engines
  are checked against, fingerprint for fingerprint.

Implementation notes for the per-event referees (hot loops):

* The driver is a callback FSM, not generator processes: no Python
  frames parked on ``yield``, just reused timer events carrying an
  integer finish time as their value.
* Sojourn latency is fully determined at dispatch (queue wait +
  service), so it is recorded *at start* into a bounded flush buffer
  feeding :class:`repro.analysis.streams.StreamingSummary`: memory
  stays O(histogram buckets), not O(invocations).
* The automatic GC is suspended around ``env.run()`` (after a full
  collect): the FSM allocates no reference cycles, and generational
  scans over ~10^6 live timers otherwise cost ~15% of the run.

Sharding (PR 5) -- one scenario, many cores:

The classes below run one environment on one core.  ``run_scale_sharded``
decomposes the *same* scenario into K shards, each a full open-loop
simulation over a slice of the warm pool and a deterministic share of
the arrival stream, runs them in forked processes via
:mod:`repro.parallel`, and folds the per-shard streaming accumulators
back with the exact ``merge`` paths.  Two decompositions:

* ``partition`` (default): every shard replays the **global** arrival
  and service streams (seeded by the scenario root) and keeps arrivals
  whose index is ``shard (mod K)`` -- a systematic thinning of the one
  true process.  Exact: when the pool never saturates, the K-shard
  merged result is bit-identical to the 1-shard run, because the same
  multiset of (arrival, service) pairs flows through, just in separate
  environments.
* ``thin``: shard k draws its own streams from
  ``derive_seed(root, "shard", k)`` at 1/K of the rate -- no redundant
  global generation, statistically the same superposed process, but a
  different realization per K.

Either way a shard depends only on ``(spec, k)``: K shards on 1 worker
are bit-identical to K shards on K workers, and the result cache keys
each shard spec individually, so repeated or resumed sharded runs are
incremental.

Run it::

    python -m repro.experiments scale            # paper scale, 10^6
    python -m repro.experiments scale --quick    # CI-sized, 10^4
    python -m repro.experiments scale --shards 4 --parallel auto
"""

from __future__ import annotations

import gc
import resource
import time
from collections import deque
from heapq import heappop, heappush
from itertools import chain
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Union

import numpy as np

from repro import perf
from repro.analysis.latency import FifoServers
from repro.analysis.reporting import Table, format_bytes, format_ns
from repro.analysis.stats import SummaryStats
from repro.analysis.streams import KeyedStreamingSummary, StreamingSummary
from repro.core.sandbox import SANDBOX_PROFILES
from repro.perf.malloc import pin_thresholds
from repro.sim.arrivals import DIURNAL_DAY, arrival_times, merge_tenant_streams
from repro.sim.events import BatchEvent
from repro.sim.clock import ms, us
from repro.sim.core import Environment
from repro.sim.rng import RngStreams, shard_seed
from repro.workloads.tenants import TenantSpec, split_by_weights, standard_mix

#: Latencies buffered before a vectorized flush into the streaming
#: summary -- the only per-sample storage, bounded regardless of run
#: length.
_FLUSH_BATCH = 1 << 16
#: Pre-drawn RNG chunk size (amortizes numpy call overhead).
_RNG_CHUNK = 1 << 16
#: Priority of the referees' arrival events, one below NORMAL: at a
#: shared nanosecond every completion, spin-up and reclaim fires before
#: the arrival, however early the arrival's eid was drawn.  The FIFO
#: recurrence and the walks follow the same rule.
_ARRIVAL_PRIO = 2


@dataclass(frozen=True)
class ScaleConfig:
    """Knobs of the open-loop scale scenario."""

    #: Total invocations to drive (the paper-scale default is 10^6).
    invocations: int = 1_000_000
    #: Warm executor slots; arrivals beyond this queue FIFO.
    workers: int = 1 << 20
    #: Mean Poisson inter-arrival gap.  The default packs the full
    #: burst into ~0.25 simulated seconds, far shorter than the median
    #: service time, so the pool fills almost completely.
    mean_arrival_gap_ns: int = 250
    #: Log-normal service time: ln(median in ns) and shape.
    #: exp(19.8) ~ 400 ms -- the upper end of the paper's function mix,
    #: chosen so in-flight invocations pile up to pool capacity.
    service_log_mean: float = 19.8
    service_log_sigma: float = 0.6
    min_service_ns: int = ms(1)
    max_service_ns: int = int(3e9)
    #: Period of the in-flight lease re-validation timer.
    lease_check_interval_ns: int = ms(64)
    seed: int = 0x5CA1E
    #: The engine choice: "batch" (default) runs the FIFO recurrence or
    #: the reduced-event walk on whole numpy arrival chunks and builds
    #: no environment; "per-event" drives one arrival event at a time
    #: through the heap environment (the referee the bit-identity
    #: contract is checked against).  See ``_simulate``.
    admission: str = "batch"
    #: Streaming-histogram resolution (quantile error <= 2**-subbits).
    subbits: int = 8
    #: K-way decomposition of this one scenario (part of the scenario
    #: identity: a 4-shard run is a different -- reproducible -- spec).
    shards: int = 1
    #: "partition" (global streams, keep index % K == k; exact) or
    #: "thin" (independent derive_seed(root, "shard", k) streams at
    #: rate/K; cheaper, different realization per K).
    shard_split: str = "partition"
    #: Arrival process: "poisson", "bursty", or "diurnal"
    #: (see :mod:`repro.sim.arrivals`).
    arrival_shape: str = "poisson"
    #: Invocations released per burst epoch ("bursty" only).
    burst_len: int = 64
    #: Spacing of invocations inside one burst ("bursty" only).
    burst_intra_gap_ns: int = 1
    #: Day-curve period; 0 = auto (a quarter of the arrival span).
    diurnal_period_ns: int = 0
    #: Piecewise-constant rate multipliers across one period.
    diurnal_multipliers: tuple = DIURNAL_DAY
    #: Dry-pool arrival policy: "queue" (FIFO backlog -- the PR 4..8
    #: behavior), "cold" (every dry arrival spins a sandbox up), or
    #: "hybrid" (queue until the backlog reaches ``hybrid_threshold``,
    #: then start spinning up).
    pool_policy: str = "queue"
    #: :data:`~repro.core.sandbox.SANDBOX_PROFILES` entry drawn for
    #: cold spin-ups (Fig. 9 spectrum: bare-metal / docker / microvm /
    #: the MITOSIS-style remote-fork).
    start_model: str = "remote-fork"
    #: Idle-reclaim window for a cold-started executor, measured from
    #: its spin-up (a lease-style fixed lifetime, which is what keeps
    #: the reclaim calendar append-sorted).  0 = never reclaim: the
    #: executor joins the warm pool for good.
    keepalive_ns: int = 0
    #: Backlog depth that flips a dry arrival from queueing to a cold
    #: start ("hybrid" only).
    hybrid_threshold: int = 64


@dataclass
class ScaleResult:
    """One open-loop run: throughput, memory, and tail latency."""

    admission: str
    invocations: int
    workers: int
    completed: int
    events_processed: int
    wall_s: float
    events_per_sec: float
    peak_rss_bytes: int
    final_now_ns: int
    max_backlog: int
    queued: int
    timeout_pool_hits: int
    latency: SummaryStats
    #: Occupied streaming-histogram buckets -- the O(1)-memory evidence.
    stream_buckets: int
    #: Always empty; kept because the perfbench harness still reads it.
    occupancy: dict[str, int] = field(default_factory=dict)
    #: Dry-pool arrivals that took the cold-start path (0 under the
    #: "queue" policy).
    cold_starts: int = 0
    #: Simulated busy nanoseconds bought by cold starts (spawn +
    #: service per cold invocation) -- the executor-seconds numerator.
    cold_busy_ns: int = 0
    #: Cold executors torn down by an idle-reclaim expiry.
    cold_reclaimed: int = 0
    #: Reclaim expiries that found no idle cold executor (retained).
    cold_retained: int = 0

    def fingerprint(self) -> dict[str, Any]:
        """The simulated-domain outputs -- identical across admissions.

        Wall-clock and RSS are measurement artifacts and excluded;
        everything here must match bit-for-bit between the default
        engine and the per-event referee on the same config.
        """
        return {
            "invocations": self.invocations,
            "completed": self.completed,
            "events_processed": self.events_processed,
            "final_now_ns": self.final_now_ns,
            "max_backlog": self.max_backlog,
            "queued": self.queued,
            "cold_starts": self.cold_starts,
            "cold_busy_ns": self.cold_busy_ns,
            "cold_reclaimed": self.cold_reclaimed,
            "cold_retained": self.cold_retained,
            "latency_median_ns": self.latency.median,
            "latency_p95_ns": self.latency.p95,
            "latency_p99_ns": self.latency.p99,
            "latency_mean_ns": self.latency.mean,
            "latency_min_ns": self.latency.minimum,
            "latency_max_ns": self.latency.maximum,
        }

    def table(self) -> Table:
        table = Table(
            f"Open-loop scale run -- {self.invocations:,} invocations "
            f"({self.admission} admission)",
            ["metric", "value"],
        )
        table.add_row("completed", f"{self.completed:,}")
        table.add_row("simulator events", f"{self.events_processed:,}")
        table.add_row("wall clock", f"{self.wall_s:.2f} s")
        table.add_row("events/sec", f"{self.events_per_sec:,.0f}")
        table.add_row("peak RSS", format_bytes(self.peak_rss_bytes))
        table.add_row("simulated span", format_ns(self.final_now_ns))
        table.add_row("warm slots / peak backlog", f"{self.workers:,} / {self.max_backlog:,}")
        table.add_row("sojourn median", format_ns(self.latency.median))
        table.add_row("sojourn p95", format_ns(self.latency.p95))
        table.add_row("sojourn p99", format_ns(self.latency.p99))
        table.add_row("stream buckets (O(1) memory)", f"{self.stream_buckets:,}")
        if self.cold_starts:
            table.add_row("cold starts", f"{self.cold_starts:,}")
            table.add_row(
                "cold fraction", f"{self.cold_starts / max(1, self.completed):.4f}"
            )
            table.add_row("cold busy", format_ns(self.cold_busy_ns))
            table.add_row(
                "cold reclaimed / retained",
                f"{self.cold_reclaimed:,} / {self.cold_retained:,}",
            )
        return table


def _peak_rss_bytes() -> int:
    """Lifetime peak RSS of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _validate_admission(admission: str) -> None:
    """Reject unknown admission modes before any environment is built."""
    if admission not in ("batch", "per-event"):
        raise ValueError(f"admission must be 'batch' or 'per-event', got {admission!r}")


def _validate_pool_policy(
    pool_policy: str, start_model: str, keepalive_ns: int, hybrid_threshold: int
) -> None:
    """Reject unknown cold-start knobs before any environment is built."""
    if pool_policy not in ("queue", "cold", "hybrid"):
        raise ValueError(
            f"pool_policy must be 'queue', 'cold' or 'hybrid', got {pool_policy!r}"
        )
    if start_model not in SANDBOX_PROFILES:
        raise ValueError(
            f"start_model must be one of {sorted(SANDBOX_PROFILES)}, got {start_model!r}"
        )
    if keepalive_ns < 0:
        raise ValueError(f"keepalive_ns must be >= 0, got {keepalive_ns}")
    if hybrid_threshold < 1:
        raise ValueError(f"hybrid_threshold must be >= 1, got {hybrid_threshold}")


def _report_profile(profiler, destination: Union[bool, str]) -> None:
    """Print the top-25 cumulative-time entries; archive when a path is given."""
    import io
    import pstats

    out = io.StringIO()
    stats = pstats.Stats(profiler, stream=out)
    stats.sort_stats("cumulative").print_stats(25)
    text = out.getvalue()
    print(text)
    if isinstance(destination, str):
        stats.dump_stats(destination)
        with open(destination + ".txt", "w") as handle:
            handle.write(text)
        print(f"profile archived to {destination} (+ .txt)")


def run_scale(
    invocations: int = 1_000_000,
    workers: int = 1 << 20,
    seed: int = 0x5CA1E,
    mean_arrival_gap_ns: int = 250,
    service_log_mean: float = 19.8,
    service_log_sigma: float = 0.6,
    lease_check_interval_ns: int = ms(64),
    admission: str = "batch",
    subbits: int = 8,
    shards: int = 1,
    parallel: int = 1,
    arrival_shape: str = "poisson",
    shard_split: str = "partition",
    burst_len: int = 64,
    burst_intra_gap_ns: int = 1,
    diurnal_period_ns: int = 0,
    diurnal_multipliers: tuple = DIURNAL_DAY,
    pool_policy: str = "queue",
    start_model: str = "remote-fork",
    keepalive_ns: int = 0,
    hybrid_threshold: int = 64,
    cache_dir: Optional[str] = None,
    profile: Union[bool, str, None] = None,
):
    """Drive the open-loop scale scenario once and measure it.

    The quick (CI) configuration shrinks ``invocations`` and
    ``workers`` so the pool saturates and the FIFO backlog path is
    exercised; the paper-scale default instead keeps ~10^6 invocations
    in flight at once.

    ``shards > 1`` (or a non-Poisson ``arrival_shape``) routes through
    :func:`run_scale_sharded`, which decomposes the scenario and fans
    the shards out over ``parallel`` worker processes; the single-shard
    Poisson path runs its one shard in-process on the engine
    :func:`_simulate` picks for the policy.
    """
    _validate_admission(admission)
    _validate_pool_policy(pool_policy, start_model, keepalive_ns, hybrid_threshold)
    if shards != 1 or arrival_shape != "poisson":
        if profile:
            raise ValueError("--profile supports the single-shard poisson path only")
        return run_scale_sharded(
            invocations=invocations,
            workers=workers,
            shards=max(1, shards),
            seed=seed,
            mean_arrival_gap_ns=mean_arrival_gap_ns,
            service_log_mean=service_log_mean,
            service_log_sigma=service_log_sigma,
            lease_check_interval_ns=lease_check_interval_ns,
            admission=admission,
            subbits=subbits,
            arrival_shape=arrival_shape,
            shard_split=shard_split,
            burst_len=burst_len,
            burst_intra_gap_ns=burst_intra_gap_ns,
            diurnal_period_ns=diurnal_period_ns,
            diurnal_multipliers=diurnal_multipliers,
            pool_policy=pool_policy,
            start_model=start_model,
            keepalive_ns=keepalive_ns,
            hybrid_threshold=hybrid_threshold,
            parallel=parallel,
            cache_dir=cache_dir,
        )
    config = ScaleConfig(
        invocations=invocations,
        workers=workers,
        mean_arrival_gap_ns=mean_arrival_gap_ns,
        service_log_mean=service_log_mean,
        service_log_sigma=service_log_sigma,
        lease_check_interval_ns=lease_check_interval_ns,
        seed=seed,
        admission=admission,
        subbits=subbits,
        pool_policy=pool_policy,
        start_model=start_model,
        keepalive_ns=keepalive_ns,
        hybrid_threshold=hybrid_threshold,
    )
    run = _simulate(config, 0, 1, profile)
    summary = run.stream.summarize()
    return ScaleResult(
        admission=config.admission,
        invocations=config.invocations,
        workers=config.workers,
        completed=run.completed,
        events_processed=run.events_processed,
        wall_s=run.wall_s,
        events_per_sec=run.events_processed / run.wall_s if run.wall_s > 0 else 0.0,
        peak_rss_bytes=run.peak_rss_bytes,
        final_now_ns=run.final_now_ns,
        max_backlog=run.max_backlog,
        queued=run.queued,
        timeout_pool_hits=run.timeout_pool_hits,
        latency=replace(summary, mean=run.sojourn_total / summary.count),
        stream_buckets=len(run.stream.histogram),
        cold_starts=run.cold_starts,
        cold_busy_ns=run.cold_busy_ns,
        cold_reclaimed=run.cold_reclaimed,
        cold_retained=run.cold_retained,
    )


# -- sharded engine ----------------------------------------------------


def _shard_invocations(invocations: int, shards: int, shard: int) -> int:
    """Arrivals owned by *shard*: ``#{i < N : i % K == shard}``."""
    return (invocations - shard + shards - 1) // shards


def _shard_slots(workers: int, shards: int, shard: int) -> int:
    """Warm-pool slice for *shard*: W//K plus one of the W%K leftovers."""
    return workers // shards + (1 if shard < workers % shards else 0)


def _draw_services(rng, size: int, config: ScaleConfig):
    """*size* clipped log-normal service times -- the PR 4 recipe."""
    draws = rng.lognormal(config.service_log_mean, config.service_log_sigma, size=size)
    services = draws.astype(np.int64)
    return np.clip(services, config.min_service_ns, config.max_service_ns, out=services)


def _shard_chunks(config: ScaleConfig, shard: int, shards: int, lists: bool = True):
    """Yield this shard's ``(arrival_times, services)`` chunks.

    Consumption order is arrival order, so services are assigned by
    **arrival index**, not dispatch order -- the property that makes the
    decomposition independent of each shard's queueing dynamics.

    With ``lists=True`` (the per-event driver) both come as Python
    lists for cheap scalar iteration; with ``lists=False`` they stay
    ``int64`` arrays for the FIFO recurrence and the walk's vectorized
    renewal count.
    """
    shape_kwargs = dict(
        burst_len=config.burst_len,
        burst_intra_gap_ns=config.burst_intra_gap_ns,
        diurnal_period_ns=config.diurnal_period_ns,
        diurnal_multipliers=config.diurnal_multipliers,
        chunk=_RNG_CHUNK,
    )
    if config.shard_split == "thin":
        # Independent streams: shard k is its own Poisson-thinned
        # process at 1/K of the rate, seeded by derive_seed(root,
        # "shard", k) -- nothing global is generated twice.
        streams = RngStreams(shard_seed(config.seed, shard))
        count = _shard_invocations(config.invocations, shards, shard)
        service_rng = streams.stream("service")
        for times in arrival_times(
            config.arrival_shape,
            streams.stream("arrivals"),
            count,
            config.mean_arrival_gap_ns * shards,
            **shape_kwargs,
        ):
            services = _draw_services(service_rng, times.size, config)
            yield (times.tolist(), services.tolist()) if lists else (times, services)
        return
    if config.shard_split != "partition":
        raise ValueError(
            f"shard_split must be 'partition' or 'thin', got {config.shard_split!r}"
        )
    # Partition: replay the global streams (same chunk sizes as the
    # unsharded driver, so the draws are the identical prefix) and keep
    # every K-th arrival.  Redundant generation costs O(N) vectorized
    # draws per shard -- noise next to the O(N/K) simulation itself.
    streams = RngStreams(config.seed)
    service_rng = streams.stream("service")
    index = 0
    for times in arrival_times(
        config.arrival_shape,
        streams.stream("arrivals"),
        config.invocations,
        config.mean_arrival_gap_ns,
        **shape_kwargs,
    ):
        services = _draw_services(service_rng, times.size, config)
        if shards == 1:
            # One shard keeps everything: no mask, no copies.
            yield (times.tolist(), services.tolist()) if lists else (times, services)
            continue
        mine = (np.arange(index, index + times.size) % shards) == shard
        index += times.size
        if mine.any():
            kept, served = times[mine], services[mine]
            yield (kept.tolist(), served.tolist()) if lists else (kept, served)


class _FifoDriver:
    """The ``queue`` policy as an exact c-server FIFO recurrence.

    Under a FIFO backlog no output depends on how the ~9 events per
    invocation interleave.  An invocation starts when the earliest slot
    frees (:class:`~repro.analysis.latency.FifoServers`) and finishes
    exactly ``service`` later, because the last lease re-arm lands on
    the finish time.  Its sojourn is ``start - arrival + service``.
    What the event engines count follows in closed form:

    * ``events_processed`` is one arrival plus ``ceil(service /
      interval)`` lease fires per invocation, i.e. ``2 N + sum((service
      - 1) // interval)``;
    * ``final_now_ns`` is the last finish;
    * ``queued`` and ``max_backlog`` come from the recurrence, whose tie
      rule -- a slot freeing at an arrival's own nanosecond serves it --
      is the referee's ``_ARRIVAL_PRIO`` order.

    No environment and no timers: the slots' free times carry across
    chunks, so memory stays bounded by the pool size and the backlog.
    """

    cold_starts = cold_busy_ns = cold_reclaimed = cold_retained = 0

    def __init__(self, config: ScaleConfig, shard: int, shards: int) -> None:
        self.config = config
        self.stream = StreamingSummary(config.subbits)
        self.pool = FifoServers(_shard_slots(config.workers, shards, shard))
        self.completed = 0
        self.sojourn_total = 0
        self.events_processed = 0
        self.final_now_ns = 0
        self._chunks = _shard_chunks(config, shard, shards, lists=False)

    @property
    def queued(self) -> int:
        return self.pool.queued

    @property
    def max_backlog(self) -> int:
        return self.pool.max_backlog

    def drive(self) -> None:
        interval = self.config.lease_check_interval_ns
        for times, services in self._chunks:
            # The chunk's arrays are ours to overwrite, but serve() may
            # return *times* itself, so its result is never written to.
            sojourn = self.pool.serve(times, services) + services
            self.final_now_ns = max(self.final_now_ns, int(sojourn.max()))
            sojourn -= times
            self.sojourn_total += int(sojourn.sum())
            self.stream.observe_many(sojourn)
            self.completed += times.size
            services -= 1
            services //= interval  # renewal hops
            self.events_processed += 2 * times.size + int(services.sum())


#: Stands in for "after the last arrival": the walk drains every
#: pending event before it.
_END = 1 << 62


def _dry_threshold(pool_policy: str, hybrid_threshold: int) -> int:
    """Backlog depth at which a dry-pool arrival goes cold instead of
    queueing: 0 = always ("cold"), huge = never ("queue")."""
    if pool_policy == "cold":
        return 0
    if pool_policy == "hybrid":
        return hybrid_threshold
    return 1 << 62


class _PoolWalk:
    """The ``cold``/``hybrid`` policies as a reduced-event walk.

    The per-event FSM fires ~9 events per invocation, but lease renewal
    re-arms touch nothing but their own timer.  What remains is, per
    invocation, an arrival, a completion and, for a cold start, a
    spin-up "ready" and (keepalive on) an idle-reclaim expiry.  Before
    each arrival at ``t`` the walk fires every completion, ready and
    reclaim due at or before ``t``, in the referee's order; then the
    arrival takes a free slot, goes cold, or queues.  Renewal fires are
    counted in closed form, ``(service - 1) // interval`` per lease.

    **Order rule.**  The referee fires events in ``(when, priority,
    eid)`` order, arrivals last at an instant (``_ARRIVAL_PRIO``).
    With keepalive on, a reclaim does not commute with a completion
    (both touch the free slots) or a ready (both touch the live cold
    executors), so same-instant events must fire in eid order.  An eid
    is drawn when its *drawer* fires: a lease re-arms every interval,
    so a completion's eid is drawn at its last re-arm ``start + ((service
    - 1) // interval) * interval``; a ready's at its cold arrival; a
    reclaim's at its ready, right after that executor's own lease.
    Each event therefore carries one packed int key, compared whole:
    ``when``; the draw instant ``d``; the drawer's class (a NORMAL event
    fires before an arrival); the drawer's own draw instant and class;
    and a sequence number bumped at every draw.  Draw instants are
    stored as offsets below ``when`` (and below ``d``), which every
    event bounds by ``max(interval, spawn, keepalive)``.

    Readies and reclaims have constant delays, so they fire in the
    order they were armed and live in FIFO deques; only completions
    need a heap.  No environment, no timers: memory is bounded by the
    invocations in flight.
    """

    def __init__(self, config: ScaleConfig, shard: int, shards: int) -> None:
        self.config = config
        self.stream = StreamingSummary(config.subbits)
        self.free_slots = _shard_slots(config.workers, shards, shard)
        self.count = _shard_invocations(config.invocations, shards, shard)
        self.completed = 0
        self.queued = 0
        self.max_backlog = 0
        self.cold_starts = 0
        self.cold_busy_ns = 0
        self.cold_reclaimed = 0
        self.cold_retained = 0
        self.sojourn_total = 0
        self.events_processed = 0
        self.final_now_ns = 0
        self._chunks = _shard_chunks(config, shard, shards, lists=False)

    def drive(self) -> None:
        config = self.config
        interval = config.lease_check_interval_ns
        spawn = SANDBOX_PROFILES[config.start_model].spawn_ns(1)
        keepalive = config.keepalive_ns
        threshold = _dry_threshold(config.pool_policy, config.hybrid_threshold)
        # Key layout, most significant first:
        #   when | span - (when - d) | c1 | span - (d - dd) | c2 | seq
        # with d the draw instant, c1 its drawer's class (0 NORMAL,
        # 1 arrival), dd and c2 the drawer's own draw instant and
        # class.  An arrival drawer stores dd = d and c2 = 0: arrivals
        # at one instant fire in index order, which seq already is.
        span = max(interval, spawn, keepalive)
        mbits = span.bit_length()
        sbits = (3 * self.count + 3).bit_length()
        c1_shift = sbits + 1 + mbits
        o1_shift = c1_shift + 1
        low = o1_shift + mbits
        mmask = (1 << mbits) - 1
        never = (_END + 1) << low
        free = self.free_slots
        alive = 0
        seq = 0
        completed = queued = max_backlog = 0
        cold_starts = cold_busy_ns = reclaimed = retained = 0
        hops = arrivals = 0
        now = 0
        heap: list[int] = []
        ready_keys: deque[int] = deque()
        ready_services: deque[int] = deque()
        reclaims: deque[int] = deque()
        backlog: deque[tuple[int, int]] = deque()
        buffer: list[int] = []
        flush = self._flush

        def key(when: int, d: int, c1: int, dd: int, c2: int) -> int:
            nonlocal seq
            seq += 1
            return (
                (((((when << mbits | span - when + d) << 1 | c1) << mbits) | span - d + dd)
                 << 1 | c2) << sbits
            ) | seq

        def lease(start: int, service: int, c_disp: int, d_disp: int, c2_disp: int) -> int:
            """Completion key of a lease dispatched at *start* by a drawer
            of class *c_disp*, drawn at *d_disp* by a *c2_disp* drawer."""
            renewals = (service - 1) // interval
            if not renewals:
                return key(start + service, start, c_disp, d_disp, c2_disp)
            if renewals == 1:
                return key(start + service, start + interval, 0, start, c_disp)
            d = start + renewals * interval
            return key(start + service, d, 0, d - interval, 0)

        tail = (np.array([_END]), np.array([1]))
        for times, services in chain(self._chunks, (tail,)):
            if times[0] != _END:
                arrivals += times.size
                hops += int(((services - 1) // interval).sum())
            for t, service in zip(times.tolist(), services.tolist()):
                bound = (t + 1) << low
                while True:
                    head = heap[0] if heap else never
                    if ready_keys or reclaims:
                        ready = ready_keys[0] if ready_keys else never
                        expiry = reclaims[0] if reclaims else never
                        if ready < head and ready < expiry:
                            if ready >= bound:
                                break
                            ready_keys.popleft()
                            svc = ready_services.popleft()
                            now = ready >> low
                            buffer.append(spawn + svc)
                            if len(buffer) >= _FLUSH_BATCH:
                                flush(buffer)
                            alive += 1
                            heappush(heap, lease(now, svc, 0, now - spawn, 1))
                            if keepalive:
                                reclaims.append(key(now + keepalive, now, 0, now - spawn, 1))
                            continue
                        if expiry < head:
                            if expiry >= bound:
                                break
                            reclaims.popleft()
                            now = expiry >> low
                            if free and alive:
                                free -= 1
                                alive -= 1
                                reclaimed += 1
                            else:
                                retained += 1
                            continue
                    if head >= bound:
                        break
                    heappop(heap)
                    now = head >> low
                    completed += 1
                    if backlog:
                        arrival_ns, svc = backlog.popleft()
                        buffer.append(now - arrival_ns + svc)
                        if len(buffer) >= _FLUSH_BATCH:
                            flush(buffer)
                        drawn = now - span + ((head >> o1_shift) & mmask)
                        heappush(heap, lease(now, svc, 0, drawn, (head >> c1_shift) & 1))
                    else:
                        free += 1
                if t == _END:
                    break
                if free:
                    free -= 1
                    buffer.append(service)
                    if len(buffer) >= _FLUSH_BATCH:
                        flush(buffer)
                    heappush(heap, lease(t, service, 1, t, 0))
                elif len(backlog) >= threshold:
                    cold_starts += 1
                    cold_busy_ns += spawn + service
                    ready_keys.append(key(t + spawn, t, 1, t, 0))
                    ready_services.append(service)
                else:
                    backlog.append((t, service))
                    queued += 1
                    if len(backlog) > max_backlog:
                        max_backlog = len(backlog)
        flush(buffer)
        self.free_slots = free
        self.completed = completed
        self.queued = queued
        self.max_backlog = max_backlog
        self.cold_starts = cold_starts
        self.cold_busy_ns = cold_busy_ns
        self.cold_reclaimed = reclaimed
        self.cold_retained = retained
        # Per arrival: itself plus its lease fires; per cold start: its
        # ready and, with keepalive on, its reclaim.
        self.events_processed = (
            2 * arrivals + hops + cold_starts * (2 if keepalive else 1)
        )
        self.final_now_ns = now

    def _flush(self, buffer: list[int]) -> None:
        if buffer:
            self.sojourn_total += sum(buffer)
            self.stream.observe_many(np.asarray(buffer, dtype=np.float64))
            buffer.clear()


class _ShardDriver:
    """The per-event open-loop FSM: the referee every fast engine is
    checked against.

    Arrivals come as absolute times with services pre-assigned per
    arrival index, so any slice of the global scenario replays
    identically whatever happens in the other shards.  One arrival
    event is re-scheduled from arrival to arrival at ``_ARRIVAL_PRIO``.
    Every running invocation holds a lease timer re-armed each interval
    until it finishes; a dry pool queues FIFO or, under the cold
    policies, spins a sandbox up.

    Only ``admission="per-event"`` builds this driver; batch admission
    runs :class:`_FifoDriver`'s recurrence (``queue``) or
    :class:`_PoolWalk` (``cold``/``hybrid``).
    """

    __slots__ = (
        "env",
        "config",
        "stream",
        "backlog",
        "free_slots",
        "count",
        "arrived",
        "completed",
        "queued",
        "max_backlog",
        "_interval",
        "_chunks",
        "_times",
        "_services",
        "_pos",
        "_next_time",
        "_next_service",
        "_buffer",
        "sojourn_total",
        "_lease_cbs",
        "_schedule",
        "_threshold",
        "_spawn",
        "_keepalive",
        "cold_starts",
        "cold_busy_ns",
        "cold_reclaimed",
        "cold_retained",
        "cold_alive",
        "_cold_cbs",
        "_reclaim_cbs",
    )

    def __init__(self, env, config: ScaleConfig, shard: int, shards: int) -> None:
        self.env = env
        self.config = config
        self.stream = StreamingSummary(config.subbits)
        self.backlog: deque[tuple[int, int]] = deque()
        self.free_slots = _shard_slots(config.workers, shards, shard)
        self.count = _shard_invocations(config.invocations, shards, shard)
        self.arrived = 0
        self.completed = 0
        self.queued = 0
        self.max_backlog = 0
        self._interval = config.lease_check_interval_ns
        self._chunks = _shard_chunks(config, shard, shards)
        self._times: list[int] = []
        self._services: list[int] = []
        self._pos = 0
        self._next_time = 0
        self._next_service = 0
        self._buffer: list[int] = []
        self.sojourn_total = 0
        #: One shared callbacks tuple for every lease timer: the run
        #: loop only reads and detaches callbacks, so re-arms and fresh
        #: dispatches alike avoid a per-event list allocation.
        self._lease_cbs = (self._handle_lease,)
        #: Bound once: ~7 re-arms per invocation go through this.
        self._schedule = env.schedule_timeout
        # -- cold-start path (pool_policy != "queue") ------------------
        self._threshold = _dry_threshold(config.pool_policy, config.hybrid_threshold)
        self._spawn = SANDBOX_PROFILES[config.start_model].spawn_ns(1)
        self._keepalive = config.keepalive_ns
        self.cold_starts = 0
        self.cold_busy_ns = 0
        self.cold_reclaimed = 0
        self.cold_retained = 0
        self.cold_alive = 0
        self._cold_cbs = (self._handle_cold,)
        self._reclaim_cbs = (self._handle_reclaim,)

    def _advance(self) -> None:
        """Prefetch the next (arrival time, service) pair."""
        pos = self._pos
        while pos >= len(self._times):
            self._times, self._services = next(self._chunks)
            pos = 0
        self._next_time = self._times[pos]
        self._next_service = self._services[pos]
        self._pos = pos + 1

    def start(self) -> None:
        self._advance()
        event = BatchEvent(self.env, (self._handle_arrival,), 0)
        self.env.schedule(event, self._next_time, _ARRIVAL_PRIO)

    def drive(self) -> None:
        """Run the simulation to completion."""
        self.env.run()

    def _handle_arrival(self, event) -> None:
        env = self.env
        now = env._now
        service = self._next_service
        self.arrived += 1
        if self.arrived < self.count:
            self._advance()
            # One chained arrival event at _ARRIVAL_PRIO: at a shared
            # nanosecond every completion, spin-up and reclaim fires
            # before the arrival, whenever its eid was drawn.
            env.schedule(event, self._next_time - now, _ARRIVAL_PRIO)
        if self.free_slots:
            self.free_slots -= 1
            self._begin(now, service)
        elif len(self.backlog) >= self._threshold:
            self._cold_start(now, service)
        else:
            backlog = self.backlog
            backlog.append((now, service))
            self.queued += 1
            if len(backlog) > self.max_backlog:
                self.max_backlog = len(backlog)

    def _cold_start(self, now: int, service: int) -> None:
        """Dry-pool arrival goes cold: spin a sandbox up instead of
        queueing.  The spin-up timer carries the service draw; the
        sojourn (spawn + service) is recorded when the sandbox is ready
        and the executor joins the pool via a normal lease."""
        self.cold_starts += 1
        self.cold_busy_ns += self._spawn + service
        event = BatchEvent(self.env, self._cold_cbs, service)
        self._schedule(event, self._spawn)

    def _handle_cold(self, event) -> None:
        """Sandbox ready: record the cold sojourn, start the invocation
        on the new executor (reusing the spin-up event as its lease
        timer), and arm the optional idle-reclaim expiry."""
        now = self.env._now
        service = event._value
        buffer = self._buffer
        buffer.append(self._spawn + service)
        if len(buffer) >= _FLUSH_BATCH:
            self._flush()
        self.cold_alive += 1
        interval = self._interval
        # Lease eid first, reclaim eid second: the walk's keys follow
        # the same order.
        event._value = now + service
        event.callbacks = self._lease_cbs
        self._schedule(event, service if service <= interval else interval)
        if self._keepalive:
            self._schedule(BatchEvent(self.env, self._reclaim_cbs, 0), self._keepalive)

    def _handle_reclaim(self, _event) -> None:
        """Idle-reclaim expiry: tear one cold executor down iff the pool
        has an idle slot to give back."""
        if self.free_slots and self.cold_alive:
            self.free_slots -= 1
            self.cold_alive -= 1
            self.cold_reclaimed += 1
        else:
            self.cold_retained += 1

    def _begin(self, arrival_ns: int, service: int) -> None:
        now = self.env._now
        buffer = self._buffer
        buffer.append(now - arrival_ns + service)
        if len(buffer) >= _FLUSH_BATCH:
            self._flush()
        interval = self._interval
        # A BatchEvent is the cheapest schedulable event (five slot
        # stores, no validation chain): the lease timer needs nothing
        # more, and the deadline/eid sequence -- hence the fingerprint
        # -- is identical to the pooled-Timeout recipe.
        event = BatchEvent(self.env, self._lease_cbs, now + service)
        self._schedule(event, service if service <= interval else interval)

    def _handle_lease(self, event) -> None:
        remaining = event._value - self.env._now
        if remaining > 0:
            interval = self._interval
            # Tuple dispatch descriptor: still attached, just re-insert.
            self._schedule(event, interval if remaining > interval else remaining)
            return
        self.completed += 1
        if self.backlog:
            arrival_ns, service = self.backlog.popleft()
            self._begin(arrival_ns, service)
        else:
            self.free_slots += 1

    def _flush(self) -> None:
        if self._buffer:
            # Exact integer total alongside the float stream: the
            # fingerprint mean is total/count, a single division of
            # exact ints, so it is independent of flush batching and
            # of the order sojourns were recorded in.
            self.sojourn_total += sum(self._buffer)
            self.stream.observe_many(np.asarray(self._buffer, dtype=np.float64))
            self._buffer.clear()

    def finish(self) -> None:
        self._flush()


@dataclass
class ShardResult:
    """One shard's run: a full per-environment measurement plus the
    streaming accumulator the parent folds (exact merge, no samples)."""

    shard: int
    shards: int
    shard_seed: int
    workers: int
    invocations: int
    completed: int
    events_processed: int
    wall_s: float
    peak_rss_bytes: int
    final_now_ns: int
    max_backlog: int
    queued: int
    timeout_pool_hits: int
    stream: StreamingSummary
    cold_starts: int = 0
    cold_busy_ns: int = 0
    cold_reclaimed: int = 0
    cold_retained: int = 0
    #: Exact integer sum of recorded sojourns (see ``_flush``).
    sojourn_total: int = 0


def _timed_drive(drive, profile: Union[bool, str, None]) -> float:
    """Run *drive*; return its wall time.

    With *profile* set the call runs under cProfile and the top-25
    cumulative entries are printed (and archived when *profile* is a
    path).  Profiling changes no simulated state, but its overhead
    disqualifies the run from benchmarking.
    """
    started = time.perf_counter()
    if not profile:
        drive()
        return time.perf_counter() - started
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        drive()
    finally:
        profiler.disable()
        _report_profile(profiler, profile)
    return time.perf_counter() - started


def _simulate(
    config: ScaleConfig, shard: int, shards: int, profile: Union[bool, str, None] = None
) -> ShardResult:
    """Run one shard of *config* on the engine its knobs call for.

    Batch admission (the default) builds no environment: the ``queue``
    policy runs :class:`_FifoDriver`'s exact FIFO recurrence and
    ``cold``/``hybrid`` run :class:`_PoolWalk`.  Per-event admission
    walks every event through a :class:`_ShardDriver` on the heap
    environment: the referee the fast engines are checked against.  Both
    run with glibc's malloc thresholds pinned
    (:mod:`repro.perf.malloc`), so a referee and the engine it checks
    share one allocator.
    """
    if not 0 <= shard < shards:
        raise ValueError(f"shard {shard} outside [0, {shards})")
    count = _shard_invocations(config.invocations, shards, shard)
    slots = _shard_slots(config.workers, shards, shard)
    if count < 1:
        raise ValueError("shard needs at least one invocation")
    if slots < 1:
        raise ValueError("shard needs at least one warm slot")
    pin_thresholds()
    driver: Any
    if config.admission == "batch":
        walk = _FifoDriver if config.pool_policy == "queue" else _PoolWalk
        driver = walk(config, shard, shards)
        wall_s = _timed_drive(driver.drive, profile)
        events, now, pool_hits = driver.events_processed, driver.final_now_ns, 0
    else:
        env = Environment()
        driver = _ShardDriver(env, config, shard, shards)
        driver.start()
        # The FSM allocates no reference cycles, so generational GC
        # scans over ~10^6 live timers are pure overhead; collect once,
        # run with the collector off, restore afterwards.
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            wall_s = _timed_drive(driver.drive, profile)
        finally:
            if gc_was_enabled:
                gc.enable()
        driver.finish()
        events, now, pool_hits = env.events_processed, env.now, env.timeout_pool_hits
    if driver.completed != count:
        raise RuntimeError(
            f"shard {shard}/{shards} lost invocations: {driver.completed} of {count}"
        )
    if perf.enabled:
        perf.counters.cold_spinups += driver.cold_starts
        perf.counters.cold_reclaims += driver.cold_reclaimed
    return ShardResult(
        shard=shard,
        shards=shards,
        shard_seed=shard_seed(config.seed, shard),
        workers=slots,
        invocations=count,
        completed=driver.completed,
        events_processed=events,
        wall_s=wall_s,
        peak_rss_bytes=_peak_rss_bytes(),
        final_now_ns=now,
        max_backlog=driver.max_backlog,
        queued=driver.queued,
        timeout_pool_hits=pool_hits,
        stream=driver.stream,
        cold_starts=driver.cold_starts,
        cold_busy_ns=driver.cold_busy_ns,
        cold_reclaimed=driver.cold_reclaimed,
        cold_retained=driver.cold_retained,
        sojourn_total=driver.sojourn_total,
    )


def _run_shard(
    shard: int,
    shards: int,
    invocations: int = 1_000_000,
    workers: int = 1 << 20,
    seed: int = 0x5CA1E,
    mean_arrival_gap_ns: int = 250,
    service_log_mean: float = 19.8,
    service_log_sigma: float = 0.6,
    lease_check_interval_ns: int = ms(64),
    admission: str = "batch",
    subbits: int = 8,
    arrival_shape: str = "poisson",
    shard_split: str = "partition",
    burst_len: int = 64,
    burst_intra_gap_ns: int = 1,
    diurnal_period_ns: int = 0,
    diurnal_multipliers: tuple = DIURNAL_DAY,
    pool_policy: str = "queue",
    start_model: str = "remote-fork",
    keepalive_ns: int = 0,
    hybrid_threshold: int = 64,
) -> ShardResult:
    """Run one shard of the decomposed scenario (picklable factory).

    Module-level so :mod:`repro.parallel` can ship it to forked workers
    and the result cache can key it: the kwargs *are* the shard's
    identity, and the outcome depends on nothing else.
    """
    _validate_admission(admission)
    _validate_pool_policy(pool_policy, start_model, keepalive_ns, hybrid_threshold)
    config = ScaleConfig(
        invocations=invocations,
        workers=workers,
        mean_arrival_gap_ns=mean_arrival_gap_ns,
        service_log_mean=service_log_mean,
        service_log_sigma=service_log_sigma,
        lease_check_interval_ns=lease_check_interval_ns,
        seed=seed,
        admission=admission,
        subbits=subbits,
        shards=shards,
        shard_split=shard_split,
        arrival_shape=arrival_shape,
        burst_len=burst_len,
        burst_intra_gap_ns=burst_intra_gap_ns,
        diurnal_period_ns=diurnal_period_ns,
        diurnal_multipliers=tuple(diurnal_multipliers),
        pool_policy=pool_policy,
        start_model=start_model,
        keepalive_ns=keepalive_ns,
        hybrid_threshold=hybrid_threshold,
    )
    result = _simulate(config, shard, shards)
    if perf.enabled:
        perf.counters.shard_runs += 1
    return result


@dataclass
class ShardedScaleResult:
    """A K-shard scenario folded back together.

    Simulated-domain fields (everything in :meth:`fingerprint`) are a
    pure function of the scenario spec -- identical across repeats,
    worker counts, and cache hits.  Wall-clock and RSS are measurement
    artifacts of this particular execution.
    """

    admission: str
    shards: int
    shard_split: str
    arrival_shape: str
    invocations: int
    workers: int
    parallel_workers: int
    cpus_available: int
    completed: int
    events_processed: int
    wall_s: float
    events_per_sec: float
    serial_wall_s: float
    shard_walls_s: list[float]
    peak_rss_bytes: int
    final_now_ns: int
    max_backlog: int
    queued: int
    timeout_pool_hits: int
    latency: SummaryStats
    stream_buckets: int
    shard_seeds: list[int] = field(default_factory=list)
    cold_starts: int = 0
    cold_busy_ns: int = 0
    cold_reclaimed: int = 0
    cold_retained: int = 0

    def fingerprint(self) -> dict[str, Any]:
        """Simulated-domain outputs -- the same keys as
        :meth:`ScaleResult.fingerprint`, so unsharded and sharded runs
        of an equivalent scenario can be diffed directly."""
        return {
            "invocations": self.invocations,
            "completed": self.completed,
            "events_processed": self.events_processed,
            "final_now_ns": self.final_now_ns,
            "max_backlog": self.max_backlog,
            "queued": self.queued,
            "cold_starts": self.cold_starts,
            "cold_busy_ns": self.cold_busy_ns,
            "cold_reclaimed": self.cold_reclaimed,
            "cold_retained": self.cold_retained,
            "latency_median_ns": self.latency.median,
            "latency_p95_ns": self.latency.p95,
            "latency_p99_ns": self.latency.p99,
            "latency_mean_ns": self.latency.mean,
            "latency_min_ns": self.latency.minimum,
            "latency_max_ns": self.latency.maximum,
        }

    def table(self) -> Table:
        table = Table(
            f"Sharded open-loop scale run -- {self.invocations:,} invocations, "
            f"{self.shards} shard(s) ({self.admission} admission, "
            f"{self.arrival_shape} arrivals, {self.shard_split} split)",
            ["metric", "value"],
        )
        table.add_row("completed", f"{self.completed:,}")
        table.add_row("simulator events", f"{self.events_processed:,}")
        table.add_row(
            "wall clock (batch / serial-sum)",
            f"{self.wall_s:.2f} s / {self.serial_wall_s:.2f} s",
        )
        table.add_row("events/sec (merged)", f"{self.events_per_sec:,.0f}")
        table.add_row(
            "dispatch workers / cpus", f"{self.parallel_workers} / {self.cpus_available}"
        )
        table.add_row("peak shard RSS", format_bytes(self.peak_rss_bytes))
        table.add_row("simulated span", format_ns(self.final_now_ns))
        table.add_row("warm slots / peak backlog", f"{self.workers:,} / {self.max_backlog:,}")
        table.add_row("sojourn median", format_ns(self.latency.median))
        table.add_row("sojourn p95", format_ns(self.latency.p95))
        table.add_row("sojourn p99", format_ns(self.latency.p99))
        table.add_row("stream buckets (O(1) memory)", f"{self.stream_buckets:,}")
        return table


def merge_shard_results(
    results: list[ShardResult],
    *,
    admission: str,
    shard_split: str,
    arrival_shape: str,
    workers: int,
    wall_s: float,
    parallel_workers: int,
    cpus_available: int,
) -> ShardedScaleResult:
    """Fold per-shard accumulators, in shard order, into one result.

    Counts sum; clocks take the max (the scenario ends when its last
    shard does); the latency summary is the exact
    :meth:`StreamingSummary.merge` fold -- the same code path the
    PR 4 streaming layer was built around.
    """
    if not results:
        raise ValueError("merge of zero shards")
    if [r.shard for r in results] != list(range(len(results))):
        raise ValueError("shard results must arrive complete and in shard order")
    stream = StreamingSummary.merged([r.stream for r in results])
    events = sum(r.events_processed for r in results)
    return ShardedScaleResult(
        admission=admission,
        shards=len(results),
        shard_split=shard_split,
        arrival_shape=arrival_shape,
        invocations=sum(r.invocations for r in results),
        workers=workers,
        parallel_workers=parallel_workers,
        cpus_available=cpus_available,
        completed=sum(r.completed for r in results),
        events_processed=events,
        wall_s=wall_s,
        events_per_sec=events / wall_s if wall_s > 0 else 0.0,
        serial_wall_s=sum(r.wall_s for r in results),
        shard_walls_s=[r.wall_s for r in results],
        peak_rss_bytes=max(r.peak_rss_bytes for r in results),
        final_now_ns=max(r.final_now_ns for r in results),
        max_backlog=max(r.max_backlog for r in results),
        queued=sum(r.queued for r in results),
        timeout_pool_hits=sum(r.timeout_pool_hits for r in results),
        latency=replace(
            stream.summarize(),
            mean=sum(r.sojourn_total for r in results) / stream.count,
        ),
        stream_buckets=len(stream.histogram),
        shard_seeds=[r.shard_seed for r in results],
        cold_starts=sum(r.cold_starts for r in results),
        cold_busy_ns=sum(r.cold_busy_ns for r in results),
        cold_reclaimed=sum(r.cold_reclaimed for r in results),
        cold_retained=sum(r.cold_retained for r in results),
    )


def run_scale_sharded(
    invocations: int = 1_000_000,
    workers: int = 1 << 20,
    shards: int = 2,
    seed: int = 0x5CA1E,
    mean_arrival_gap_ns: int = 250,
    service_log_mean: float = 19.8,
    service_log_sigma: float = 0.6,
    lease_check_interval_ns: int = ms(64),
    admission: str = "batch",
    subbits: int = 8,
    arrival_shape: str = "poisson",
    shard_split: str = "partition",
    burst_len: int = 64,
    burst_intra_gap_ns: int = 1,
    diurnal_period_ns: int = 0,
    diurnal_multipliers: tuple = DIURNAL_DAY,
    pool_policy: str = "queue",
    start_model: str = "remote-fork",
    keepalive_ns: int = 0,
    hybrid_threshold: int = 64,
    parallel: int = 0,
    cache_dir: Optional[str] = None,
) -> ShardedScaleResult:
    """Decompose one scale scenario into *shards* and run them fanned out.

    ``parallel`` follows the shared :func:`repro.parallel.resolve_workers`
    chain (``0``/``None`` = one worker per usable CPU); the merged
    result is bit-identical for every value of it.  ``cache_dir`` keys
    each shard spec in the content-addressed result cache, so a
    repeated or interrupted sharded run only pays for missing shards.
    """
    from repro.parallel import FailedPoint, RunSpec, available_workers, resolve_workers, run_specs

    _validate_admission(admission)
    _validate_pool_policy(pool_policy, start_model, keepalive_ns, hybrid_threshold)
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards > invocations:
        raise ValueError(f"{shards} shards for {invocations} invocations (some get none)")
    if shards > workers:
        raise ValueError(f"{shards} shards over {workers} warm slots (some get none)")
    shared_kwargs = dict(
        shards=shards,
        invocations=invocations,
        workers=workers,
        seed=seed,
        mean_arrival_gap_ns=mean_arrival_gap_ns,
        service_log_mean=service_log_mean,
        service_log_sigma=service_log_sigma,
        lease_check_interval_ns=lease_check_interval_ns,
        admission=admission,
        subbits=subbits,
        arrival_shape=arrival_shape,
        shard_split=shard_split,
        burst_len=burst_len,
        burst_intra_gap_ns=burst_intra_gap_ns,
        diurnal_period_ns=diurnal_period_ns,
        diurnal_multipliers=tuple(diurnal_multipliers),
        pool_policy=pool_policy,
        start_model=start_model,
        keepalive_ns=keepalive_ns,
        hybrid_threshold=hybrid_threshold,
    )
    specs = [
        RunSpec(
            factory="repro.experiments.scale:_run_shard",
            kwargs={"shard": shard, **shared_kwargs},
            index=shard,
            label=f"scale-shard[{shard}/{shards}]",
        )
        for shard in range(shards)
    ]
    cache = None
    if cache_dir is not None:
        from repro.cache import ResultCache

        cache = ResultCache(cache_dir)
    started = time.perf_counter()
    outcomes = run_specs(specs, parallel, cache=cache)
    wall_s = time.perf_counter() - started
    failed = [o for o in outcomes if isinstance(o, FailedPoint)]
    if failed:
        raise RuntimeError(f"sharded scale run failed: {failed[0].summary()}")
    return merge_shard_results(
        outcomes,
        admission=admission,
        shard_split=shard_split,
        arrival_shape=arrival_shape,
        workers=workers,
        wall_s=wall_s,
        parallel_workers=resolve_workers(parallel),
        cpus_available=available_workers(),
    )


#: Quick (CI) configuration: with 10^4 invocations and 2048 slots the
#: pool saturates within the burst, so the smoke run exercises the FIFO
#: queueing path the paper-scale defaults deliberately avoid.
QUICK_KWARGS = {"invocations": 10_000, "workers": 2_048, "mean_arrival_gap_ns": us(25)}

#: Quick sharding-exactness configuration: the pool never saturates
#: (slots >= invocations), the regime where a K-way partition of the
#: global streams merges back bit-identical to the 1-shard run.
QUICK_UNSATURATED_KWARGS = {
    "invocations": 4_000,
    "workers": 4_096,
    "mean_arrival_gap_ns": us(25),
}


# -- multi-tenant engine -----------------------------------------------
#
# Tenancy as a dimension of the same open-loop machine: the per-tenant
# arrival streams of a declarative TenantSpec mix are merged into ONE
# global non-decreasing calendar (np.lexsort, tenant-id column carried
# through every slab), services are drawn per tenant in within-tenant
# arrival order and scattered back to merged order, and every
# completion carries its (tenant, pool) slot for pool-partitioned
# hand-off.  Admission outcomes follow the rFaaS/compSpot taxonomy --
# SUCCESS / CONGESTION / DEADLINE_MISSED -- with the deadline
# classification done purely at flush time against per-tenant deadline
# masks (no per-event Python).  The per-event FSM stays the
# bit-identity referee.

#: Warm-pool partition plans over the tenant mix.
PARTITIONINGS = ("pinned", "shared", "overflow")


def _validate_partitioning(partitioning: str) -> None:
    if partitioning not in PARTITIONINGS:
        raise ValueError(
            f"partitioning must be one of {PARTITIONINGS}, got {partitioning!r}"
        )


@dataclass(frozen=True)
class MultiTenantConfig:
    """Knobs of the multi-tenant open-loop scenario."""

    #: The tenant mix (ordered; merged-calendar tenant ids are indices).
    specs: tuple
    #: Total warm executor slots, carved up by ``partitioning``.
    workers: int = 1 << 21
    #: "pinned" -- every slot belongs to one tenant's private partition
    #: (weighted by ``spec.workers``, largest remainder); "shared" --
    #: one oversubscribed tier, first come first served; "overflow" --
    #: half pinned by weight, half shared.
    partitioning: str = "pinned"
    lease_check_interval_ns: int = ms(64)
    seed: int = 0x7E7A77
    #: "batch" (the FIFO recurrence or the reduced-event walk) or
    #: "per-event" (the referee on the heap environment).
    admission: str = "batch"
    subbits: int = 8
    shards: int = 1
    #: Dry-pool arrival policy, per-tenant thresholds: "queue" (FIFO up
    #: to ``spec.queue_cap``, then CONGESTION), "cold" (every dry
    #: arrival spins a sandbox up; it joins the *shared* tier), or
    #: "hybrid" (queue until ``hybrid_threshold``, then go cold).
    pool_policy: str = "queue"
    start_model: str = "remote-fork"
    hybrid_threshold: int = 64


def _tenant_pool_plan(
    specs: tuple, workers: int, partitioning: str, shards: int = 1
) -> tuple[list[int], int]:
    """Split *workers* into per-tenant pinned partitions + a shared tier.

    Every tenant must reach a slot in each of *shards* shards, through
    its pinned partition or the shared tier: a shard where it reaches
    none would leave its waiters queued forever.
    """
    _validate_partitioning(partitioning)
    weights = [max(1, spec.workers) for spec in specs]
    if partitioning == "shared":
        pinned, shared = [0] * len(specs), workers
    elif partitioning == "pinned":
        pinned, shared = split_by_weights(workers, weights), 0
    else:  # overflow: half pinned by weight, half shared
        half = workers // 2
        pinned, shared = split_by_weights(half, weights), workers - half
    if partitioning != "shared" and min(pinned) < 1:
        raise ValueError(
            f"{workers} workers spread too thin over {len(specs)} pinned partitions"
        )
    thin = [spec.name for spec, slots in zip(specs, pinned) if max(slots, shared) < shards]
    if thin:
        raise ValueError(
            f"{workers} {partitioning} workers leave tenants {thin} without a "
            f"slot in some of {shards} shards"
        )
    return pinned, shared


def _draw_tenant_services(rng, size: int, spec: TenantSpec):
    """*size* log-normal service times around the tenant's compute cost."""
    draws = rng.lognormal(np.log(spec.compute_ns), spec.service_log_sigma, size=size)
    services = draws.astype(np.int64)
    return np.maximum(services, 1, out=services)


def _tenant_chunks(
    config: "MultiTenantConfig", shard: int, shards: int, lists: bool = True
):
    """Yield this shard's ``(times, tenants, services)`` merged chunks.

    Every shard replays the **global** merged calendar (partition
    decomposition, as in :func:`_shard_chunks`) and keeps arrivals
    whose global merged index is ``shard (mod K)`` -- so the K-shard
    union is exactly the 1-shard stream, triple for triple.  Services
    are drawn from each tenant's own RNG stream in *within-tenant
    arrival order* and scattered back to merged order through boolean
    masks (masks preserve order), which keeps a tenant's service
    sequence independent of what the co-tenants do.

    With ``lists=True`` (the walk and the per-event referee) the three
    columns come as Python lists; with ``lists=False`` they stay arrays
    for the FIFO recurrence.
    """
    specs = config.specs
    streams = RngStreams(config.seed)
    service_rngs = [streams.stream(f"service/{spec.name}") for spec in specs]
    merged = merge_tenant_streams(
        [
            spec.arrival_stream(streams.stream(f"arrivals/{spec.name}"), chunk=_RNG_CHUNK)
            for spec in specs
        ],
        chunk=_RNG_CHUNK,
    )
    index = 0
    for times, tenants in merged:
        services = np.empty(times.size, dtype=np.int64)
        for t in range(len(specs)):
            mask = tenants == t
            count = int(mask.sum())
            if count:
                services[mask] = _draw_tenant_services(service_rngs[t], count, specs[t])
        if shards != 1:
            mine = (np.arange(index, index + times.size) % shards) == shard
            index += times.size
            if not mine.any():
                continue
            times, tenants, services = times[mine], tenants[mine], services[mine]
        if lists:
            yield times.tolist(), tenants.tolist(), services.tolist()
        else:
            yield times, tenants, services


class _TenantBook:
    """Per-tenant pools, FIFOs and outcome books.

    Shared by the reduced-event walk (:class:`_TenantWalk`) and the
    per-event referee (:class:`_TenantDriver`), which apply the same
    dispatch rules and differ only in how they order events, and by the
    FIFO recurrence (:class:`_TenantFifo`), which keeps the pool plan
    and the books but serves the FIFOs in closed form:

    * an arrival tries its tenant's **pinned** partition first, then
      the **shared** tier; a dry pool queues in the tenant's own FIFO
      up to ``spec.queue_cap`` (CONGESTION beyond it, the service draw
      still consumed positionally) unless the cold-start policy says
      to spin a sandbox up instead (the new executor joins the shared
      tier);
    * a completed **pinned** slot serves its own tenant's FIFO only; a
      completed **shared** slot serves the globally-oldest waiter
      across all tenant FIFOs (ties break on the lowest tenant id);
    * sojourns are buffered *with a parallel tenant column* and
      classified at flush time: per-tenant masks feed a
      :class:`KeyedStreamingSummary`, exact integer totals, and the
      vectorized ``sojourn > deadline_ns[t]`` DEADLINE_MISSED counts.
      Each sojourn is histogrammed once, under its tenant; the
      all-tenant summary is the exact merge of the tenants' parts
      (:func:`merge_tenant_shards`).
    """

    __slots__ = (
        "config",
        "names",
        "keyed",
        "backlogs",
        "pinned",
        "shared_free",
        "waiting",
        "count",
        "arrived",
        "completed",
        "arrived_by",
        "dispatched_by",
        "missed_by",
        "congested_by",
        "queued_by",
        "cold_by",
        "max_backlog_by",
        "sojourn_totals",
        "sojourn_total",
        "deadlines",
        "queue_caps",
        "_interval",
        "_threshold",
        "_spawn",
        "_buf_tenant",
        "_buf_sojourn",
    )

    def __init__(self, config: MultiTenantConfig, shard: int, shards: int) -> None:
        self.config = config
        specs = config.specs
        n = len(specs)
        self.names = [spec.name for spec in specs]
        self.keyed = KeyedStreamingSummary(config.subbits)
        self.backlogs = [deque() for _ in range(n)]
        pinned_plan, shared_plan = _tenant_pool_plan(
            specs, config.workers, config.partitioning, shards
        )
        self.pinned = [_shard_slots(p, shards, shard) for p in pinned_plan]
        self.shared_free = _shard_slots(shared_plan, shards, shard)
        self.waiting = 0
        total = sum(spec.invocations for spec in specs)
        self.count = _shard_invocations(total, shards, shard)
        if self.count < 1:
            raise ValueError("tenant shard needs at least one invocation")
        self.arrived = 0
        self.completed = 0
        self.arrived_by = [0] * n
        self.dispatched_by = [0] * n
        self.missed_by = [0] * n
        self.congested_by = [0] * n
        self.queued_by = [0] * n
        self.cold_by = [0] * n
        self.max_backlog_by = [0] * n
        self.sojourn_totals = [0] * n
        self.sojourn_total = 0
        self.deadlines = [spec.effective_deadline_ns() for spec in specs]
        self.queue_caps = [spec.queue_cap for spec in specs]
        self._interval = config.lease_check_interval_ns
        self._threshold = _dry_threshold(config.pool_policy, config.hybrid_threshold)
        self._spawn = SANDBOX_PROFILES[config.start_model].spawn_ns(1)
        self._buf_tenant: list[int] = []
        self._buf_sojourn: list[int] = []

    def _oldest_waiter(self) -> int:
        """Tenant whose FIFO head arrived first (lowest id on ties)."""
        best = -1
        best_key = 0
        for t, backlog in enumerate(self.backlogs):
            if backlog and (best < 0 or backlog[0][0] < best_key):
                best_key = backlog[0][0]
                best = t
        return best

    # -- vectorized flush: the admission-outcome classifier ------------

    def _flush(self) -> None:
        buf = self._buf_sojourn
        if buf:
            self._classify(
                np.asarray(buf, dtype=np.int64),
                np.asarray(self._buf_tenant, dtype=np.int64),
            )
            buf.clear()
            self._buf_tenant.clear()

    def _classify(self, vals: np.ndarray, tens: np.ndarray) -> None:
        """Book dispatched sojourns *vals* with their tenant column *tens*."""
        self.sojourn_total += int(vals.sum())
        keyed = self.keyed
        for t, name in enumerate(self.names):
            mask = tens == t
            count = int(mask.sum())
            if not count:
                continue
            slab = vals[mask]
            self.dispatched_by[t] += count
            self.sojourn_totals[t] += int(slab.sum())
            # The deadline mask IS the outcome classifier: a dispatched
            # invocation either makes its sojourn budget (SUCCESS) or
            # misses it (DEADLINE_MISSED).
            self.missed_by[t] += int((slab > self.deadlines[t]).sum())
            keyed.observe_many(name, slab.astype(np.float64))


class _TenantFifo(_TenantBook):
    """``queue`` tenants on a shared or pinned plan as c-server FIFO recurrences.

    Under the ``queue`` policy no output of these two plans depends on
    event interleaving.  A shared-tier completion serves the oldest
    waiter across tenants -- earliest arrival, lowest tenant id on ties
    -- which is the merged calendar's own order
    (:func:`~repro.sim.arrivals.merge_tenant_streams`), so the tier is
    one :class:`~repro.analysis.latency.FifoServers` over the calendar,
    keyed by tenant for the per-tenant queue caps.  A pinned completion
    serves only its own tenant, so each pinned partition is a FIFO of
    its own.  A congested arrival takes no slot; its service draw is
    still consumed positionally.  The rest follows in closed form, as
    in :class:`_FifoDriver`:

    * ``events_processed`` is one event per arrival plus, per dispatch,
      its completion and ``(service - 1) // interval`` renewal hops;
    * ``final_now_ns`` is the later of the last finish and the last
      arrival (a congested last arrival can outlive every completion);
    * per-tenant ``queued``, ``max_backlog`` and ``congested`` come
      from the recurrence.

    Sojourns are booked in arrival order, not dispatch order.  Every
    booked output is an exact integer total, a histogram count, a
    minimum or a maximum, so the order does not show.
    """

    __slots__ = ("_chunks", "_pools", "events_processed", "final_now_ns")

    def __init__(self, config: MultiTenantConfig, shard: int, shards: int) -> None:
        super().__init__(config, shard, shards)
        self._chunks = _tenant_chunks(config, shard, shards, lists=False)
        if config.partitioning == "shared":
            self._pools = [FifoServers(self.shared_free, self.queue_caps)]
        else:
            self._pools = [
                FifoServers(slots, [cap]) for slots, cap in zip(self.pinned, self.queue_caps)
            ]
        self.events_processed = 0
        self.final_now_ns = 0

    def drive(self) -> None:
        interval = self._interval
        pools = self._pools
        shared = self.config.partitioning == "shared"
        arrived_by = self.arrived_by
        hops = finish = last = 0
        for times, tenants, services in self._chunks:
            if shared:
                starts = pools[0].serve(times, services, tenants)
            else:
                starts = np.empty_like(times)
                for t, pool in enumerate(pools):
                    mask = tenants == t
                    starts[mask] = pool.serve(times[mask], services[mask])
            for t, count in enumerate(np.bincount(tenants, minlength=len(arrived_by))):
                arrived_by[t] += int(count)
            last = int(times[-1])
            kept = starts >= 0  # a congested arrival starts at -1
            served = services[kept]
            done = starts[kept] + served
            if done.size:
                self._classify(done - times[kept], tenants[kept])
                hops += int(((served - 1) // interval).sum())
                finish = max(finish, int(done.max()))
        # Per tenant, one list entry per key: the shared pool keys its
        # books by tenant, and each pinned pool has its tenant's only.
        self.queued_by = [q for pool in pools for q in pool.queued_by]
        self.max_backlog_by = [b for pool in pools for b in pool.max_backlog_by]
        self.congested_by = [r for pool in pools for r in pool.rejected_by]
        self.arrived = sum(arrived_by)
        self.completed = sum(self.dispatched_by)
        self.events_processed = self.arrived + self.completed + hops
        self.final_now_ns = max(finish, last)


class _TenantWalk(_TenantBook):
    """The multi-tenant FSM as a reduced-event walk: the default engine
    for ``cold``/``hybrid`` runs and for ``overflow`` plans.

    The referee already keeps renewal hops off the critical path: a
    dispatch draws its completion's eid at once, and the hop chain
    touches nothing but itself.  So the walk keeps only completions
    and cold-start readies, counts ``(service - 1) // interval`` hops
    per lease in closed form, and before each arrival at ``t`` fires
    every completion and ready due at or before ``t``.

    Only a pinned and a shared-tier completion at one instant fail to
    commute (both may serve the same FIFO head), so same-instant events
    fire in the referee's eid order.  Completion eids are drawn at
    dispatch and ready eids at the cold arrival; one counter bumped at
    those points reproduces that order, and each event is one packed
    int ``(((when << sbits) | seq) << tbits) | tenant << 1 | pool``.
    Readies have a constant delay, so they sit in a FIFO deque; only
    completions need a heap.
    """

    __slots__ = ("_chunks", "events_processed", "final_now_ns")

    def __init__(self, config: MultiTenantConfig, shard: int, shards: int) -> None:
        super().__init__(config, shard, shards)
        self._chunks = _tenant_chunks(config, shard, shards)
        self.events_processed = 0
        self.final_now_ns = 0

    def drive(self) -> None:
        interval = self._interval
        spawn = self._spawn
        threshold = self._threshold
        backlogs = self.backlogs
        pinned = self.pinned
        arrived_by = self.arrived_by
        congested_by = self.congested_by
        queued_by = self.queued_by
        cold_by = self.cold_by
        max_backlog_by = self.max_backlog_by
        queue_caps = self.queue_caps
        buf_tenant = self._buf_tenant
        buf_sojourn = self._buf_sojourn
        flush = self._flush
        oldest = self._oldest_waiter
        tbits = 1 + (len(backlogs) - 1).bit_length()
        tmask = (1 << (tbits - 1)) - 1
        sbits = (2 * self.count + 2).bit_length()
        low = sbits + tbits
        never = (_END + 1) << low
        shared_free = self.shared_free
        waiting = 0
        completed = hops = seq = 0
        now = last = 0
        heap: list[int] = []
        ready_keys: deque[int] = deque()
        ready_services: deque[int] = deque()

        def dispatch(tenant: int, pool: int, start: int, arrival_ns: int, service: int) -> None:
            nonlocal seq, hops
            buf_tenant.append(tenant)
            buf_sojourn.append(start - arrival_ns + service)
            if len(buf_sojourn) >= _FLUSH_BATCH:
                flush()
            seq += 1
            heappush(heap, (((start + service) << sbits | seq) << tbits) | tenant << 1 | pool)
            hops += (service - 1) // interval

        tail = ([_END], [0], [0])
        for times, tenants, services in chain(self._chunks, (tail,)):
            for t, tenant, service in zip(times, tenants, services):
                bound = (t + 1) << low
                while True:
                    head = heap[0] if heap else never
                    if ready_keys and ready_keys[0] < head:
                        ready = ready_keys[0]
                        if ready >= bound:
                            break
                        ready_keys.popleft()
                        svc = ready_services.popleft()
                        now = ready >> low
                        dispatch((ready >> 1) & tmask, 1, now, now - spawn, svc)
                        continue
                    if head >= bound:
                        break
                    heappop(heap)
                    now = head >> low
                    completed += 1
                    if head & 1:
                        if waiting:
                            best = oldest()
                            arrival_ns, svc = backlogs[best].popleft()
                            waiting -= 1
                            dispatch(best, 1, now, arrival_ns, svc)
                        else:
                            shared_free += 1
                    else:
                        u = (head >> 1) & tmask
                        backlog = backlogs[u]
                        if backlog:
                            arrival_ns, svc = backlog.popleft()
                            waiting -= 1
                            dispatch(u, 0, now, arrival_ns, svc)
                        else:
                            pinned[u] += 1
                if t == _END:
                    break
                arrived_by[tenant] += 1
                if pinned[tenant]:
                    pinned[tenant] -= 1
                    dispatch(tenant, 0, t, t, service)
                elif shared_free:
                    shared_free -= 1
                    dispatch(tenant, 1, t, t, service)
                else:
                    backlog = backlogs[tenant]
                    if len(backlog) >= threshold:
                        cold_by[tenant] += 1
                        seq += 1
                        ready_keys.append(
                            (((t + spawn) << sbits | seq) << tbits) | tenant << 1 | 1
                        )
                        ready_services.append(service)
                    elif len(backlog) >= queue_caps[tenant]:
                        congested_by[tenant] += 1
                    else:
                        backlog.append((t, service))
                        waiting += 1
                        queued_by[tenant] += 1
                        if len(backlog) > max_backlog_by[tenant]:
                            max_backlog_by[tenant] = len(backlog)
                last = t
        flush()
        self.shared_free = shared_free
        self.waiting = waiting
        self.arrived = sum(arrived_by)
        self.completed = completed
        # Per arrival one event; per dispatch a completion plus its
        # renewal hops; per cold start a ready.
        self.events_processed = self.arrived + completed + hops + sum(cold_by)
        # A congested last arrival can outlive every completion.
        self.final_now_ns = max(now, last)


class _TenantDriver(_TenantBook):
    """The per-event multi-tenant FSM: the referee the walk is checked against.

    Arrivals ride one chained event at ``_ARRIVAL_PRIO``.  A dispatch
    schedules one completion event at the finish time -- its eid drawn
    *here*, at the dispatch sequence point, and its value the
    ``(tenant, pool)`` slot it frees -- plus, for leases longer than
    one check interval, a renewal-check hop chain.  The hops are pure
    bookkeeping (each re-arms only its own chain), which is what lets
    the walk count them instead of walking them.
    """

    __slots__ = (
        "env",
        "_chunks",
        "_times",
        "_tenants",
        "_services",
        "_pos",
        "_next_time",
        "_next_tenant",
        "_next_service",
        "_lease_cbs",
        "_cold_cbs",
        "_hop_cbs",
        "_schedule",
    )

    def __init__(self, env, config: MultiTenantConfig, shard: int, shards: int) -> None:
        super().__init__(config, shard, shards)
        self.env = env
        self._chunks = _tenant_chunks(config, shard, shards)
        self._times: list[int] = []
        self._tenants: list[int] = []
        self._services: list[int] = []
        self._pos = 0
        self._next_time = 0
        self._next_tenant = 0
        self._next_service = 0
        self._lease_cbs = (self._handle_lease,)
        self._cold_cbs = (self._handle_cold,)
        self._hop_cbs = (self._handle_hop,)
        self._schedule = env.schedule_timeout

    def _advance(self) -> None:
        """Prefetch the next (arrival time, tenant, service) triple."""
        pos = self._pos
        while pos >= len(self._times):
            self._times, self._tenants, self._services = next(self._chunks)
            pos = 0
        self._next_time = self._times[pos]
        self._next_tenant = self._tenants[pos]
        self._next_service = self._services[pos]
        self._pos = pos + 1

    def start(self) -> None:
        self._advance()
        event = BatchEvent(self.env, (self._handle_arrival,), 0)
        self.env.schedule(event, self._next_time, _ARRIVAL_PRIO)

    def drive(self) -> None:
        self.env.run()

    def _handle_arrival(self, event) -> None:
        env = self.env
        now = env._now
        tenant = self._next_tenant
        service = self._next_service
        self.arrived += 1
        self.arrived_by[tenant] += 1
        if self.arrived < self.count:
            self._advance()
            # Reused chained arrival event: at a shared nanosecond every
            # completion and ready fires first.
            env.schedule(event, self._next_time - now, _ARRIVAL_PRIO)
        if self.pinned[tenant]:
            self.pinned[tenant] -= 1
            self._begin(tenant, 0, now, service)
        elif self.shared_free:
            self.shared_free -= 1
            self._begin(tenant, 1, now, service)
        elif len(self.backlogs[tenant]) >= self._threshold:
            self.cold_by[tenant] += 1
            cold = BatchEvent(self.env, self._cold_cbs, (tenant, service))
            self._schedule(cold, self._spawn)
        elif len(self.backlogs[tenant]) >= self.queue_caps[tenant]:
            self.congested_by[tenant] += 1
        else:
            backlog = self.backlogs[tenant]
            backlog.append((now, service))
            self.waiting += 1
            self.queued_by[tenant] += 1
            if len(backlog) > self.max_backlog_by[tenant]:
                self.max_backlog_by[tenant] = len(backlog)

    def _begin(
        self, tenant: int, pool: int, arrival_ns: int, service: int, event=None
    ) -> None:
        """Dispatch into a slot: record the sojourn, schedule the
        completion (reusing *event* when one is handed over) and, for a
        lease longer than one interval, its hop chain."""
        now = self.env._now
        self._buf_tenant.append(tenant)
        self._buf_sojourn.append(now - arrival_ns + service)
        if len(self._buf_sojourn) >= _FLUSH_BATCH:
            self._flush()
        if event is None:
            event = BatchEvent(self.env, self._lease_cbs, (tenant, pool))
        else:
            event.callbacks = self._lease_cbs
            event._value = (tenant, pool)
        self._schedule(event, service)
        if service > self._interval:
            hop = BatchEvent(self.env, self._hop_cbs, now + service)
            self._schedule(hop, self._interval)

    def _handle_hop(self, event) -> None:
        """Per-interval lease-renewal check: re-arm while the next check
        still lands strictly before the lease's finish, then vanish.
        Fires exactly ``(service - 1) // interval`` times per lease."""
        if self.env._now + self._interval < event._value:
            self._schedule(event, self._interval)

    def _handle_lease(self, event) -> None:
        self.completed += 1
        tenant, pool = event._value
        if pool:
            if self.waiting:
                best = self._oldest_waiter()
                arrival_ns, service = self.backlogs[best].popleft()
                self.waiting -= 1
                self._begin(best, 1, arrival_ns, service, event)
            else:
                self.shared_free += 1
        else:
            backlog = self.backlogs[tenant]
            if backlog:
                arrival_ns, service = backlog.popleft()
                self.waiting -= 1
                self._begin(tenant, 0, arrival_ns, service, event)
            else:
                self.pinned[tenant] += 1

    def _handle_cold(self, event) -> None:
        """Sandbox ready: the cold executor joins the *shared* tier --
        its spin-up event becomes the invocation's completion event, and
        at completion it serves shared-tier hand-off like any other
        slot."""
        tenant, service = event._value
        self._begin(tenant, 1, self.env._now - self._spawn, service, event)

    def finish(self) -> None:
        self._flush()


@dataclass
class TenantShardResult:
    """One shard of the multi-tenant scenario: per-tenant accumulators
    (exact integer counters + keyed streaming summaries) plus the
    per-environment measurement."""

    shard: int
    shards: int
    names: list[str]
    invocations: int
    completed: int
    arrived_by: list[int]
    dispatched_by: list[int]
    missed_by: list[int]
    congested_by: list[int]
    queued_by: list[int]
    cold_by: list[int]
    max_backlog_by: list[int]
    sojourn_totals: list[int]
    sojourn_total: int
    events_processed: int
    wall_s: float
    peak_rss_bytes: int
    final_now_ns: int
    timeout_pool_hits: int
    keyed: KeyedStreamingSummary


@dataclass
class TenantStats:
    """One tenant's admission outcomes and sojourn tail over a run."""

    name: str
    arrived: int
    dispatched: int
    missed: int
    congested: int
    queued: int
    cold_starts: int
    max_backlog: int
    sojourn_total: int
    latency: Optional[SummaryStats]

    @property
    def succeeded(self) -> int:
        """SUCCESS outcomes: dispatched and made the deadline."""
        return self.dispatched - self.missed

    @property
    def miss_rate(self) -> float:
        """DEADLINE_MISSED per dispatched invocation."""
        return self.missed / self.dispatched if self.dispatched else 0.0

    @property
    def congestion_rate(self) -> float:
        """CONGESTION rejections per arrival."""
        return self.congested / self.arrived if self.arrived else 0.0


@dataclass
class TenantScaleResult:
    """A multi-tenant open-loop run (merged across shards)."""

    admission: str
    partitioning: str
    pool_policy: str
    shards: int
    invocations: int
    workers: int
    completed: int
    events_processed: int
    wall_s: float
    events_per_sec: float
    peak_rss_bytes: int
    final_now_ns: int
    queued: int
    congested: int
    missed: int
    cold_starts: int
    latency: SummaryStats
    tenants: dict[str, TenantStats]
    stream_buckets: int
    #: Always empty; kept because the perfbench harness still reads it.
    occupancy: dict[str, int] = field(default_factory=dict)

    def fingerprint(self) -> dict[str, Any]:
        """Simulated-domain outputs: identical across admissions and
        (in the unsaturated regime) across K=1/K=2 shard splits."""
        per_tenant = {}
        for name, t in self.tenants.items():
            stats = {
                "arrived": t.arrived,
                "dispatched": t.dispatched,
                "missed": t.missed,
                "congested": t.congested,
                "queued": t.queued,
                "cold_starts": t.cold_starts,
                "sojourn_total": t.sojourn_total,
            }
            if t.latency is not None:
                stats.update(
                    latency_median_ns=t.latency.median,
                    latency_p95_ns=t.latency.p95,
                    latency_p99_ns=t.latency.p99,
                    latency_min_ns=t.latency.minimum,
                    latency_max_ns=t.latency.maximum,
                )
            per_tenant[name] = stats
        return {
            "invocations": self.invocations,
            "completed": self.completed,
            "events_processed": self.events_processed,
            "final_now_ns": self.final_now_ns,
            "queued": self.queued,
            "congested": self.congested,
            "missed": self.missed,
            "cold_starts": self.cold_starts,
            "latency_p99_ns": self.latency.p99,
            "latency_mean_ns": self.latency.mean,
            "tenants": per_tenant,
        }

    def table(self) -> Table:
        table = Table(
            f"Multi-tenant scale run -- {self.invocations:,} invocations, "
            f"{self.partitioning} partitioning ({self.admission} admission)",
            [
                "tenant",
                "arrived",
                "p95 sojourn",
                "p99 sojourn",
                "miss rate",
                "congestion",
                "queued",
                "cold",
            ],
        )
        for name, t in self.tenants.items():
            table.add_row(
                name,
                f"{t.arrived:,}",
                format_ns(t.latency.p95) if t.latency else "-",
                format_ns(t.latency.p99) if t.latency else "-",
                f"{t.miss_rate:.4f}",
                f"{t.congestion_rate:.4f}",
                f"{t.queued:,}",
                f"{t.cold_starts:,}",
            )
        table.add_row(
            "(all)",
            f"{self.invocations:,}",
            format_ns(self.latency.p95),
            format_ns(self.latency.p99),
            f"{self.missed / max(1, self.completed):.4f}",
            f"{self.congested / max(1, self.invocations):.4f}",
            f"{self.queued:,}",
            f"{self.cold_starts:,}",
        )
        return table


def _run_tenant_shard(
    shard: int,
    shards: int,
    specs: tuple,
    workers: int = 1 << 21,
    partitioning: str = "pinned",
    admission: str = "batch",
    pool_policy: str = "queue",
    start_model: str = "remote-fork",
    hybrid_threshold: int = 64,
    lease_check_interval_ns: int = ms(64),
    seed: int = 0x7E7A77,
    subbits: int = 8,
) -> TenantShardResult:
    """Run one shard of the multi-tenant scenario (picklable factory)."""
    _validate_admission(admission)
    _validate_partitioning(partitioning)
    _validate_pool_policy(pool_policy, start_model, 0, hybrid_threshold)
    if not 0 <= shard < shards:
        raise ValueError(f"shard {shard} outside [0, {shards})")
    config = MultiTenantConfig(
        specs=tuple(specs),
        workers=workers,
        partitioning=partitioning,
        lease_check_interval_ns=lease_check_interval_ns,
        seed=seed,
        admission=admission,
        subbits=subbits,
        shards=shards,
        pool_policy=pool_policy,
        start_model=start_model,
        hybrid_threshold=hybrid_threshold,
    )
    pin_thresholds()
    driver: Any
    if admission == "batch":
        # Under the queue policy only an overflow plan, which mixes
        # pinned and shared slots, needs the walk's event order.
        fifo = pool_policy == "queue" and partitioning != "overflow"
        driver = (_TenantFifo if fifo else _TenantWalk)(config, shard, shards)
        started = time.perf_counter()
        driver.drive()
        wall_s = time.perf_counter() - started
        events, now, pool_hits = driver.events_processed, driver.final_now_ns, 0
    else:
        env = Environment()
        driver = _TenantDriver(env, config, shard, shards)
        driver.start()
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        started = time.perf_counter()
        try:
            driver.drive()
        finally:
            if gc_was_enabled:
                gc.enable()
        wall_s = time.perf_counter() - started
        driver.finish()
        events, now, pool_hits = env.events_processed, env.now, env.timeout_pool_hits

    congested = sum(driver.congested_by)
    if driver.completed + congested != driver.count:
        raise RuntimeError(
            f"tenant shard {shard}/{shards} lost invocations: "
            f"{driver.completed} completed + {congested} congested "
            f"of {driver.count}"
        )
    return TenantShardResult(
        shard=shard,
        shards=shards,
        names=list(driver.names),
        invocations=driver.count,
        completed=driver.completed,
        arrived_by=list(driver.arrived_by),
        dispatched_by=list(driver.dispatched_by),
        missed_by=list(driver.missed_by),
        congested_by=list(driver.congested_by),
        queued_by=list(driver.queued_by),
        cold_by=list(driver.cold_by),
        max_backlog_by=list(driver.max_backlog_by),
        sojourn_totals=list(driver.sojourn_totals),
        sojourn_total=driver.sojourn_total,
        events_processed=events,
        wall_s=wall_s,
        peak_rss_bytes=_peak_rss_bytes(),
        final_now_ns=now,
        timeout_pool_hits=pool_hits,
        keyed=driver.keyed,
    )


def merge_tenant_shards(
    results: list[TenantShardResult],
    *,
    admission: str,
    partitioning: str,
    pool_policy: str,
    workers: int,
    wall_s: float,
) -> TenantScaleResult:
    """Fold per-shard tenant accumulators, in shard order, into one result.

    Counts sum per tenant; clocks take the max; the keyed summaries
    fold with the exact :meth:`KeyedStreamingSummary.merge` path, and
    every per-tenant mean comes from summed exact integer totals.  The
    all-tenant summary merges the tenants' parts: histogram counts,
    min and max fold exactly, and its mean is the exact total too."""
    if not results:
        raise ValueError("merge of zero tenant shards")
    if [r.shard for r in results] != list(range(len(results))):
        raise ValueError("tenant shard results must arrive complete and in shard order")
    names = results[0].names
    keyed = KeyedStreamingSummary.merged([r.keyed for r in results])
    stream = StreamingSummary.merged(keyed.parts[k] for k in keyed.keys())
    tenants: dict[str, TenantStats] = {}
    for t, name in enumerate(names):
        dispatched = sum(r.dispatched_by[t] for r in results)
        sojourn_total = sum(r.sojourn_totals[t] for r in results)
        if dispatched:
            latency = replace(
                keyed.summarize(name), mean=sojourn_total / dispatched
            )
        else:
            latency = None
        tenants[name] = TenantStats(
            name=name,
            arrived=sum(r.arrived_by[t] for r in results),
            dispatched=dispatched,
            missed=sum(r.missed_by[t] for r in results),
            congested=sum(r.congested_by[t] for r in results),
            queued=sum(r.queued_by[t] for r in results),
            cold_starts=sum(r.cold_by[t] for r in results),
            max_backlog=max(r.max_backlog_by[t] for r in results),
            sojourn_total=sojourn_total,
            latency=latency,
        )
    events = sum(r.events_processed for r in results)
    completed = sum(r.completed for r in results)
    return TenantScaleResult(
        admission=admission,
        partitioning=partitioning,
        pool_policy=pool_policy,
        shards=len(results),
        invocations=sum(r.invocations for r in results),
        workers=workers,
        completed=completed,
        events_processed=events,
        wall_s=wall_s,
        events_per_sec=events / wall_s if wall_s > 0 else 0.0,
        peak_rss_bytes=max(r.peak_rss_bytes for r in results),
        final_now_ns=max(r.final_now_ns for r in results),
        queued=sum(sum(r.queued_by) for r in results),
        congested=sum(sum(r.congested_by) for r in results),
        missed=sum(sum(r.missed_by) for r in results),
        cold_starts=sum(sum(r.cold_by) for r in results),
        latency=replace(
            stream.summarize(),
            mean=sum(r.sojourn_total for r in results) / stream.count,
        ),
        tenants=tenants,
        stream_buckets=len(stream.histogram) + keyed.buckets(),
    )


def run_tenant_scale(
    specs=None,
    invocations: Optional[int] = None,
    rate_scale: float = 1.0,
    compute_scale: float = 1.0,
    workers: int = 1 << 21,
    partitioning: str = "pinned",
    admission: str = "batch",
    pool_policy: str = "queue",
    start_model: str = "remote-fork",
    hybrid_threshold: int = 64,
    lease_check_interval_ns: int = ms(64),
    seed: int = 0x7E7A77,
    subbits: int = 8,
    shards: int = 1,
    parallel: int = 1,
    cache_dir: Optional[str] = None,
) -> TenantScaleResult:
    """Drive the multi-tenant open-loop scenario once and measure it.

    *specs* defaults to :func:`repro.workloads.tenants.standard_mix`
    rescaled by (*invocations*, *rate_scale*, *compute_scale*); pass an
    explicit mix to override.  ``shards > 1`` decomposes the one merged
    calendar by global arrival index (partition split) and fans the
    shards out over ``parallel`` worker processes -- exact in the
    unsaturated regime, where the K-shard merge is bit-identical to
    the 1-shard run.
    """
    if specs is None:
        specs = standard_mix(invocations, rate_scale, compute_scale)
    specs = tuple(specs)
    if not specs:
        raise ValueError("multi-tenant run needs at least one tenant spec")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"tenant names must be unique, got {names}")
    _validate_admission(admission)
    _validate_partitioning(partitioning)
    _validate_pool_policy(pool_policy, start_model, 0, hybrid_threshold)
    total = sum(spec.invocations for spec in specs)
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards > total:
        raise ValueError(f"{shards} shards for {total} invocations (some get none)")
    _tenant_pool_plan(specs, workers, partitioning, shards)  # fail fast on thin pools
    shared_kwargs = dict(
        shards=shards,
        specs=specs,
        workers=workers,
        partitioning=partitioning,
        admission=admission,
        pool_policy=pool_policy,
        start_model=start_model,
        hybrid_threshold=hybrid_threshold,
        lease_check_interval_ns=lease_check_interval_ns,
        seed=seed,
        subbits=subbits,
    )
    if shards == 1:
        started = time.perf_counter()
        outcomes: list = [_run_tenant_shard(shard=0, **shared_kwargs)]
        wall_s = time.perf_counter() - started
    else:
        from repro.parallel import FailedPoint, RunSpec, run_specs

        run_spec_list = [
            RunSpec(
                factory="repro.experiments.scale:_run_tenant_shard",
                kwargs={"shard": shard, **shared_kwargs},
                index=shard,
                label=f"tenant-shard[{shard}/{shards}]",
            )
            for shard in range(shards)
        ]
        cache = None
        if cache_dir is not None:
            from repro.cache import ResultCache

            cache = ResultCache(cache_dir)
        started = time.perf_counter()
        outcomes = run_specs(run_spec_list, parallel, cache=cache)
        wall_s = time.perf_counter() - started
        failed = [o for o in outcomes if isinstance(o, FailedPoint)]
        if failed:
            raise RuntimeError(f"multi-tenant run failed: {failed[0].summary()}")
    return merge_tenant_shards(
        outcomes,
        admission=admission,
        partitioning=partitioning,
        pool_policy=pool_policy,
        workers=workers,
        wall_s=wall_s,
    )
