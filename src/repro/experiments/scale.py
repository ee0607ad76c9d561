"""Million-invocation open-loop load harness (the scale engine demo).

The paper's pitch is *high-performance* serverless: a cluster absorbing
enormous bursts of sub-millisecond invocations under leases.  The
figure harnesses drive at most ~10^5 events; this one drives
**>= 10^6 invocations** through the simulator in a single run and is
the workload the :mod:`repro.sim.wheel` timer wheel exists for.

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
  The lease timer is one :class:`~repro.sim.events.Timeout` *reused*
  across renewals -- re-armed in place via ``schedule_timeout`` -- so a
  400 ms invocation costs ~8 scheduler operations and zero per-renewal
  allocations.  The final re-arm lands exactly on the finish time, so
  sojourn times are exact, not quantized to the check interval.

Engines -- which one runs is fixed by the knobs the caller already
passes (see ``_simulate``):

* ``pool_policy="queue"`` on the default engine (wheel scheduler, batch
  admission) walks no events at all.  Under a FIFO backlog no output
  depends on event interleaving, so :class:`_FifoDriver` computes the
  run as an exact c-server FIFO recurrence and derives the event count
  in closed form -- bit-identical fingerprints, several times faster.
* ``"cold"``/``"hybrid"`` need the event order (a dry arrival's choice
  reads the backlog).  Batch admission on the wheel runs the ColdLane
  kernel at keepalive 0 and the batch kernel otherwise.
* ``scheduler="heap"`` and ``admission="per-event"`` always walk every
  event: they are the referees the fast engines are checked against.

Implementation notes for the event engines (hot loops):

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
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Union

import numpy as np

from repro.analysis.latency import FifoServers
from repro.analysis.reporting import Table, format_bytes, format_ns
from repro.analysis.stats import SummaryStats
from repro.analysis.streams import KeyedStreamingSummary, StreamingSummary
from repro.core.sandbox import SANDBOX_PROFILES
from repro.sim.arrivals import DIURNAL_DAY, arrival_times, merge_tenant_streams
from repro.sim.events import BatchEvent, TenantEvent
from repro.sim.clock import ms, us
from repro.sim.rng import RngStreams, shard_seed
from repro.sim.wheel import WheelEnvironment, new_environment, validate_granularity_bits
from repro.workloads.tenants import TenantSpec, split_by_weights, standard_mix

#: Latencies buffered before a vectorized flush into the streaming
#: summary -- the only per-sample storage, bounded regardless of run
#: length.
_FLUSH_BATCH = 1 << 16
#: Pre-drawn RNG chunk size (amortizes numpy call overhead).
_RNG_CHUNK = 1 << 16
#: Priority for chunk-admitted arrival events.  The per-event referee
#: assigns each arrival's eid one arrival gap before it fires, so at a
#: shared timestamp the arrival is always the youngest entry and fires
#: after every kernel event; chunk admission draws arrival eids up to a
#: whole chunk (~2^16 arrivals) early, which would let young kernel
#: events -- cold spin-ups scheduled spawn_ns (~1 ms) out, reclaims
#: scheduled keepalive_ns out -- overtake a coincident arrival.  Riding
#: arrivals one priority below NORMAL restores the referee's tie order
#: without per-arrival eid bookkeeping.
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
    #: Event-loop scheduler: "heap" or "wheel" (see RFaaSConfig.scheduler).
    scheduler: Optional[str] = "wheel"
    #: Wheel slot width, 2**bits ns, or ``"auto"`` (default): start at
    #: the wheel's own 256 ns granularity and let the occupancy-band
    #: controller re-anchor to the regime it observes -- the scale
    #: scenario converges to the hand-tuned 2**16-ish ns within the
    #: first adaptation window.  Ignored for "heap".
    granularity_bits: Union[int, str] = "auto"
    #: Arrival admission: "batch" (default) bucket-sorts whole numpy
    #: arrival chunks into the scheduler via ``schedule_batch``;
    #: "per-event" drives one ``timeout()`` per arrival (the referee
    #: the bit-identity contract is checked against).  Under the
    #: "queue" policy, "batch" on the wheel runs the exact FIFO
    #: recurrence instead of walking events (see ``_simulate``).
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

    scheduler: str
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
    #: Peak scheduler occupancy ({"wheel": ..., "heap": ...} and friends);
    #: empty for the plain heap environment.
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
        """The simulated-domain outputs -- identical across schedulers.

        Wall-clock, RSS and scheduler occupancy are measurement
        artifacts and excluded; everything here must match bit-for-bit
        between heap and wheel runs of the same config.
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
            f"({self.scheduler} scheduler)",
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
        if self.occupancy:
            table.add_row(
                "peak wheel/heap residency",
                f"{self.occupancy.get('wheel', 0):,} / {self.occupancy.get('heap', 0):,}",
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
    scheduler: str = "wheel",
    seed: int = 0x5CA1E,
    mean_arrival_gap_ns: int = 250,
    service_log_mean: float = 19.8,
    service_log_sigma: float = 0.6,
    lease_check_interval_ns: int = ms(64),
    granularity_bits: Union[int, str] = "auto",
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
    validate_granularity_bits(granularity_bits)
    _validate_admission(admission)
    _validate_pool_policy(pool_policy, start_model, keepalive_ns, hybrid_threshold)
    if shards != 1 or arrival_shape != "poisson":
        if profile:
            raise ValueError("--profile supports the single-shard poisson path only")
        return run_scale_sharded(
            invocations=invocations,
            workers=workers,
            shards=max(1, shards),
            scheduler=scheduler,
            seed=seed,
            mean_arrival_gap_ns=mean_arrival_gap_ns,
            service_log_mean=service_log_mean,
            service_log_sigma=service_log_sigma,
            lease_check_interval_ns=lease_check_interval_ns,
            granularity_bits=granularity_bits,
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
        scheduler=scheduler,
        granularity_bits=granularity_bits,
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
        scheduler=config.scheduler or "heap",
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
        occupancy=run.occupancy,
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
    return np.clip(draws.astype(np.int64), config.min_service_ns, config.max_service_ns)


def _shard_chunks(config: ScaleConfig, shard: int, shards: int, lists: bool = True):
    """Yield this shard's ``(arrival_times, services)`` chunks.

    Consumption order is arrival order, so services are assigned by
    **arrival index**, not dispatch order -- the property that makes the
    decomposition independent of each shard's queueing dynamics.

    With ``lists=True`` (the per-event driver) both come as Python
    lists for cheap scalar iteration; with ``lists=False`` they stay
    ``int64`` arrays, ready for vectorized ``schedule_batch`` admission
    and the FIFO recurrence.
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
      is the ``_ARRIVAL_PRIO`` order of the batch kernels.

    No environment and no timers: the slot heap carries across chunks,
    so memory stays bounded by the pool size.
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
            finish = self.pool.serve(times, services) + services
            sojourn = finish - times
            self.sojourn_total += int(sojourn.sum())
            self.stream.observe_many(sojourn)
            self.completed += times.size
            self.events_processed += 2 * times.size + int(((services - 1) // interval).sum())
            self.final_now_ns = max(self.final_now_ns, int(finish.max()))


class _ShardDriver:
    """The open-loop FSM over a pre-decomposed arrival/service stream.

    Arrivals come as absolute times with services pre-assigned per
    arrival index, so any slice of the global scenario replays
    identically whatever happens in the other shards.  Every running
    invocation holds a lease timer re-armed each interval until it
    finishes; a dry pool queues FIFO or, under the cold policies, spins
    a sandbox up.

    Two admission modes (``config.admission``):

    * ``"per-event"`` -- one ``timeout()`` per arrival, chained from the
      previous arrival's callback: the referee every fast engine is
      checked against, on either scheduler.
    * ``"batch"`` -- each pre-generated arrival chunk is bucket-sorted
      into the scheduler in one vectorized ``schedule_batch`` call and
      a fused closure kernel runs the FSM:
      :meth:`_install_cold_lane_kernel` for the cold policies at
      keepalive 0 on the wheel, :meth:`_install_batch_kernel`
      otherwise.

    The ``queue`` policy with batch admission on the wheel never builds
    this driver: :func:`_simulate` runs it as :class:`_FifoDriver`'s
    recurrence.
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
        "occupancy_peaks",
        "_interval",
        "_chunks",
        "_times",
        "_services",
        "_pos",
        "_next_time",
        "_next_service",
        "_buffer",
        "sojourn_total",
        "_batch",
        "_lease_cbs",
        "_schedule",
        "_kernel_sync",
        "_kernel_drive",
        "_on_arrival",
        "_on_lease",
        "_is_wheel",
        "_cold_mode",
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
        "_on_cold",
        "_on_reclaim",
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
        self.occupancy_peaks: dict[str, int] = {}
        self._interval = config.lease_check_interval_ns
        self._batch = config.admission == "batch"
        self._chunks = _shard_chunks(config, shard, shards, lists=not self._batch)
        self._times: list[int] = []
        self._services: list[int] = []
        self._pos = 0
        self._next_time = 0
        self._next_service = 0
        self._buffer: list[int] = []
        self.sojourn_total = 0
        # Batch mode installs a closure kernel in start(); the method
        # FSM below serves per-event mode.
        self._on_arrival = self._handle_arrival
        self._on_lease = self._handle_lease
        #: One shared callbacks tuple for every lease timeout: the run
        #: loop only reads and detaches callbacks, so re-arms and fresh
        #: dispatches alike avoid a per-event list allocation.
        self._lease_cbs = (self._on_lease,)
        #: Bound once: ~7 re-arms per invocation go through this.
        self._schedule = env.schedule_timeout
        self._kernel_sync: Any = None
        self._kernel_drive: Any = None
        self._is_wheel = isinstance(env, WheelEnvironment)
        # -- cold-start path (pool_policy != "queue") ------------------
        policy = config.pool_policy
        self._cold_mode = policy != "queue"
        #: Backlog depth at which a dry-pool arrival goes cold instead
        #: of queueing: 0 = always ("cold"), huge = never ("queue").
        if policy == "cold":
            self._threshold = 0
        elif policy == "hybrid":
            self._threshold = config.hybrid_threshold
        else:
            self._threshold = 1 << 62
        self._spawn = SANDBOX_PROFILES[config.start_model].spawn_ns(1)
        self._keepalive = config.keepalive_ns
        self.cold_starts = 0
        self.cold_busy_ns = 0
        self.cold_reclaimed = 0
        self.cold_retained = 0
        self.cold_alive = 0
        self._on_cold = self._handle_cold
        self._on_reclaim = self._handle_reclaim
        self._cold_cbs = (self._on_cold,)
        self._reclaim_cbs = (self._on_reclaim,)

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
        if self._batch:
            if self._cold_mode and self._is_wheel and not self._keepalive:
                self._install_cold_lane_kernel()
            else:
                self._install_batch_kernel()
            return
        self._advance()
        timeout = self.env.timeout(self._next_time)
        timeout.callbacks.append(self._on_arrival)

    def drive(self) -> None:
        """Run the simulation to completion (fused loop when available)."""
        kernel = self._kernel_drive
        if kernel is not None:
            kernel()
        else:
            self.env.run()

    def _install_batch_kernel(self) -> None:
        """Build the batch-mode FSM as closures and admit the first chunk.

        The arrival/lease handlers run ~9 million times per million
        invocations; closing their state over cells (LOAD_DEREF) instead
        of attribute access roughly halves the interpreter work per
        event.  Three further hot-path savings over the method FSM:

        * the just-processed arrival BatchEvent is *reused* as its own
          lease timer (value/callbacks re-set, rescheduled) -- a
          dispatch allocates nothing;
        * a completed lease event is likewise reused for the backlogged
          invocation it hands its slot to;
        * the dominant re-arm destination -- a level-0 wheel slot ahead
          of the cursor -- is filed inline against stable wheel
          internals (``_slots0``/``_mask0``/``_eid`` never change
          identity, even across re-anchors), with everything else
          falling back to ``schedule_timeout``.  The entry tuples and
          eid allocation points are identical, so pop order -- hence the
          fingerprint -- is untouched.

        Simulated-domain state is written back by ``finish()`` via the
        ``_sync`` closure; ``_buffer``/``backlog``/``occupancy_peaks``
        are shared mutable objects and need no sync.
        """
        env = self.env
        schedule = env.schedule_timeout
        schedule_batch = env.schedule_batch
        interval = self._interval
        flush_batch = _FLUSH_BATCH
        flush = self._flush
        sample = self._sample_wheel
        buffer = self._buffer
        backlog = self.backlog
        chunks = self._chunks
        total = self.count
        is_wheel = self._is_wheel
        if is_wheel:
            slots0 = env._slots0
            mask0 = env._mask0
            eid = env._eid
            # Bound once: _eid is never rebound, even across re-anchors.
            eidn = eid.__next__
        else:
            slots0 = mask0 = eid = eidn = None
        free_slots = self.free_slots
        arrived = 0
        completed = 0
        queued = 0
        max_backlog = 0
        services: list[int] = []
        nservices = 0
        pos = 0
        lease_cbs: tuple = ()
        # Cold-start knobs (threshold is 1 << 62 under "queue", so the
        # saturated-arrival path costs one extra int compare).
        spawn = self._spawn
        keepalive = self._keepalive
        threshold = self._threshold
        cold_starts = 0
        cold_busy_ns = 0
        cold_reclaimed = 0
        cold_retained = 0
        cold_alive = 0
        cold_cbs: tuple = ()
        reclaim_cbs: tuple = ()

        def admit_chunk() -> None:
            nonlocal services, nservices, pos
            times, served = next(chunks)
            services = served.tolist()
            nservices = len(services)
            pos = 0
            schedule_batch(times, on_arrival, _ARRIVAL_PRIO)

        def on_arrival(event) -> None:
            nonlocal pos, arrived, free_slots, queued, max_backlog
            nonlocal cold_starts, cold_busy_ns
            now = env._now
            service = services[pos]
            pos += 1
            arrived += 1
            # Admit the successor chunk from the *last* arrival of the
            # current one, before its dispatch -- the same point in the
            # event order where the per-event driver schedules its next
            # arrival timeout.
            if pos == nservices and arrived < total:
                admit_chunk()
            if free_slots:
                free_slots -= 1
                buffer.append(service)  # sojourn: zero wait + service
                if len(buffer) >= flush_batch:
                    flush()
                event._value = now + service
                event.callbacks = lease_cbs
                delay = service if service <= interval else interval
                if is_wheel:
                    when = now + delay
                    s0 = when >> env._gbits
                    d0 = s0 - env._cursor
                    if 0 < d0 <= mask0:
                        slots0[s0 & mask0].append((when, 1, next(eid), event))
                        env._l0_count += 1
                        return
                schedule(event, delay)
            elif len(backlog) >= threshold:
                cold_starts += 1
                cold_busy_ns += spawn + service
                schedule(BatchEvent(env, cold_cbs, service), spawn)
            else:
                backlog.append((now, service))
                queued += 1
                if len(backlog) > max_backlog:
                    max_backlog = len(backlog)

        def on_lease(event) -> None:
            nonlocal completed, free_slots
            now = env._now
            remaining = event._value - now
            if remaining > 0:
                # The lease descriptor is a tuple, so the loop never
                # detached it: re-arming is just a re-insert.
                delay = interval if remaining > interval else remaining
                if is_wheel:
                    when = now + delay
                    s0 = when >> env._gbits
                    d0 = s0 - env._cursor
                    if 0 < d0 <= mask0:
                        slots0[s0 & mask0].append((when, 1, next(eid), event))
                        env._l0_count += 1
                        return
                schedule(event, delay)
                return
            completed += 1
            if not completed & 0x3FF and is_wheel:
                sample()
            if backlog:
                arrival_ns, service = backlog.popleft()
                buffer.append(now - arrival_ns + service)
                if len(buffer) >= flush_batch:
                    flush()
                event._value = now + service
                delay = service if service <= interval else interval
                if is_wheel:
                    when = now + delay
                    s0 = when >> env._gbits
                    d0 = s0 - env._cursor
                    if 0 < d0 <= mask0:
                        slots0[s0 & mask0].append((when, 1, next(eid), event))
                        env._l0_count += 1
                        return
                schedule(event, delay)
            else:
                free_slots += 1

        def on_cold(event) -> None:
            """Sandbox ready: record the cold sojourn and start the
            invocation on the new executor, reusing the spin-up event as
            its lease timer (lease eid first, reclaim eid second, as in
            the per-event referee).  Dispatched through the generic
            foreign-event path: cold events are rare by construction, so
            they never earn a fused branch."""
            nonlocal cold_alive
            now = env._now
            service = event._value
            buffer.append(spawn + service)
            if len(buffer) >= flush_batch:
                flush()
            cold_alive += 1
            event._value = now + service
            event.callbacks = lease_cbs
            schedule(event, service if service <= interval else interval)
            if keepalive:
                schedule(BatchEvent(env, reclaim_cbs, 0), keepalive)

        def on_reclaim_ev(_event) -> None:
            """Idle-reclaim expiry: tear one cold executor down iff the
            pool has an idle slot to give back."""
            nonlocal free_slots, cold_alive, cold_reclaimed, cold_retained
            if free_slots and cold_alive:
                free_slots -= 1
                cold_alive -= 1
                cold_reclaimed += 1
            else:
                cold_retained += 1

        def drive() -> None:
            """Fused event loop: the wheel's pop fast path with both
            kernel handlers inlined.

            ``WheelEnvironment.run`` costs a Python call frame, an
            ``env._now`` store, a class check and a failure check per
            event before the handler does any work; at ~9 events per
            invocation that overhead alone is seconds per million
            invocations.  This loop recognizes the kernel's own events
            by their dispatch-descriptor identity (``lease_cbs``, or a
            tuple holding ``on_arrival``) and runs the handler bodies
            inline with ``now`` kept in a local.  Everything the run
            loop would have done for these events is replicated: same
            pop order (identical guard structure over the same spill /
            overflow / active objects), same ``events_processed``
            accounting, and ``env._now`` / ``env._ai`` are synced
            before any call that can observe them (``_pop``, the
            ``schedule_timeout`` fallback, chunk admission, occupancy
            sampling, foreign callbacks) and in ``finally``.  The
            failure check is skipped only for the kernel's own events,
            which are constructed ``_ok`` and never fail; foreign
            events get the full generic treatment.  Invariants relied
            on: callbacks never rebind ``_active`` / ``_spill`` /
            ``_queue`` (refill and re-anchor drain them in place, and
            only inside ``_pop``), and inline L0 inserts never target
            the active bucket (``0 < d0`` excludes the cursor slot).
            """
            nonlocal pos, arrived, completed, free_slots, queued, max_backlog
            nonlocal cold_starts, cold_busy_ns
            pop = env._pop
            spill = env._spill
            overflow = env._queue
            active = env._active
            ai = env._ai
            alen = len(active)
            processed = 0
            now = env._now
            # Shadowed wheel state, valid between "cold" calls (_pop,
            # the schedule fallback, chunk admission, foreign
            # callbacks): _gbits/_cursor only change inside those calls,
            # so they live in locals and are re-read afterwards;
            # inline-insert increments of _l0_count accumulate in
            # l0_add and are flushed to the wheel before every cold
            # call (whose dry-wheel checks read the true count) and on
            # exit.  `clear` is True while the spill and overflow heaps
            # are both empty -- they only gain entries during cold
            # calls and only drain here -- letting the common case
            # skip both head-comparison guards per event.
            gbits = env._gbits
            cursor = env._cursor
            l0_add = 0
            clear = not spill and not overflow
            try:
                while True:
                    if ai < alen:
                        if clear:
                            entry = active[ai]
                            active[ai] = None
                            ai += 1
                        else:
                            entry = active[ai]
                            if spill and spill[0] < entry:
                                head = spill[0]
                                if overflow and overflow[0] < head:
                                    entry = heappop(overflow)
                                else:
                                    entry = heappop(spill)
                                clear = not spill and not overflow
                            elif overflow and overflow[0] < entry:
                                entry = heappop(overflow)
                                clear = not spill and not overflow
                            else:
                                active[ai] = None
                                ai += 1
                    else:
                        env._ai = ai
                        env._now = now
                        if l0_add:
                            env._l0_count += l0_add
                            l0_add = 0
                        try:
                            entry = pop()
                        except IndexError:
                            return
                        active = env._active
                        ai = env._ai
                        alen = len(active)
                        gbits = env._gbits
                        cursor = env._cursor
                        clear = not spill and not overflow
                    now = entry[0]
                    event = entry[3]
                    processed += 1
                    cbs = event.callbacks
                    if cbs is lease_cbs:
                        deadline = event._value
                        if deadline > now:
                            when = now + interval
                            if when > deadline:
                                when = deadline
                            s0 = when >> gbits
                            d0 = s0 - cursor
                            if 0 < d0 <= mask0:
                                slots0[s0 & mask0].append((when, 1, eidn(), event))
                                l0_add += 1
                            else:
                                env._now = now
                                env._ai = ai
                                if l0_add:
                                    env._l0_count += l0_add
                                    l0_add = 0
                                schedule(event, when - now)
                                gbits = env._gbits
                                cursor = env._cursor
                                clear = not spill and not overflow
                            continue
                        completed += 1
                        if not completed & 0x3FF:
                            env._now = now
                            env._ai = ai
                            if l0_add:
                                env._l0_count += l0_add
                                l0_add = 0
                            sample()
                        if backlog:
                            arrival_ns, service = backlog.popleft()
                            buffer.append(now - arrival_ns + service)
                            if len(buffer) >= flush_batch:
                                # flush() force-samples occupancy: give
                                # it the true wheel state first.
                                env._now = now
                                env._ai = ai
                                if l0_add:
                                    env._l0_count += l0_add
                                    l0_add = 0
                                flush()
                            deadline = now + service
                            event._value = deadline
                            when = now + interval
                            if when > deadline:
                                when = deadline
                            s0 = when >> gbits
                            d0 = s0 - cursor
                            if 0 < d0 <= mask0:
                                slots0[s0 & mask0].append((when, 1, eidn(), event))
                                l0_add += 1
                            else:
                                env._now = now
                                env._ai = ai
                                if l0_add:
                                    env._l0_count += l0_add
                                    l0_add = 0
                                schedule(event, when - now)
                                gbits = env._gbits
                                cursor = env._cursor
                                clear = not spill and not overflow
                        else:
                            free_slots += 1
                        continue
                    if cbs.__class__ is tuple and cbs[0] is on_arrival:
                        service = services[pos]
                        pos += 1
                        arrived += 1
                        if pos == nservices and arrived < total:
                            env._now = now
                            env._ai = ai
                            if l0_add:
                                env._l0_count += l0_add
                                l0_add = 0
                            admit_chunk()
                            gbits = env._gbits
                            cursor = env._cursor
                            clear = not spill and not overflow
                        if free_slots:
                            free_slots -= 1
                            buffer.append(service)
                            if len(buffer) >= flush_batch:
                                # flush() force-samples occupancy: give
                                # it the true wheel state first.
                                env._now = now
                                env._ai = ai
                                if l0_add:
                                    env._l0_count += l0_add
                                    l0_add = 0
                                flush()
                            deadline = now + service
                            event._value = deadline
                            event.callbacks = lease_cbs
                            when = now + interval
                            if when > deadline:
                                when = deadline
                            s0 = when >> gbits
                            d0 = s0 - cursor
                            if 0 < d0 <= mask0:
                                slots0[s0 & mask0].append((when, 1, eidn(), event))
                                l0_add += 1
                            else:
                                env._now = now
                                env._ai = ai
                                if l0_add:
                                    env._l0_count += l0_add
                                    l0_add = 0
                                schedule(event, when - now)
                                gbits = env._gbits
                                cursor = env._cursor
                                clear = not spill and not overflow
                        elif len(backlog) >= threshold:
                            cold_starts += 1
                            cold_busy_ns += spawn + service
                            env._now = now
                            env._ai = ai
                            if l0_add:
                                env._l0_count += l0_add
                                l0_add = 0
                            schedule(BatchEvent(env, cold_cbs, service), spawn)
                            gbits = env._gbits
                            cursor = env._cursor
                            clear = not spill and not overflow
                        else:
                            backlog.append((now, service))
                            queued += 1
                            blen = len(backlog)
                            if blen > max_backlog:
                                max_backlog = blen
                        continue
                    # Foreign event: full generic run-loop semantics.
                    env._now = now
                    env._ai = ai
                    if l0_add:
                        env._l0_count += l0_add
                        l0_add = 0
                    if cbs.__class__ is tuple:
                        cbs[0](event)
                    else:
                        event.callbacks = None
                        for callback in cbs:
                            callback(event)
                    if not event._ok and not event._defused:
                        exc = event._value
                        if isinstance(exc, BaseException):
                            raise exc
                        raise RuntimeError(f"event failed with non-exception {exc!r}")
                    gbits = env._gbits
                    cursor = env._cursor
                    clear = not spill and not overflow
            finally:
                env._ai = ai
                env._now = now
                if l0_add:
                    env._l0_count += l0_add
                env.events_processed += processed

        def sync() -> None:
            self.arrived = arrived
            self.completed = completed
            self.queued = queued
            self.max_backlog = max_backlog
            self.free_slots = free_slots
            self.cold_starts = cold_starts
            self.cold_busy_ns = cold_busy_ns
            self.cold_reclaimed = cold_reclaimed
            self.cold_retained = cold_retained
            self.cold_alive = cold_alive

        lease_cbs = (on_lease,)
        cold_cbs = (on_cold,)
        reclaim_cbs = (on_reclaim_ev,)
        self._on_arrival = on_arrival
        self._on_lease = on_lease
        self._lease_cbs = lease_cbs
        self._on_cold = on_cold
        self._on_reclaim = on_reclaim_ev
        self._cold_cbs = cold_cbs
        self._reclaim_cbs = reclaim_cbs
        self._kernel_sync = sync
        # The fused loop leans on wheel internals; heap-batch runs keep
        # the generic Environment.run dispatch over the same closures.
        self._kernel_drive = drive if is_wheel else None
        admit_chunk()

    def _install_cold_lane_kernel(self) -> None:
        """Batch-wheel kernel + vectorized ColdLane (keepalive = 0).

        Leases live in the wheel exactly as in the batch kernel: the
        reused-event / inline-L0 recipe absorbs the cold re-arm storm
        (every concurrent cold lease re-arms each ``interval``, and a
        saturated pool holds ~``service / gap`` of them at once) at one
        list append per re-arm.

        What the ColdLane vectorizes is the *cold stream*: a dry-pool
        arrival that goes cold becomes three int64 cells in its
        spin-up calendar instead of a scheduled event, and the entire
        pending backlog fires as one slab
        (:meth:`~repro.sim.wheel.ColdLane.drain_spinups_all`) the
        moment the merge reaches the oldest ready time.  Under a
        saturated pool that is one ``spawn / gap``-sized slab (~4k
        spin-ups at the default 250 ns gap) per ``spawn`` of virtual
        time instead of one scalar fire wedged between every pair of
        arrivals.

        Exactness of the early slab: with idle-reclaim off nothing
        ever reads ``cold_alive``, and a spin-up fire's effects are
        functions of its own stored times -- the sojourn is ``spawn +
        service`` and its lease lands at ``ready + min(service,
        interval)``, strictly ahead of every already-dispatched event.
        Spin-up fires therefore commute with arrivals and completions.
        The slab admits its leases through ``schedule_batch`` sorted
        by deadline, so their eids are drawn in deadline order where
        the referee draws them in ready order; a tie at equal ``(when,
        priority)`` between two lease events is the only place that
        renumbering can flip a fire order, and lease fires commute
        among themselves (a re-arm touches only its own stored finish;
        completions are interchangeable -- the backlog pops FIFO and
        ``free_slots`` increments commute).  Every fingerprint
        aggregate (counter totals, the sojourn multiset into histogram
        buckets, exact min/max, the exact-integer mean) is order-free,
        so the fingerprint is the per-event referee's, bit for bit.
        """
        env = self.env
        schedule = env.schedule_timeout
        schedule_batch = env.schedule_batch
        insert = env._insert
        interval = self._interval
        flush_batch = _FLUSH_BATCH
        flush = self._flush
        sample = self._sample_wheel
        buffer = self._buffer
        backlog = self.backlog
        chunks = self._chunks
        total = self.count
        spawn = self._spawn
        threshold = self._threshold
        slots0 = env._slots0
        mask0 = env._mask0
        eid = env._eid
        # Bound once: _eid is never rebound, even across re-anchors.
        eidn = eid.__next__
        free_slots = self.free_slots
        arrived = 0
        completed = 0
        queued = 0
        max_backlog = 0
        cold_starts = 0
        cold_busy_ns = 0
        cold_alive = 0
        services: list[int] = []
        nservices = 0
        pos = 0
        lease_cbs: tuple = ()
        # Cached cold-lane head ready time; -1 means "empty".  Ready
        # times are monotone in admission order (now + spawn), so only
        # the first admission after a drain sets it.
        cold_w = -1

        def admit_chunk() -> None:
            nonlocal services, nservices, pos
            times, served = next(chunks)
            services = served.tolist()
            nservices = len(services)
            pos = 0
            schedule_batch(times, on_arrival, _ARRIVAL_PRIO)

        def on_arrival(event) -> None:
            """Generic-dispatch arrival body (the fused loop inlines it)."""
            nonlocal pos, arrived, free_slots, queued, max_backlog
            nonlocal cold_starts, cold_busy_ns, cold_w
            now = env._now
            service = services[pos]
            pos += 1
            arrived += 1
            if pos == nservices and arrived < total:
                admit_chunk()
            if free_slots:
                free_slots -= 1
                buffer.append(service)
                if len(buffer) >= flush_batch:
                    flush()
                event._value = now + service
                event.callbacks = lease_cbs
                delay = service if service <= interval else interval
                when = now + delay
                s0 = when >> env._gbits
                d0 = s0 - env._cursor
                if 0 < d0 <= mask0:
                    slots0[s0 & mask0].append((when, 1, eidn(), event))
                    env._l0_count += 1
                    return
                schedule(event, delay)
            elif len(backlog) >= threshold:
                cold_starts += 1
                cold_busy_ns += spawn + service
                ready = now + spawn
                cold_admit(ready, now, service)
                if cold_w < 0:
                    cold_w = ready
            else:
                backlog.append((now, service))
                queued += 1
                if len(backlog) > max_backlog:
                    max_backlog = len(backlog)

        def on_lease(event) -> None:
            nonlocal completed, free_slots
            now = env._now
            remaining = event._value - now
            if remaining > 0:
                delay = interval if remaining > interval else remaining
                when = now + delay
                s0 = when >> env._gbits
                d0 = s0 - env._cursor
                if 0 < d0 <= mask0:
                    slots0[s0 & mask0].append((when, 1, eidn(), event))
                    env._l0_count += 1
                    return
                schedule(event, delay)
                return
            completed += 1
            if not completed & 0x3FF:
                sample()
            if backlog:
                arrival_ns, service = backlog.popleft()
                buffer.append(now - arrival_ns + service)
                if len(buffer) >= flush_batch:
                    flush()
                event._value = now + service
                delay = service if service <= interval else interval
                when = now + delay
                s0 = when >> env._gbits
                d0 = s0 - env._cursor
                if 0 < d0 <= mask0:
                    slots0[s0 & mask0].append((when, 1, eidn(), event))
                    env._l0_count += 1
                    return
                schedule(event, delay)
            else:
                free_slots += 1

        def on_ready(when: int, arrival: int, service: int) -> None:
            """Scalar spin-up fire (sub-slab runs): sandbox ready, the
            executor joins the pool by starting its invocation under a
            wheel-resident lease."""
            nonlocal cold_alive
            buffer.append(spawn + service)
            if len(buffer) >= flush_batch:
                flush()
            cold_alive += 1
            dl = when + (service if service <= interval else interval)
            insert((dl, 1, eidn(), BatchEvent(env, lease_cbs, when + service)))

        def on_ready_slab(when_a, arrival_a, service_a) -> None:
            """Vectorized spin-up run: bulk sojourns, leases admitted
            into the wheel via one deadline-sorted ``schedule_batch``
            (passing ``lease_cbs`` itself so the fused loop keeps
            recognizing the events by descriptor identity)."""
            nonlocal cold_alive
            n = when_a.shape[0]
            buffer.extend((service_a + spawn).tolist())
            if len(buffer) >= flush_batch:
                flush()
            cold_alive += n
            finishes = when_a + service_a
            deadlines = when_a + np.minimum(service_a, interval)
            order = np.argsort(deadlines, kind="stable")
            events = schedule_batch(deadlines[order], lease_cbs)
            for ev, fin in zip(events, finishes[order].tolist()):
                ev._value = fin

        cold = env.attach_cold_lane(on_ready, on_ready_slab)
        cold_admit = cold.admit
        drain_all = cold.drain_spinups_all

        def drive() -> None:
            """Fused loop: the batch kernel's pop fast path plus the
            cold gate.

            Before an entry at ``when`` dispatches, a pending spin-up
            backlog whose oldest ready time is <= ``when`` fires as one
            slab; the entry is pushed back through the spill heap (the
            slab's lease admissions may precede it) and the pop
            retried.  Shadow-state rules are the batch kernel's, with
            one addition: the gate and the dry-wheel slab flush
            ``l0_add`` and re-read ``_gbits``/``_cursor`` around
            ``drain_all`` (slab admissions can re-anchor a dry wheel).
            ``cold_admit`` touches only lane arrays and the eid
            counter, so the arrival fast path needs no sync around it.
            """
            nonlocal pos, arrived, completed, free_slots, queued, max_backlog
            nonlocal cold_starts, cold_busy_ns, cold_w
            pop = env._pop
            spill = env._spill
            overflow = env._queue
            active = env._active
            ai = env._ai
            alen = len(active)
            processed = 0
            now = env._now
            gbits = env._gbits
            cursor = env._cursor
            l0_add = 0
            clear = not spill and not overflow
            try:
                while True:
                    if ai < alen:
                        if clear:
                            entry = active[ai]
                            active[ai] = None
                            ai += 1
                        else:
                            entry = active[ai]
                            if spill and spill[0] < entry:
                                head = spill[0]
                                if overflow and overflow[0] < head:
                                    entry = heappop(overflow)
                                else:
                                    entry = heappop(spill)
                                clear = not spill and not overflow
                            elif overflow and overflow[0] < entry:
                                entry = heappop(overflow)
                                clear = not spill and not overflow
                            else:
                                active[ai] = None
                                ai += 1
                    else:
                        env._ai = ai
                        env._now = now
                        if l0_add:
                            env._l0_count += l0_add
                            l0_add = 0
                        try:
                            entry = pop()
                        except IndexError:
                            if cold_w < 0:
                                return
                            # Wheel dry with spin-ups pending: slab
                            # them out (their leases land back in the
                            # wheel) and resume popping.
                            processed += drain_all()
                            cold_w = -1
                            active = env._active
                            ai = env._ai
                            alen = len(active)
                            gbits = env._gbits
                            cursor = env._cursor
                            clear = not spill and not overflow
                            continue
                        active = env._active
                        ai = env._ai
                        alen = len(active)
                        gbits = env._gbits
                        cursor = env._cursor
                        clear = not spill and not overflow
                    if 0 <= cold_w <= entry[0]:
                        # Cold gate: the whole pending spin-up backlog
                        # commutes and its oldest ready precedes this
                        # entry -- fire it as one slab, push the entry
                        # back and re-pop.
                        env._ai = ai
                        env._now = now
                        if l0_add:
                            env._l0_count += l0_add
                            l0_add = 0
                        processed += drain_all()
                        cold_w = -1
                        heappush(spill, entry)
                        gbits = env._gbits
                        cursor = env._cursor
                        clear = False
                        continue
                    now = entry[0]
                    event = entry[3]
                    processed += 1
                    cbs = event.callbacks
                    if cbs is lease_cbs:
                        deadline = event._value
                        if deadline > now:
                            when = now + interval
                            if when > deadline:
                                when = deadline
                            s0 = when >> gbits
                            d0 = s0 - cursor
                            if 0 < d0 <= mask0:
                                slots0[s0 & mask0].append((when, 1, eidn(), event))
                                l0_add += 1
                            else:
                                env._now = now
                                env._ai = ai
                                if l0_add:
                                    env._l0_count += l0_add
                                    l0_add = 0
                                schedule(event, when - now)
                                gbits = env._gbits
                                cursor = env._cursor
                                clear = not spill and not overflow
                            continue
                        completed += 1
                        if not completed & 0x3FF:
                            env._now = now
                            env._ai = ai
                            if l0_add:
                                env._l0_count += l0_add
                                l0_add = 0
                            sample()
                        if backlog:
                            arrival_ns, service = backlog.popleft()
                            buffer.append(now - arrival_ns + service)
                            if len(buffer) >= flush_batch:
                                # flush() force-samples occupancy: give
                                # it the true wheel state first.
                                env._now = now
                                env._ai = ai
                                if l0_add:
                                    env._l0_count += l0_add
                                    l0_add = 0
                                flush()
                            deadline = now + service
                            event._value = deadline
                            when = now + interval
                            if when > deadline:
                                when = deadline
                            s0 = when >> gbits
                            d0 = s0 - cursor
                            if 0 < d0 <= mask0:
                                slots0[s0 & mask0].append((when, 1, eidn(), event))
                                l0_add += 1
                            else:
                                env._now = now
                                env._ai = ai
                                if l0_add:
                                    env._l0_count += l0_add
                                    l0_add = 0
                                schedule(event, when - now)
                                gbits = env._gbits
                                cursor = env._cursor
                                clear = not spill and not overflow
                        else:
                            free_slots += 1
                        continue
                    if cbs.__class__ is tuple and cbs[0] is on_arrival:
                        service = services[pos]
                        pos += 1
                        arrived += 1
                        if pos == nservices and arrived < total:
                            env._now = now
                            env._ai = ai
                            if l0_add:
                                env._l0_count += l0_add
                                l0_add = 0
                            admit_chunk()
                            gbits = env._gbits
                            cursor = env._cursor
                            clear = not spill and not overflow
                        if free_slots:
                            free_slots -= 1
                            buffer.append(service)
                            if len(buffer) >= flush_batch:
                                # flush() force-samples occupancy: give
                                # it the true wheel state first.
                                env._now = now
                                env._ai = ai
                                if l0_add:
                                    env._l0_count += l0_add
                                    l0_add = 0
                                flush()
                            deadline = now + service
                            event._value = deadline
                            event.callbacks = lease_cbs
                            when = now + interval
                            if when > deadline:
                                when = deadline
                            s0 = when >> gbits
                            d0 = s0 - cursor
                            if 0 < d0 <= mask0:
                                slots0[s0 & mask0].append((when, 1, eidn(), event))
                                l0_add += 1
                            else:
                                env._now = now
                                env._ai = ai
                                if l0_add:
                                    env._l0_count += l0_add
                                    l0_add = 0
                                schedule(event, when - now)
                                gbits = env._gbits
                                cursor = env._cursor
                                clear = not spill and not overflow
                        elif len(backlog) >= threshold:
                            cold_starts += 1
                            cold_busy_ns += spawn + service
                            ready = now + spawn
                            cold_admit(ready, now, service)
                            if cold_w < 0:
                                cold_w = ready
                        else:
                            backlog.append((now, service))
                            queued += 1
                            blen = len(backlog)
                            if blen > max_backlog:
                                max_backlog = blen
                        continue
                    # Foreign event: full generic run-loop semantics.
                    env._now = now
                    env._ai = ai
                    if l0_add:
                        env._l0_count += l0_add
                        l0_add = 0
                    if cbs.__class__ is tuple:
                        cbs[0](event)
                    else:
                        event.callbacks = None
                        for callback in cbs:
                            callback(event)
                    if not event._ok and not event._defused:
                        exc = event._value
                        if isinstance(exc, BaseException):
                            raise exc
                        raise RuntimeError(f"event failed with non-exception {exc!r}")
                    gbits = env._gbits
                    cursor = env._cursor
                    clear = not spill and not overflow
            finally:
                env._ai = ai
                env._now = now
                if l0_add:
                    env._l0_count += l0_add
                env.events_processed += processed

        def sync() -> None:
            self.arrived = arrived
            self.completed = completed
            self.queued = queued
            self.max_backlog = max_backlog
            self.free_slots = free_slots
            self.cold_starts = cold_starts
            self.cold_busy_ns = cold_busy_ns
            self.cold_alive = cold_alive

        lease_cbs = (on_lease,)
        self._on_arrival = on_arrival
        self._on_lease = on_lease
        self._lease_cbs = lease_cbs
        self._kernel_sync = sync
        self._kernel_drive = drive
        admit_chunk()

    def _handle_arrival(self, _event) -> None:
        env = self.env
        now = env._now
        service = self._next_service
        self.arrived += 1
        if self.arrived < self.count:
            self._advance()
            timeout = env.timeout(self._next_time - now)
            timeout.callbacks.append(self._on_arrival)
        if self.free_slots:
            self.free_slots -= 1
            self._begin(now, service)
        elif self._cold_mode and len(self.backlog) >= self._threshold:
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
        # Lease eid first, reclaim eid second: the batch kernel's
        # on_cold allocates them in the same order.
        event._value = now + service
        event.callbacks = self._lease_cbs
        self._schedule(event, service if service <= interval else interval)
        if self._keepalive:
            self._schedule(BatchEvent(self.env, self._reclaim_cbs, 0), self._keepalive)

    def _handle_reclaim(self, _event) -> None:
        """Idle-reclaim expiry: tear one cold executor down iff the pool
        has an idle slot to give back (outcomes depend only on the two
        gauges, which is what lets bulk expiry runs fold exactly)."""
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
        completed = self.completed + 1
        self.completed = completed
        if not completed & 0x3FF and self._is_wheel:
            self._sample_wheel()
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
        if self._is_wheel:
            self._sample_wheel(force=True)

    def _sample_wheel(self, force: bool = False) -> None:
        # Decimated: most calls return None without computing occupancy
        # (see WheelEnvironment.sample_occupancy), so the completion-path
        # cadence can be tight without costing wall clock.
        sample = self.env.sample_occupancy(force)
        if sample is None:
            return
        peaks = self.occupancy_peaks
        for key in (
            "wheel",
            "heap",
            "spill",
            "cascades",
            "overflow_inserts",
            "reanchors",
            "granularity_bits",
            "cold_entries",
            "cold_entries_peak",
            "cold_slabs",
            "cold_max_slab",
            "cold_scalar_fires",
            "cold_spinups",
        ):
            value = sample.get(key, 0)
            if value > peaks.get(key, -1):
                peaks[key] = value

    def finish(self) -> None:
        if self._kernel_sync is not None:
            self._kernel_sync()
        self._flush()
        if self.cold_starts:
            from repro import perf

            if perf.enabled:
                perf.counters.cold_spinups += self.cold_starts
                perf.counters.cold_reclaims += self.cold_reclaimed


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
    occupancy: dict[str, int] = field(default_factory=dict)
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

    The ``queue`` policy on the default engine (wheel scheduler, batch
    admission) runs the exact FIFO recurrence of :class:`_FifoDriver`
    and builds no environment.  Every other combination walks its
    events through a :class:`_ShardDriver`: the cold policies need the
    event order, and the heap scheduler and per-event admission stay
    the referees the fast engines are checked against.
    """
    if not 0 <= shard < shards:
        raise ValueError(f"shard {shard} outside [0, {shards})")
    count = _shard_invocations(config.invocations, shards, shard)
    slots = _shard_slots(config.workers, shards, shard)
    if count < 1:
        raise ValueError("shard needs at least one invocation")
    if slots < 1:
        raise ValueError("shard needs at least one warm slot")
    driver: Any
    if (
        config.pool_policy == "queue"
        and config.scheduler == "wheel"
        and config.admission == "batch"
    ):
        driver = _FifoDriver(config, shard, shards)
        wall_s = _timed_drive(driver.drive, profile)
        events, now, pool_hits = driver.events_processed, driver.final_now_ns, 0
        occupancy: dict[str, int] = {}
    else:
        env_kwargs = (
            {"granularity_bits": config.granularity_bits} if config.scheduler == "wheel" else {}
        )
        env = new_environment(config.scheduler, **env_kwargs)
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
        occupancy = dict(driver.occupancy_peaks)
    if driver.completed != count:
        raise RuntimeError(
            f"shard {shard}/{shards} lost invocations: {driver.completed} of {count}"
        )
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
        occupancy=occupancy,
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
    scheduler: str = "wheel",
    seed: int = 0x5CA1E,
    mean_arrival_gap_ns: int = 250,
    service_log_mean: float = 19.8,
    service_log_sigma: float = 0.6,
    lease_check_interval_ns: int = ms(64),
    granularity_bits: Union[int, str] = "auto",
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
    from repro import perf

    validate_granularity_bits(granularity_bits)
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
        scheduler=scheduler,
        granularity_bits=granularity_bits,
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
    worker counts, and cache hits.  Wall-clock, RSS, and occupancy are
    measurement artifacts of this particular execution.
    """

    scheduler: str
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
    occupancy: dict[str, int] = field(default_factory=dict)
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
            f"{self.shards} shard(s) ({self.scheduler} scheduler, "
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
    scheduler: str,
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
    occupancy: dict[str, int] = {}
    for result in results:
        for key, value in result.occupancy.items():
            if value > occupancy.get(key, -1):
                occupancy[key] = value
    events = sum(r.events_processed for r in results)
    return ShardedScaleResult(
        scheduler=scheduler,
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
        occupancy=occupancy,
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
    scheduler: str = "wheel",
    seed: int = 0x5CA1E,
    mean_arrival_gap_ns: int = 250,
    service_log_mean: float = 19.8,
    service_log_sigma: float = 0.6,
    lease_check_interval_ns: int = ms(64),
    granularity_bits: Union[int, str] = "auto",
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

    validate_granularity_bits(granularity_bits)
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
        scheduler=scheduler,
        seed=seed,
        mean_arrival_gap_ns=mean_arrival_gap_ns,
        service_log_mean=service_log_mean,
        service_log_sigma=service_log_sigma,
        lease_check_interval_ns=lease_check_interval_ns,
        granularity_bits=granularity_bits,
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
        scheduler=scheduler or "heap",
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
# Tenancy as a vectorized dimension of the same open-loop machine: the
# per-tenant arrival streams of a declarative TenantSpec mix are merged
# into ONE global non-decreasing calendar (np.lexsort, tenant-id column
# carried through every slab), services are drawn per tenant in
# within-tenant arrival order and scattered back to merged order, and
# the batch kernels above gain a tenant column: ``tenants[pos]`` rides
# next to ``services[pos]`` through chunk admission, and completed
# lease timers are :class:`TenantEvent`s whose (tenant, pool) slots
# drive pool-partitioned hand-off.  Admission outcomes follow the
# rFaaS/compSpot taxonomy -- SUCCESS / CONGESTION / DEADLINE_MISSED --
# with the deadline classification done purely at flush time against
# per-tenant deadline masks (no per-event Python).  The per-event heap
# FSM stays the bit-identity referee.

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
    scheduler: Optional[str] = "wheel"
    granularity_bits: Union[int, str] = "auto"
    #: "batch" (vectorized chunk admission) or "per-event" (the referee).
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
    specs: tuple, workers: int, partitioning: str
) -> tuple[list[int], int]:
    """Split *workers* into per-tenant pinned partitions + a shared tier."""
    _validate_partitioning(partitioning)
    weights = [max(1, spec.workers) for spec in specs]
    if partitioning == "shared":
        return [0] * len(specs), workers
    if partitioning == "pinned":
        pinned, shared = split_by_weights(workers, weights), 0
    else:  # overflow: half pinned by weight, half shared
        half = workers // 2
        pinned, shared = split_by_weights(half, weights), workers - half
    if min(pinned) < 1:
        raise ValueError(
            f"{workers} workers spread too thin over {len(specs)} pinned partitions"
        )
    return pinned, shared


def _draw_tenant_services(rng, size: int, spec: TenantSpec):
    """*size* log-normal service times around the tenant's compute cost."""
    draws = rng.lognormal(np.log(spec.compute_ns), spec.service_log_sigma, size=size)
    return np.maximum(draws.astype(np.int64), 1)


def _tenant_chunks(config: "MultiTenantConfig", shard: int, shards: int, lists: bool = True):
    """Yield this shard's ``(times, tenants, services)`` merged chunks.

    Every shard replays the **global** merged calendar (partition
    decomposition, as in :func:`_shard_chunks`) and keeps arrivals
    whose global merged index is ``shard (mod K)`` -- so the K-shard
    union is exactly the 1-shard stream, triple for triple.  Services
    are drawn from each tenant's own RNG stream in *within-tenant
    arrival order* and scattered back to merged order through boolean
    masks (masks preserve order), which keeps a tenant's service
    sequence independent of what the co-tenants do.
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
        yield (
            (times.tolist() if lists else times),
            tenants.tolist(),
            services.tolist(),
        )


class _TenantDriver:
    """The open-loop FSM over a merged multi-tenant calendar.

    Same two admission modes as :class:`_ShardDriver` -- a per-event
    method FSM (the bit-identity referee) and a fused closure kernel
    installed by ``start()`` for batch mode -- but dispatch is
    pool-partitioned and every outcome is per-tenant:

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

    The per-event referee schedules its chained arrival event at
    ``_ARRIVAL_PRIO`` -- the same priority batch admission uses -- so
    lease-vs-arrival ties resolve identically in both engines by
    construction, and eids within each priority class increase in
    admission order in both.
    """

    __slots__ = (
        "env",
        "config",
        "names",
        "stream",
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
        "occupancy_peaks",
        "_interval",
        "_chunks",
        "_times",
        "_tenants",
        "_services",
        "_pos",
        "_next_time",
        "_next_tenant",
        "_next_service",
        "_buf_tenant",
        "_buf_sojourn",
        "_batch",
        "_lease_cbs",
        "_arrival_cbs",
        "_cold_cbs",
        "_hop_cbs",
        "_schedule",
        "_kernel_sync",
        "_kernel_drive",
        "_on_arrival",
        "_on_lease",
        "_on_cold",
        "_on_hop",
        "_is_wheel",
        "_threshold",
        "_spawn",
    )

    def __init__(self, env, config: MultiTenantConfig, shard: int, shards: int) -> None:
        self.env = env
        self.config = config
        specs = config.specs
        n = len(specs)
        self.names = [spec.name for spec in specs]
        self.stream = StreamingSummary(config.subbits)
        self.keyed = KeyedStreamingSummary(config.subbits)
        self.backlogs = [deque() for _ in range(n)]
        pinned_plan, shared_plan = _tenant_pool_plan(
            specs, config.workers, config.partitioning
        )
        self.pinned = [_shard_slots(p, shards, shard) for p in pinned_plan]
        self.shared_free = _shard_slots(shared_plan, shards, shard)
        self.waiting = 0
        total = sum(spec.invocations for spec in specs)
        self.count = _shard_invocations(total, shards, shard)
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
        self.occupancy_peaks: dict[str, int] = {}
        self._interval = config.lease_check_interval_ns
        self._batch = config.admission == "batch"
        self._chunks = _tenant_chunks(config, shard, shards, lists=not self._batch)
        self._times: list[int] = []
        self._tenants: list[int] = []
        self._services: list[int] = []
        self._pos = 0
        self._next_time = 0
        self._next_tenant = 0
        self._next_service = 0
        self._buf_tenant: list[int] = []
        self._buf_sojourn: list[int] = []
        self._on_arrival = self._handle_arrival
        self._on_lease = self._handle_lease
        self._on_cold = self._handle_cold
        self._on_hop = self._handle_hop
        self._lease_cbs = (self._on_lease,)
        self._arrival_cbs = (self._on_arrival,)
        self._cold_cbs = (self._on_cold,)
        self._hop_cbs = (self._on_hop,)
        self._schedule = env.schedule_timeout
        self._kernel_sync: Any = None
        self._kernel_drive: Any = None
        self._is_wheel = isinstance(env, WheelEnvironment)
        policy = config.pool_policy
        if policy == "cold":
            self._threshold = 0
        elif policy == "hybrid":
            self._threshold = config.hybrid_threshold
        else:
            self._threshold = 1 << 62
        self._spawn = SANDBOX_PROFILES[config.start_model].spawn_ns(1)

    # -- per-event referee ---------------------------------------------

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
        if self.count < 1:
            raise ValueError("tenant shard needs at least one invocation")
        if self._batch:
            self._install_tenant_kernel()
            return
        self._advance()
        event = BatchEvent(self.env, self._arrival_cbs, 0)
        self.env.schedule(event, self._next_time, _ARRIVAL_PRIO)

    def drive(self) -> None:
        kernel = self._kernel_drive
        if kernel is not None:
            kernel()
        else:
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
            # Reused chained arrival event, same priority as batch
            # admission: tie order is engine-independent.
            env.schedule(event, self._next_time - now, _ARRIVAL_PRIO)
        if self.pinned[tenant]:
            self.pinned[tenant] -= 1
            self._begin(tenant, 0, now, service)
        elif self.shared_free:
            self.shared_free -= 1
            self._begin(tenant, 1, now, service)
        elif len(self.backlogs[tenant]) >= self._threshold:
            self._cold_start(tenant, service)
        elif len(self.backlogs[tenant]) >= self.queue_caps[tenant]:
            self.congested_by[tenant] += 1
        else:
            backlog = self.backlogs[tenant]
            backlog.append((now, service))
            self.waiting += 1
            self.queued_by[tenant] += 1
            if len(backlog) > self.max_backlog_by[tenant]:
                self.max_backlog_by[tenant] = len(backlog)

    def _begin(self, tenant: int, pool: int, arrival_ns: int, service: int) -> None:
        """Dispatch into a slot: one completion event at the finish time
        (its eid drawn *here*, at the dispatch sequence point -- the
        anchor of the cross-engine tie-break contract) plus, for leases
        longer than one check interval, a renewal-check hop chain.  The
        hops are pure bookkeeping (each re-arms only its own chain), so
        their fire order -- and their eids -- are unobservable; the
        batch-wheel kernel counts them arithmetically instead of
        walking them."""
        now = self.env._now
        self._buf_tenant.append(tenant)
        self._buf_sojourn.append(now - arrival_ns + service)
        if len(self._buf_sojourn) >= _FLUSH_BATCH:
            self._flush()
        event = TenantEvent(self.env, self._lease_cbs, now + service, tenant, pool)
        self._schedule(event, service)
        if service > self._interval:
            hop = BatchEvent(self.env, self._hop_cbs, now + service)
            self._schedule(hop, self._interval)

    def _redispatch(self, event, tenant: int, arrival_ns: int, service: int) -> None:
        """Reuse a completed slot's event for the waiter it serves."""
        now = self.env._now
        self._buf_tenant.append(tenant)
        self._buf_sojourn.append(now - arrival_ns + service)
        if len(self._buf_sojourn) >= _FLUSH_BATCH:
            self._flush()
        event._value = now + service
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
        completed = self.completed + 1
        self.completed = completed
        if not completed & 0x3FF and self._is_wheel:
            self._sample_wheel()
        if event.pool:
            if self.waiting:
                backlogs = self.backlogs
                best = -1
                best_key = 0
                for t in range(len(backlogs)):
                    b = backlogs[t]
                    if b and (best < 0 or b[0][0] < best_key):
                        best_key = b[0][0]
                        best = t
                arrival_ns, service = backlogs[best].popleft()
                self.waiting -= 1
                event.tenant = best
                self._redispatch(event, best, arrival_ns, service)
            else:
                self.shared_free += 1
        else:
            tenant = event.tenant
            backlog = self.backlogs[tenant]
            if backlog:
                arrival_ns, service = backlog.popleft()
                self.waiting -= 1
                self._redispatch(event, tenant, arrival_ns, service)
            else:
                self.pinned[tenant] += 1

    def _cold_start(self, tenant: int, service: int) -> None:
        self.cold_by[tenant] += 1
        event = TenantEvent(self.env, self._cold_cbs, service, tenant, 1)
        self._schedule(event, self._spawn)

    def _handle_cold(self, event) -> None:
        """Sandbox ready: the cold executor joins the *shared* tier --
        its spin-up event becomes the invocation's completion event, and
        at completion it serves shared-tier hand-off like any other
        slot."""
        now = self.env._now
        service = event._value
        self._buf_tenant.append(event.tenant)
        self._buf_sojourn.append(self._spawn + service)
        if len(self._buf_sojourn) >= _FLUSH_BATCH:
            self._flush()
        event._value = now + service
        event.callbacks = self._lease_cbs
        self._schedule(event, service)
        if service > self._interval:
            hop = BatchEvent(self.env, self._hop_cbs, now + service)
            self._schedule(hop, self._interval)

    # -- vectorized flush: the admission-outcome classifier ------------

    def _flush(self) -> None:
        buf = self._buf_sojourn
        if buf:
            vals = np.asarray(buf, dtype=np.int64)
            tens = np.asarray(self._buf_tenant, dtype=np.int64)
            self.sojourn_total += int(vals.sum())
            self.stream.observe_many(vals.astype(np.float64))
            keyed = self.keyed
            for t, name in enumerate(self.names):
                mask = tens == t
                count = int(mask.sum())
                if not count:
                    continue
                slab = vals[mask]
                self.dispatched_by[t] += count
                self.sojourn_totals[t] += int(slab.sum())
                # The deadline mask IS the outcome classifier: a
                # dispatched invocation either makes its sojourn budget
                # (SUCCESS) or misses it (DEADLINE_MISSED).
                self.missed_by[t] += int((slab > self.deadlines[t]).sum())
                keyed.observe_many(name, slab.astype(np.float64))
            buf.clear()
            self._buf_tenant.clear()
        if self._is_wheel:
            self._sample_wheel(force=True)

    _sample_wheel = _ShardDriver._sample_wheel

    def finish(self) -> None:
        if self._kernel_sync is not None:
            self._kernel_sync()
        self._flush()

    # -- fused batch kernel --------------------------------------------

    def _install_tenant_kernel(self) -> None:
        """Build the tenant-aware batch FSM as closures and admit chunk 0.

        Structurally :meth:`_ShardDriver._install_batch_kernel` with a
        tenant column: chunk admission schedules :class:`TenantEvent`
        slabs (``cls=TenantEvent`` through ``schedule_batch``), the
        arrival handler reads ``tenants[pos]`` next to
        ``services[pos]``, dispatch stamps ``(tenant, pool)`` into the
        event it reuses as the completion event, and completion hands
        the slot off by pool tier.  Per-tenant counters live in the
        driver's own lists (shared mutable state, no sync needed);
        scalar gauges are closure cells written back by ``sync()``.
        The fused wheel loop replicates the run loop's pop order and
        accounting exactly as the single-stream kernel does.

        Unlike the single-stream event kernels, lease renewal-check hops
        are *virtualized*.  A dispatched lease's finish is fully determined
        at dispatch, so the kernel schedules the completion event at
        ``start + service`` directly and adds the per-event engines'
        ``(service - 1) // interval`` renewal fires to
        ``events_processed`` in closed form -- the hops it never walks.
        Exactness: a hop re-arms only its own chain (no shared state),
        so hop fire order and hop eids are unobservable; completion
        eids are drawn at the dispatch sequence point in *every*
        engine (see :meth:`_begin`), so completion eids ascend in
        dispatch order everywhere and every tie-break class
        (completion-vs-completion by eid, completion-vs-arrival by
        priority) resolves identically.  Cold-start spin-ups keep real
        hop chains on all engines (they are rare and foreign-dispatched
        here), so their counts match by construction.
        """
        env = self.env
        schedule = env.schedule_timeout
        schedule_batch = env.schedule_batch
        interval = self._interval
        flush_batch = _FLUSH_BATCH
        flush = self._flush
        sample = self._sample_wheel
        buf_tenant = self._buf_tenant
        buf_sojourn = self._buf_sojourn
        backlogs = self.backlogs
        ntenants = len(backlogs)
        pinned = self.pinned
        arrived_by = self.arrived_by
        congested_by = self.congested_by
        queued_by = self.queued_by
        cold_by = self.cold_by
        max_backlog_by = self.max_backlog_by
        queue_caps = self.queue_caps
        chunks = self._chunks
        total = self.count
        is_wheel = self._is_wheel
        if is_wheel:
            slots0 = env._slots0
            mask0 = env._mask0
            eid = env._eid
            # Bound once: _eid is never rebound, even across re-anchors.
            eidn = eid.__next__
        else:
            slots0 = mask0 = eid = eidn = None
        shared_free = self.shared_free
        waiting = 0
        arrived = 0
        completed = 0
        tenants: list[int] = []
        services: list[int] = []
        nservices = 0
        pos = 0
        lease_cbs: tuple = ()
        cold_cbs: tuple = ()
        hop_cbs: tuple = ()
        spawn = self._spawn
        threshold = self._threshold

        def admit_chunk() -> None:
            nonlocal tenants, services, nservices, pos
            times, tenants, services = next(chunks)
            nservices = len(services)
            pos = 0
            schedule_batch(times, on_arrival, _ARRIVAL_PRIO, TenantEvent)

        def on_arrival(event) -> None:
            nonlocal pos, arrived, shared_free, waiting
            now = env._now
            tenant = tenants[pos]
            service = services[pos]
            pos += 1
            arrived += 1
            arrived_by[tenant] += 1
            if pos == nservices and arrived < total:
                admit_chunk()
            if pinned[tenant]:
                pinned[tenant] -= 1
                pool = 0
            elif shared_free:
                shared_free -= 1
                pool = 1
            elif len(backlogs[tenant]) >= threshold:
                cold_by[tenant] += 1
                schedule(TenantEvent(env, cold_cbs, service, tenant, 1), spawn)
                return
            elif len(backlogs[tenant]) >= queue_caps[tenant]:
                congested_by[tenant] += 1
                return
            else:
                backlog = backlogs[tenant]
                backlog.append((now, service))
                waiting += 1
                queued_by[tenant] += 1
                if len(backlog) > max_backlog_by[tenant]:
                    max_backlog_by[tenant] = len(backlog)
                return
            buf_tenant.append(tenant)
            buf_sojourn.append(service)  # zero wait + service
            if len(buf_sojourn) >= flush_batch:
                flush()
            when = now + service
            event.tenant = tenant
            event.pool = pool
            event._value = when
            event.callbacks = lease_cbs
            if is_wheel:
                s0 = when >> env._gbits
                d0 = s0 - env._cursor
                if 0 < d0 <= mask0:
                    slots0[s0 & mask0].append((when, 1, next(eid), event))
                    env._l0_count += 1
                else:
                    schedule(event, service)
            else:
                schedule(event, service)
            if service > interval:
                schedule(BatchEvent(env, hop_cbs, when), interval)

        def on_hop(event) -> None:
            """Lease-renewal check chain (real events on the per-event
            engines; the fused wheel loop counts these arithmetically)."""
            if env._now + interval < event._value:
                schedule(event, interval)

        def on_lease(event) -> None:
            nonlocal completed, shared_free, waiting
            now = env._now
            completed += 1
            if not completed & 0x3FF and is_wheel:
                sample()
            if event.pool:
                if waiting:
                    best = -1
                    best_key = 0
                    for t in range(ntenants):
                        b = backlogs[t]
                        if b and (best < 0 or b[0][0] < best_key):
                            best_key = b[0][0]
                            best = t
                    arrival_ns, service = backlogs[best].popleft()
                    waiting -= 1
                    event.tenant = best
                else:
                    shared_free += 1
                    return
            else:
                tenant = event.tenant
                backlog = backlogs[tenant]
                if backlog:
                    arrival_ns, service = backlog.popleft()
                    waiting -= 1
                else:
                    pinned[tenant] += 1
                    return
            buf_tenant.append(event.tenant)
            buf_sojourn.append(now - arrival_ns + service)
            if len(buf_sojourn) >= flush_batch:
                flush()
            when = now + service
            event._value = when
            if is_wheel:
                s0 = when >> env._gbits
                d0 = s0 - env._cursor
                if 0 < d0 <= mask0:
                    slots0[s0 & mask0].append((when, 1, next(eid), event))
                    env._l0_count += 1
                else:
                    schedule(event, service)
            else:
                schedule(event, service)
            if service > interval:
                schedule(BatchEvent(env, hop_cbs, when), interval)

        def on_cold(event) -> None:
            """Sandbox ready: dispatched through the generic/foreign
            path -- cold events are rare by construction."""
            now = env._now
            service = event._value
            buf_tenant.append(event.tenant)
            buf_sojourn.append(spawn + service)
            if len(buf_sojourn) >= flush_batch:
                flush()
            when = now + service
            event._value = when
            event.callbacks = lease_cbs
            schedule(event, service)
            if service > interval:
                schedule(BatchEvent(env, hop_cbs, when), interval)

        def drive() -> None:
            """Fused event loop: the wheel pop fast path with the tenant
            arrival/lease handlers inlined (see
            :meth:`_ShardDriver._install_batch_kernel` for the shadowing
            and sync discipline this replicates verbatim)."""
            nonlocal pos, arrived, completed, shared_free, waiting
            pop = env._pop
            spill = env._spill
            overflow = env._queue
            active = env._active
            ai = env._ai
            alen = len(active)
            processed = 0
            now = env._now
            gbits = env._gbits
            cursor = env._cursor
            l0_add = 0
            clear = not spill and not overflow
            try:
                while True:
                    if ai < alen:
                        if clear:
                            entry = active[ai]
                            active[ai] = None
                            ai += 1
                        else:
                            entry = active[ai]
                            if spill and spill[0] < entry:
                                head = spill[0]
                                if overflow and overflow[0] < head:
                                    entry = heappop(overflow)
                                else:
                                    entry = heappop(spill)
                                clear = not spill and not overflow
                            elif overflow and overflow[0] < entry:
                                entry = heappop(overflow)
                                clear = not spill and not overflow
                            else:
                                active[ai] = None
                                ai += 1
                    else:
                        env._ai = ai
                        env._now = now
                        if l0_add:
                            env._l0_count += l0_add
                            l0_add = 0
                        try:
                            entry = pop()
                        except IndexError:
                            return
                        active = env._active
                        ai = env._ai
                        alen = len(active)
                        gbits = env._gbits
                        cursor = env._cursor
                        clear = not spill and not overflow
                    now = entry[0]
                    event = entry[3]
                    processed += 1
                    cbs = event.callbacks
                    if cbs is lease_cbs:
                        # Completion events fire exactly at their stored
                        # finish: the renewal-check hops the per-event
                        # engines walk were already counted
                        # arithmetically at dispatch, so there is no
                        # re-arm branch on this path.
                        completed += 1
                        if not completed & 0x3FF:
                            env._now = now
                            env._ai = ai
                            if l0_add:
                                env._l0_count += l0_add
                                l0_add = 0
                            sample()
                        if event.pool:
                            if waiting:
                                best = -1
                                best_key = 0
                                for t in range(ntenants):
                                    b = backlogs[t]
                                    if b and (best < 0 or b[0][0] < best_key):
                                        best_key = b[0][0]
                                        best = t
                                arrival_ns, service = backlogs[best].popleft()
                                waiting -= 1
                                event.tenant = best
                                tenant = best
                            else:
                                shared_free += 1
                                continue
                        else:
                            tenant = event.tenant
                            backlog = backlogs[tenant]
                            if backlog:
                                arrival_ns, service = backlog.popleft()
                                waiting -= 1
                            else:
                                pinned[tenant] += 1
                                continue
                        buf_tenant.append(tenant)
                        buf_sojourn.append(now - arrival_ns + service)
                        if len(buf_sojourn) >= flush_batch:
                            env._now = now
                            env._ai = ai
                            if l0_add:
                                env._l0_count += l0_add
                                l0_add = 0
                            flush()
                        when = now + service
                        event._value = when
                        processed += (service - 1) // interval
                        s0 = when >> gbits
                        d0 = s0 - cursor
                        if 0 < d0 <= mask0:
                            slots0[s0 & mask0].append((when, 1, eidn(), event))
                            l0_add += 1
                        else:
                            env._now = now
                            env._ai = ai
                            if l0_add:
                                env._l0_count += l0_add
                                l0_add = 0
                            schedule(event, service)
                            gbits = env._gbits
                            cursor = env._cursor
                            clear = not spill and not overflow
                        continue
                    if cbs.__class__ is tuple and cbs[0] is on_arrival:
                        tenant = tenants[pos]
                        service = services[pos]
                        pos += 1
                        arrived += 1
                        arrived_by[tenant] += 1
                        if pos == nservices and arrived < total:
                            env._now = now
                            env._ai = ai
                            if l0_add:
                                env._l0_count += l0_add
                                l0_add = 0
                            admit_chunk()
                            gbits = env._gbits
                            cursor = env._cursor
                            clear = not spill and not overflow
                        if pinned[tenant]:
                            pinned[tenant] -= 1
                            pool = 0
                        elif shared_free:
                            shared_free -= 1
                            pool = 1
                        elif len(backlogs[tenant]) >= threshold:
                            cold_by[tenant] += 1
                            env._now = now
                            env._ai = ai
                            if l0_add:
                                env._l0_count += l0_add
                                l0_add = 0
                            schedule(TenantEvent(env, cold_cbs, service, tenant, 1), spawn)
                            gbits = env._gbits
                            cursor = env._cursor
                            clear = not spill and not overflow
                            continue
                        elif len(backlogs[tenant]) >= queue_caps[tenant]:
                            congested_by[tenant] += 1
                            continue
                        else:
                            backlog = backlogs[tenant]
                            backlog.append((now, service))
                            waiting += 1
                            queued_by[tenant] += 1
                            blen = len(backlog)
                            if blen > max_backlog_by[tenant]:
                                max_backlog_by[tenant] = blen
                            continue
                        buf_tenant.append(tenant)
                        buf_sojourn.append(service)
                        if len(buf_sojourn) >= flush_batch:
                            env._now = now
                            env._ai = ai
                            if l0_add:
                                env._l0_count += l0_add
                                l0_add = 0
                            flush()
                        when = now + service
                        event.tenant = tenant
                        event.pool = pool
                        event._value = when
                        event.callbacks = lease_cbs
                        processed += (service - 1) // interval
                        s0 = when >> gbits
                        d0 = s0 - cursor
                        if 0 < d0 <= mask0:
                            slots0[s0 & mask0].append((when, 1, eidn(), event))
                            l0_add += 1
                        else:
                            env._now = now
                            env._ai = ai
                            if l0_add:
                                env._l0_count += l0_add
                                l0_add = 0
                            schedule(event, service)
                            gbits = env._gbits
                            cursor = env._cursor
                            clear = not spill and not overflow
                        continue
                    # Foreign event (cold spin-ups included): full
                    # generic run-loop semantics.
                    env._now = now
                    env._ai = ai
                    if l0_add:
                        env._l0_count += l0_add
                        l0_add = 0
                    if cbs.__class__ is tuple:
                        cbs[0](event)
                    else:
                        event.callbacks = None
                        for callback in cbs:
                            callback(event)
                    if not event._ok and not event._defused:
                        exc = event._value
                        if isinstance(exc, BaseException):
                            raise exc
                        raise RuntimeError(f"event failed with non-exception {exc!r}")
                    gbits = env._gbits
                    cursor = env._cursor
                    clear = not spill and not overflow
            finally:
                env._ai = ai
                env._now = now
                if l0_add:
                    env._l0_count += l0_add
                env.events_processed += processed

        def sync() -> None:
            self.arrived = arrived
            self.completed = completed
            self.shared_free = shared_free
            self.waiting = waiting

        lease_cbs = (on_lease,)
        cold_cbs = (on_cold,)
        hop_cbs = (on_hop,)
        self._on_arrival = on_arrival
        self._on_lease = on_lease
        self._on_cold = on_cold
        self._on_hop = on_hop
        self._lease_cbs = lease_cbs
        self._cold_cbs = cold_cbs
        self._hop_cbs = hop_cbs
        self._kernel_sync = sync
        self._kernel_drive = drive if is_wheel else None
        admit_chunk()


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
    stream: StreamingSummary
    keyed: KeyedStreamingSummary
    occupancy: dict[str, int] = field(default_factory=dict)


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

    scheduler: str
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
    occupancy: dict[str, int] = field(default_factory=dict)

    def fingerprint(self) -> dict[str, Any]:
        """Simulated-domain outputs: identical across heap/wheel engines
        and (in the unsaturated regime) across K=1/K=2 shard splits."""
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
            f"{self.partitioning} partitioning ({self.scheduler} scheduler, "
            f"{self.admission} admission)",
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
    scheduler: str = "wheel",
    admission: str = "batch",
    pool_policy: str = "queue",
    start_model: str = "remote-fork",
    hybrid_threshold: int = 64,
    lease_check_interval_ns: int = ms(64),
    granularity_bits: Union[int, str] = "auto",
    seed: int = 0x7E7A77,
    subbits: int = 8,
) -> TenantShardResult:
    """Run one shard of the multi-tenant scenario (picklable factory)."""
    validate_granularity_bits(granularity_bits)
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
        scheduler=scheduler,
        granularity_bits=granularity_bits,
        admission=admission,
        subbits=subbits,
        shards=shards,
        pool_policy=pool_policy,
        start_model=start_model,
        hybrid_threshold=hybrid_threshold,
    )
    env_kwargs = {"granularity_bits": granularity_bits} if scheduler == "wheel" else {}
    env = new_environment(config.scheduler, **env_kwargs)
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
        events_processed=env.events_processed,
        wall_s=wall_s,
        peak_rss_bytes=_peak_rss_bytes(),
        final_now_ns=env.now,
        timeout_pool_hits=env.timeout_pool_hits,
        stream=driver.stream,
        keyed=driver.keyed,
        occupancy=dict(driver.occupancy_peaks),
    )


def merge_tenant_shards(
    results: list[TenantShardResult],
    *,
    scheduler: str,
    admission: str,
    partitioning: str,
    pool_policy: str,
    workers: int,
    wall_s: float,
) -> TenantScaleResult:
    """Fold per-shard tenant accumulators, in shard order, into one result.

    Counts sum per tenant; clocks take the max; the keyed summaries
    fold with the exact :meth:`KeyedStreamingSummary.merge` path, and
    every per-tenant mean comes from summed exact integer totals."""
    if not results:
        raise ValueError("merge of zero tenant shards")
    if [r.shard for r in results] != list(range(len(results))):
        raise ValueError("tenant shard results must arrive complete and in shard order")
    names = results[0].names
    stream = StreamingSummary.merged([r.stream for r in results])
    keyed = KeyedStreamingSummary.merged([r.keyed for r in results])
    occupancy: dict[str, int] = {}
    for result in results:
        for key, value in result.occupancy.items():
            if value > occupancy.get(key, -1):
                occupancy[key] = value
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
        scheduler=scheduler,
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
        occupancy=occupancy,
    )


def run_tenant_scale(
    specs=None,
    invocations: Optional[int] = None,
    rate_scale: float = 1.0,
    compute_scale: float = 1.0,
    workers: int = 1 << 21,
    partitioning: str = "pinned",
    scheduler: str = "wheel",
    admission: str = "batch",
    pool_policy: str = "queue",
    start_model: str = "remote-fork",
    hybrid_threshold: int = 64,
    lease_check_interval_ns: int = ms(64),
    granularity_bits: Union[int, str] = "auto",
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
    validate_granularity_bits(granularity_bits)
    _validate_admission(admission)
    _validate_partitioning(partitioning)
    _validate_pool_policy(pool_policy, start_model, 0, hybrid_threshold)
    _tenant_pool_plan(specs, workers, partitioning)  # fail fast on thin pools
    total = sum(spec.invocations for spec in specs)
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards > total:
        raise ValueError(f"{shards} shards for {total} invocations (some get none)")
    shared_kwargs = dict(
        shards=shards,
        specs=specs,
        workers=workers,
        partitioning=partitioning,
        scheduler=scheduler,
        admission=admission,
        pool_policy=pool_policy,
        start_model=start_model,
        hybrid_threshold=hybrid_threshold,
        lease_check_interval_ns=lease_check_interval_ns,
        granularity_bits=granularity_bits,
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
        scheduler=scheduler or "heap",
        admission=admission,
        partitioning=partitioning,
        pool_policy=pool_policy,
        workers=workers,
        wall_s=wall_s,
    )
