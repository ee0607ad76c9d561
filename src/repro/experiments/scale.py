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
  ``arrival_shape`` swaps in a ``bursty`` (compound bursts) or
  ``diurnal`` (piecewise day curve) process with the same long-run
  rate (see :mod:`repro.sim.arrivals`); services are drawn per arrival
  index, so the shape changes when invocations come, not what they
  cost.
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

Engines -- which one runs is fixed by the policy (and, for tenants,
the partition plan) the caller passes; no default engine builds an
environment:

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
* :func:`run_scale_referee` and :func:`run_tenant_scale_referee` take
  the same knobs, build the same config and walk every event on the
  heap :class:`~repro.sim.core.Environment`: the referees the fast
  engines are checked against, fingerprint for fingerprint.

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

Every run is one scenario on one pool in one process: ``run_scale``
and ``run_tenant_scale`` build one config -- the only place a knob and
its default are declared and checked -- drive one engine in-process
and build their result from it.

Run it::

    python -m repro.experiments scale            # paper scale, 10^6
    python -m repro.experiments scale --quick    # CI-sized, 10^4
    python -m repro.experiments scale --quick --arrival-shape diurnal
"""

from __future__ import annotations

import gc
import resource
import time
from collections import deque
from heapq import heappop, heappush
from itertools import chain
from dataclasses import dataclass, field
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
from repro.sim.rng import RngStreams
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
#: Clip bounds of the log-normal service draws.
MIN_SERVICE_NS = ms(1)
MAX_SERVICE_NS = int(3e9)


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
    #: Period of the in-flight lease re-validation timer.
    lease_check_interval_ns: int = ms(64)
    seed: int = 0x5CA1E
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

    def __post_init__(self) -> None:
        _validate_pool_policy(
            self.pool_policy, self.start_model, self.keepalive_ns, self.hybrid_threshold
        )
        if self.invocations < 1:
            raise ValueError(f"scale run needs at least one invocation, got {self.invocations}")
        if self.workers < 1:
            raise ValueError(f"scale run needs at least one warm slot, got {self.workers}")
        object.__setattr__(self, "diurnal_multipliers", tuple(self.diurnal_multipliers))


@dataclass
class ScaleResult:
    """One open-loop run: throughput, memory, and tail latency."""

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
    #: The arrival process the run drew ("poisson", "bursty", "diurnal").
    arrival_shape: str = "poisson"

    def fingerprint(self) -> dict[str, Any]:
        """The simulated-domain outputs -- identical across engines.

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
        shape = "" if self.arrival_shape == "poisson" else f" ({self.arrival_shape} arrivals)"
        table = Table(
            f"Open-loop scale run -- {self.invocations:,} invocations{shape}",
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


def _validate_pool_policy(
    pool_policy: str, start_model: str, keepalive_ns: int, hybrid_threshold: int
) -> None:
    """Reject unknown cold-start knobs when their config is built."""
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


def run_scale(profile: Union[bool, str, None] = None, **knobs: Any) -> ScaleResult:
    """Drive the open-loop scale scenario once, in-process, and measure it.

    *knobs* are :class:`ScaleConfig` fields; a bad one fails as
    ``ValueError`` when the config is built, and a bad arrival knob
    when its stream is first drawn, before any arrival is served.  The
    quick (CI) configuration shrinks ``invocations`` and ``workers`` so
    the pool saturates and the FIFO backlog path is exercised; the
    paper-scale default instead keeps ~10^6 invocations in flight at
    once.  The run takes the engine its policy calls for, whatever the
    arrival shape: :class:`_FifoDriver`'s exact FIFO recurrence under
    ``queue``, :class:`_PoolWalk` under ``cold``/``hybrid``.  *profile*
    runs the drive under cProfile (see :func:`_timed_drive`).
    """
    config = ScaleConfig(**knobs)
    engine = _FifoDriver if config.pool_policy == "queue" else _PoolWalk
    return _scale_result(config, *_drive(engine, config, profile))


def run_scale_referee(**knobs: Any) -> ScaleResult:
    """:func:`run_scale` on the per-event referee: the same knobs build
    the same config, and :class:`_ShardDriver` walks every event of it
    on the heap environment.  Its fingerprint is the one the default
    engines must match."""
    config = ScaleConfig(**knobs)
    return _scale_result(config, *_drive_referee(_ShardDriver, config))


def _draw_services(rng, size: int, config: ScaleConfig):
    """*size* clipped log-normal service times -- the PR 4 recipe."""
    draws = rng.lognormal(config.service_log_mean, config.service_log_sigma, size=size)
    services = draws.astype(np.int64)
    return np.clip(services, MIN_SERVICE_NS, MAX_SERVICE_NS, out=services)


def _scale_chunks(config: ScaleConfig, lists: bool = True):
    """Yield the run's ``(arrival_times, services)`` chunks.

    Consumption order is arrival order, so services are assigned by
    **arrival index**, not dispatch order: the service sequence is the
    same whatever the pool does with it.

    With ``lists=True`` (the per-event driver) both come as Python
    lists for cheap scalar iteration; with ``lists=False`` they stay
    ``int64`` arrays for the FIFO recurrence and the walk's vectorized
    renewal count.
    """
    streams = RngStreams(config.seed)
    service_rng = streams.stream("service")
    for times in arrival_times(
        config.arrival_shape,
        streams.stream("arrivals"),
        config.invocations,
        config.mean_arrival_gap_ns,
        burst_len=config.burst_len,
        burst_intra_gap_ns=config.burst_intra_gap_ns,
        diurnal_period_ns=config.diurnal_period_ns,
        diurnal_multipliers=config.diurnal_multipliers,
        chunk=_RNG_CHUNK,
    ):
        services = _draw_services(service_rng, times.size, config)
        yield (times.tolist(), services.tolist()) if lists else (times, services)


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

    def __init__(self, config: ScaleConfig) -> None:
        self.config = config
        self.stream = StreamingSummary()
        self.pool = FifoServers(config.workers)
        self.completed = 0
        self.events_processed = 0
        self.final_now_ns = 0
        self._chunks = _scale_chunks(config, lists=False)

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

    def __init__(self, config: ScaleConfig) -> None:
        self.config = config
        self.stream = StreamingSummary()
        self.free_slots = config.workers
        self.count = config.invocations
        self.completed = 0
        self.queued = 0
        self.max_backlog = 0
        self.cold_starts = 0
        self.cold_busy_ns = 0
        self.cold_reclaimed = 0
        self.cold_retained = 0
        self.events_processed = 0
        self.final_now_ns = 0
        self._chunks = _scale_chunks(config, lists=False)

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
            self.stream.observe_many(np.asarray(buffer, dtype=np.int64))
            buffer.clear()


class _ShardDriver:
    """The per-event open-loop FSM: the referee every fast engine is
    checked against.

    Arrivals come as absolute times with services pre-assigned per
    arrival index.  One arrival event is re-scheduled from arrival to
    arrival at ``_ARRIVAL_PRIO``.  Every running invocation holds a
    lease timer re-armed each interval until it finishes; a dry pool
    queues FIFO or, under the cold policies, spins a sandbox up.

    Only :func:`run_scale_referee` builds this driver; :func:`run_scale`
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

    def __init__(self, env, config: ScaleConfig) -> None:
        self.env = env
        self.config = config
        self.stream = StreamingSummary()
        self.backlog: deque[tuple[int, int]] = deque()
        self.free_slots = config.workers
        self.count = config.invocations
        self.arrived = 0
        self.completed = 0
        self.queued = 0
        self.max_backlog = 0
        self._interval = config.lease_check_interval_ns
        self._chunks = _scale_chunks(config)
        self._times: list[int] = []
        self._services: list[int] = []
        self._pos = 0
        self._next_time = 0
        self._next_service = 0
        self._buffer: list[int] = []
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
            self.stream.observe_many(np.asarray(self._buffer, dtype=np.int64))
            self._buffer.clear()

    def finish(self) -> None:
        self._flush()


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


def _drive(
    engine, config: Union[ScaleConfig, MultiTenantConfig], profile: Union[bool, str, None] = None
) -> tuple[Any, float, int, int]:
    """Build the default *engine* on *config* and run it to completion.

    The engine needs no environment.  It runs with glibc's malloc
    thresholds pinned (:mod:`repro.perf.malloc`), as its referee does
    (:func:`_drive_referee`), so the two share one allocator.  Returns
    the driver, the drive's wall time, and the events and final clock
    of the run.
    """
    pin_thresholds()
    driver = engine(config)
    wall_s = _timed_drive(driver.drive, profile)
    return driver, wall_s, driver.events_processed, driver.final_now_ns


def _drive_referee(
    referee, config: Union[ScaleConfig, MultiTenantConfig]
) -> tuple[Any, float, int, int]:
    """:func:`_drive` for a per-event *referee*: it walks every event of
    *config* through the heap environment."""
    pin_thresholds()
    env = Environment()
    driver = referee(env, config)
    driver.start()
    # The FSM allocates no reference cycles, so generational GC
    # scans over ~10^6 live timers are pure overhead; collect once,
    # run with the collector off, restore afterwards.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        wall_s = _timed_drive(driver.drive, None)
    finally:
        if gc_was_enabled:
            gc.enable()
    driver.finish()
    return driver, wall_s, env.events_processed, env.now


def _scale_result(
    config: ScaleConfig, driver, wall_s: float, events: int, now: int
) -> ScaleResult:
    """Measure one drive of *config*, by either engine."""
    if driver.completed != config.invocations:
        raise RuntimeError(
            f"scale run lost invocations: {driver.completed} of {config.invocations}"
        )
    if perf.enabled:
        perf.counters.cold_spinups += driver.cold_starts
        perf.counters.cold_reclaims += driver.cold_reclaimed
    return ScaleResult(
        invocations=config.invocations,
        workers=config.workers,
        completed=driver.completed,
        events_processed=events,
        wall_s=wall_s,
        events_per_sec=events / wall_s if wall_s > 0 else 0.0,
        peak_rss_bytes=_peak_rss_bytes(),
        final_now_ns=now,
        max_backlog=driver.max_backlog,
        queued=driver.queued,
        latency=driver.stream.summarize(),
        stream_buckets=len(driver.stream.histogram),
        cold_starts=driver.cold_starts,
        cold_busy_ns=driver.cold_busy_ns,
        cold_reclaimed=driver.cold_reclaimed,
        cold_retained=driver.cold_retained,
        arrival_shape=config.arrival_shape,
    )


#: Quick (CI) configuration: with 10^4 invocations and 2048 slots the
#: pool saturates within the burst, so the smoke run exercises the FIFO
#: queueing path the paper-scale defaults deliberately avoid.
QUICK_KWARGS = {"invocations": 10_000, "workers": 2_048, "mean_arrival_gap_ns": us(25)}


# -- multi-tenant engine -----------------------------------------------
#
# Tenancy as a dimension of the same open-loop machine: the per-tenant
# arrival streams of a declarative TenantSpec mix are merged into ONE
# global non-decreasing calendar (a stable sort whose inverse gives each
# chunk's grouping: per tenant, the positions of its arrivals), services
# are drawn per tenant in within-tenant arrival order and placed at the
# tenant's positions, and every completion carries its (tenant, pool)
# slot for pool-partitioned hand-off.  Admission outcomes follow the rFaaS/compSpot taxonomy --
# SUCCESS / CONGESTION / DEADLINE_MISSED -- with the deadline
# classification done purely at flush time against per-tenant deadline
# masks (no per-event Python).  The per-event FSM stays the
# bit-identity referee.

#: Warm-pool partition plans over the tenant mix.
PARTITIONINGS = ("pinned", "shared", "overflow")


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
    #: Dry-pool arrival policy, per-tenant thresholds: "queue" (FIFO up
    #: to ``spec.queue_cap``, then CONGESTION), "cold" (every dry
    #: arrival spins a sandbox up; it joins the *shared* tier), or
    #: "hybrid" (queue until ``hybrid_threshold``, then go cold).
    pool_policy: str = "queue"
    start_model: str = "remote-fork"
    hybrid_threshold: int = 64

    def __post_init__(self) -> None:
        specs = tuple(self.specs)
        object.__setattr__(self, "specs", specs)
        if not specs:
            raise ValueError("multi-tenant run needs at least one tenant spec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        for spec in specs:
            if spec.queue_cap < 0:
                raise ValueError(
                    f"tenant {spec.name!r} has a negative queue_cap ({spec.queue_cap})"
                )
        if self.partitioning not in PARTITIONINGS:
            raise ValueError(
                f"partitioning must be one of {PARTITIONINGS}, got {self.partitioning!r}"
            )
        _validate_pool_policy(self.pool_policy, self.start_model, 0, self.hybrid_threshold)


def _tenant_pool_plan(specs: tuple, workers: int, partitioning: str) -> tuple[list[int], int]:
    """Split *workers* into per-tenant pinned partitions + a shared tier.

    Every tenant must reach a slot, through its pinned partition or the
    shared tier: a tenant that reaches none would leave its waiters
    queued forever.  *partitioning* is one of :data:`PARTITIONINGS`, as
    :class:`MultiTenantConfig` checks.
    """
    weights = [max(1, spec.workers) for spec in specs]
    if partitioning == "shared":
        pinned, shared = [0] * len(specs), workers
    elif partitioning == "pinned":
        pinned, shared = split_by_weights(workers, weights), 0
    else:  # overflow: half pinned by weight, half shared
        half = workers // 2
        pinned, shared = split_by_weights(half, weights), workers - half
    if partitioning == "shared":
        if workers < 1:
            raise ValueError(f"a shared plan needs at least one worker, got {workers}")
    elif min(pinned) < 1:
        raise ValueError(
            f"{workers} workers spread too thin over {len(specs)} pinned partitions"
        )
    return pinned, shared


def _draw_tenant_services(rng, size: int, spec: TenantSpec):
    """*size* log-normal service times around the tenant's compute cost."""
    draws = rng.lognormal(np.log(spec.compute_ns), spec.service_log_sigma, size=size)
    services = draws.astype(np.int64)
    return np.maximum(services, 1, out=services)


def _tenant_chunks(config: "MultiTenantConfig", lists: bool = True):
    """Yield the merged calendar's chunks.

    Services are drawn from each tenant's own RNG stream in
    *within-tenant arrival order* and placed at the tenant's positions
    in the chunk (the merge's grouping), which keeps a tenant's service
    sequence independent of what the co-tenants do.

    With ``lists=True`` (the walk and the per-event referee) a chunk is
    ``(times, tenants, services)``, three Python lists; with
    ``lists=False`` it is ``(times, services, groups)`` for the FIFO
    recurrence: two arrays and the grouping, ``groups[t]`` holding
    tenant ``t``'s ascending positions in the chunk.
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
    for times, groups in merged:
        services = np.empty(times.size, dtype=np.int64)
        for rng, spec, group in zip(service_rngs, specs, groups):
            if group.size:
                services[group] = _draw_tenant_services(rng, group.size, spec)
        if lists:
            tenants = np.empty(times.size, dtype=np.intp)
            for t, group in enumerate(groups):
                tenants[group] = t
            yield times.tolist(), tenants.tolist(), services.tolist()
        else:
            yield times, services, groups


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
      classified at flush time: per-tenant masks feed the vectorized
      ``sojourn > deadline_ns[t]`` DEADLINE_MISSED counts and a
      :class:`KeyedStreamingSummary`, whose parts keep each tenant's
      exact integer sojourn total.  Each sojourn is recorded once,
      under its tenant; the all-tenant summary is the exact merge of
      the tenants' parts (:func:`run_tenant_scale`).
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
        "deadlines",
        "queue_caps",
        "_interval",
        "_threshold",
        "_spawn",
        "_buf_tenant",
        "_buf_sojourn",
    )

    def __init__(self, config: MultiTenantConfig) -> None:
        self.config = config
        specs = config.specs
        n = len(specs)
        self.names = [spec.name for spec in specs]
        self.keyed = KeyedStreamingSummary()
        self.backlogs = [deque() for _ in range(n)]
        self.pinned, self.shared_free = _tenant_pool_plan(
            specs, config.workers, config.partitioning
        )
        self.waiting = 0
        self.count = sum(spec.invocations for spec in specs)
        if self.count < 1:
            raise ValueError("multi-tenant run needs at least one invocation")
        self.arrived = 0
        self.completed = 0
        self.arrived_by = [0] * n
        self.dispatched_by = [0] * n
        self.missed_by = [0] * n
        self.congested_by = [0] * n
        self.queued_by = [0] * n
        self.cold_by = [0] * n
        self.max_backlog_by = [0] * n
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
            vals = np.asarray(buf, dtype=np.int64)
            tens = np.asarray(self._buf_tenant, dtype=np.int64)
            for t in range(len(self.names)):
                slab = vals[tens == t]
                if slab.size:
                    self._book(t, slab)
            buf.clear()
            self._buf_tenant.clear()

    def _book(self, t: int, sojourns: np.ndarray) -> None:
        """Book tenant *t*'s dispatched *sojourns*."""
        self.dispatched_by[t] += int(sojourns.size)
        # The deadline mask IS the outcome classifier: a dispatched
        # invocation either makes its sojourn budget (SUCCESS) or
        # misses it (DEADLINE_MISSED).
        self.missed_by[t] += int(np.count_nonzero(sojourns > self.deadlines[t]))
        self.keyed.observe_many(self.names[t], sojourns)


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
    still consumed positionally.

    Each chunk comes with the merge's grouping -- per tenant, the
    ascending positions of its arrivals -- and every tenant split is
    read from it: the shared pool's keys, each pinned pool's arrivals
    and starts, the arrival counts and the per-tenant sojourn books.
    The chunk's sojourns are one array, gathered once per tenant; only
    tenants with a congested arrival in the chunk filter theirs to the
    dispatched ones.  The rest follows in closed form from the chunk's
    arrays, as in :class:`_FifoDriver`:

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

    def __init__(self, config: MultiTenantConfig) -> None:
        super().__init__(config)
        self._chunks = _tenant_chunks(config, lists=False)
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
        for times, services, groups in self._chunks:
            rejected = self._rejected()
            if shared:
                starts = pools[0].serve(times, services, groups)
            else:
                starts = np.empty_like(times)
                for pool, group in zip(pools, groups):
                    starts[group] = pool.serve(times[group], services[group])
            congested = [after > before for before, after in zip(rejected, self._rejected())]
            # A congested arrival starts at -1; without one, every
            # arrival was dispatched.
            kept = starts >= 0 if any(congested) else slice(None)
            # The chunk's arrays are ours to overwrite, but *starts* may
            # be *times* itself, so it is never written to.
            sojourn = starts + services
            dispatched = services[kept]
            if dispatched.size:
                finish = max(finish, int(sojourn[kept].max()))
            sojourn -= times
            dispatched -= 1
            dispatched //= interval  # renewal hops
            hops += int(dispatched.sum())
            last = int(times[-1])
            for t, group in enumerate(groups):
                arrived_by[t] += int(group.size)
                booked = sojourn[group]
                if congested[t]:
                    booked = booked[kept[group]]
                if booked.size:
                    self._book(t, booked)
        # Per tenant, one list entry per key: the shared pool keys its
        # books by tenant, and each pinned pool has its tenant's only.
        self.queued_by = [q for pool in pools for q in pool.queued_by]
        self.max_backlog_by = [b for pool in pools for b in pool.max_backlog_by]
        self.congested_by = self._rejected()
        self.arrived = sum(arrived_by)
        self.completed = sum(self.dispatched_by)
        self.events_processed = self.arrived + self.completed + hops
        self.final_now_ns = max(finish, last)

    def _rejected(self) -> list[int]:
        """Per tenant, the arrivals congested so far."""
        return [r for pool in self._pools for r in pool.rejected_by]


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

    def __init__(self, config: MultiTenantConfig) -> None:
        super().__init__(config)
        self._chunks = _tenant_chunks(config)
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

    def __init__(self, env, config: MultiTenantConfig) -> None:
        super().__init__(config)
        self.env = env
        self._chunks = _tenant_chunks(config)
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
    """A multi-tenant open-loop run."""

    partitioning: str
    pool_policy: str
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
        """Simulated-domain outputs: identical across engines."""
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
            f"{self.partitioning} partitioning",
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


def run_tenant_scale(
    specs=None,
    invocations: Optional[int] = None,
    rate_scale: float = 1.0,
    compute_scale: float = 1.0,
    **knobs: Any,
) -> TenantScaleResult:
    """Drive the multi-tenant open-loop scenario once, in-process, and measure it.

    *specs* defaults to :func:`repro.workloads.tenants.standard_mix`
    rescaled by (*invocations*, *rate_scale*, *compute_scale*); pass an
    explicit mix to override.  *knobs* are the other
    :class:`MultiTenantConfig` fields, checked when it is built.  A
    ``queue`` run on a pinned or shared plan takes the tenant FIFO
    recurrence (:class:`_TenantFifo`), any other run the tenant walk
    (:class:`_TenantWalk`).

    Per-tenant summaries and sojourn totals come straight from the
    driver's keyed accumulators, whose means divide exact integer
    totals.  The all-tenant summary merges the tenants' parts, and
    every part of that merge is exact.
    """
    config = _tenant_config(specs, invocations, rate_scale, compute_scale, knobs)
    # Under the queue policy only an overflow plan, which mixes pinned
    # and shared slots, needs the walk's event order.
    fifo = config.pool_policy == "queue" and config.partitioning != "overflow"
    return _tenant_result(config, *_drive(_TenantFifo if fifo else _TenantWalk, config))


def run_tenant_scale_referee(
    specs=None,
    invocations: Optional[int] = None,
    rate_scale: float = 1.0,
    compute_scale: float = 1.0,
    **knobs: Any,
) -> TenantScaleResult:
    """:func:`run_tenant_scale` on the per-event referee
    (:class:`_TenantDriver` on the heap environment), from the same
    arguments and so the same config."""
    config = _tenant_config(specs, invocations, rate_scale, compute_scale, knobs)
    return _tenant_result(config, *_drive_referee(_TenantDriver, config))


def _tenant_config(
    specs, invocations: Optional[int], rate_scale: float, compute_scale: float, knobs: dict
) -> MultiTenantConfig:
    """The scenario's config: *specs*, else the standard mix rescaled."""
    if specs is None:
        specs = standard_mix(invocations, rate_scale, compute_scale)
    return MultiTenantConfig(specs=specs, **knobs)


def _tenant_result(
    config: MultiTenantConfig, driver, wall_s: float, events: int, now: int
) -> TenantScaleResult:
    """Measure one drive of *config*, by either engine."""
    congested = sum(driver.congested_by)
    if driver.completed + congested != driver.count:
        raise RuntimeError(
            f"multi-tenant run lost invocations: {driver.completed} completed "
            f"+ {congested} congested of {driver.count}"
        )
    keyed = driver.keyed
    tenants: dict[str, TenantStats] = {}
    for t, name in enumerate(driver.names):
        dispatched = driver.dispatched_by[t]
        tenants[name] = TenantStats(
            name=name,
            arrived=driver.arrived_by[t],
            dispatched=dispatched,
            missed=driver.missed_by[t],
            congested=driver.congested_by[t],
            queued=driver.queued_by[t],
            cold_starts=driver.cold_by[t],
            max_backlog=driver.max_backlog_by[t],
            sojourn_total=keyed.parts[name].total if dispatched else 0,
            latency=keyed.summarize(name) if dispatched else None,
        )
    stream = StreamingSummary.merged(keyed.parts[k] for k in keyed.keys())
    return TenantScaleResult(
        partitioning=config.partitioning,
        pool_policy=config.pool_policy,
        invocations=driver.count,
        workers=config.workers,
        completed=driver.completed,
        events_processed=events,
        wall_s=wall_s,
        events_per_sec=events / wall_s if wall_s > 0 else 0.0,
        peak_rss_bytes=_peak_rss_bytes(),
        final_now_ns=now,
        queued=sum(driver.queued_by),
        congested=congested,
        missed=sum(driver.missed_by),
        cold_starts=sum(driver.cold_by),
        latency=stream.summarize(),
        tenants=tenants,
        stream_buckets=len(stream.histogram) + keyed.buckets(),
    )
