"""Cluster-scale control plane: lease brokering under executor churn.

PRs 4-7 scaled the *data path* (invocations over a leased warm pool);
this scenario scales the paper's other half -- the lease-based control
plane of Sec. III-B.  One resource manager brokers thousands of spot
executors and millions of lease events: acquire, periodic renew,
release, expiry after abandonment, and -- the spot-market signature --
node churn, where an executor death terminates every lease it hosts
(mass reclamation), the affected clients re-acquire (steal recovery),
and the node later revives at full capacity.

Two drivers replay the *same* deterministic calendar:

* ``reference`` -- per-event, through the real
  :class:`~repro.core.resource_manager.ResourceManager` RPC path: every
  request is an ``env.process`` yielding the manager's decision delay,
  every renewal a chained timeout feeding ``lease_renew``, every expiry
  the manager's own ``_expire_later`` process, churn a
  ``deregister_executor`` RPC whose termination announcements fan out
  to the clients.  This is the bit-identity referee.
* ``kernel`` -- the struct-of-arrays fast path: executor capacity as
  parallel numpy arrays with masked-argmax placement
  (:class:`repro.core.placement.SoACapacity`), the whole lease calendar
  (placements, lease ends, deaths) admitted in sorted cohorts through
  ``schedule_batch``, churn applied as vectorized masks over the lease
  table, and renewals never entering the event queue at all -- their
  count and timestamps are closed-form per lease, emitted vectorized
  after the run.

Both run on the heap :class:`~repro.sim.core.Environment` and produce
identical fingerprints, including runs with churn enabled.

Determinism without tie-break coupling
--------------------------------------
The drivers schedule different events, so their entry ids differ and
equal-timestamp ordering must never matter.  The calendar
guarantees that with a residue grid (mod ``QUANT`` = 16): every event
class that mutates shared state lands on its own residue --

====================  ========================  =======
event                 construction              residue
====================  ========================  =======
arrival / grant       ``16 * cumsum(gaps)``        0
renewal               period ``R == 0 (16)``       0
release               lifetime ``L == 1 (16)``     1
abandon expiry        timeout ``T == 2 (16)``      2
node death            churn stream residue         4
re-acquire / grant    delay ``delta == 1 (16)``    5
re-acquire release    ``L' == 1 (16)``             6
node revival          downtime ``== 4 (16)``       8
====================  ========================  =======

Classes sharing a residue commute: renewals never touch capacity, and
equal-time releases only *return* capacity.  Within a class, arrivals
and deaths are strictly increasing by construction, and same-instant
re-acquisitions are issued in lease-grant order by both drivers (the
order ``_declare_dead`` walks a record's lease list).

Latency is a shared post-pass (:mod:`repro.analysis.latency`): the
manager is modeled as one FIFO server over the logged RPC events, so
renewal storms and post-churn re-acquire bursts surface in the
allocation and steal tails -- computed from identical logs by identical
code, hence bit-identical statistics.
"""

from __future__ import annotations

import gc
import resource
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Optional

import numpy as np

from repro import perf
from repro.analysis.latency import sojourn_by_kind
from repro.analysis.reporting import Table, format_bytes, format_ns
from repro.analysis.stats import SummaryStats
from repro.analysis.streams import StreamingSummary
from repro.cluster.churn import ChurnStream, churn_stream
from repro.cluster.node import NodeSpec
from repro.core.config import RFaaSConfig, RFaaSTimings
from repro.core.placement import SoACapacity
from repro.core.resource_manager import ResourceManager
from repro.rdma.fabric import Fabric
from repro.sim.clock import ms, us
from repro.sim.core import Environment

#: Residue grid modulus (see the module docstring).
QUANT = 16

#: Manager-event kinds, in FIFO tie-rank order.
KIND_GRANT, KIND_DENY, KIND_RENEW, KIND_RELEASE, KIND_STEAL_GRANT, KIND_STEAL_DENY = range(6)
KIND_COUNT = 6

#: Per-kind service cost of the FIFO manager model (ns): lease
#: decisions are the heavyweight step, renewals and releases are
#: lookups.
SERVICE_NS = np.array([2_000, 2_000, 300, 250, 2_000, 2_000], dtype=np.int64)

#: Cohort size for batch admission of the setup calendars.
_ADMIT_CHUNK = 1 << 16

_SPEC = NodeSpec()


def _exec_name(index: int) -> str:
    # Zero-padded so sorted(name) order == numeric order == SoA index.
    return f"x{index:06d}"


@dataclass(frozen=True)
class ControlConfig:
    """One control-plane scenario (all times integer ns)."""

    executors: int = 2_048
    requests: int = 120_000
    seed: int = 0xC7A1
    #: Mean inter-arrival gap of lease requests.
    mean_arrival_gap_ns: int = us(50)
    #: Per-executor envelope (defaults: the Piz Daint node model).
    cores_per_executor: int = _SPEC.cores
    memory_per_executor: int = _SPEC.memory_bytes
    #: Request sizes: 1..max cores, memory proportional.
    max_request_cores: int = 8
    memory_per_core: int = 8 << 30
    #: Lease lifetime draw (lognormal, ns) and floor.
    lifetime_log_mean: float = 20.7
    lifetime_log_sigma: float = 0.7
    min_lifetime_ns: int = ms(1)
    #: Client renewal period (== 0 mod QUANT).
    renew_period_ns: int = ms(100)
    #: Manager-granted lease timeout (== 2 mod QUANT, > renew period).
    lease_timeout_ns: int = ms(150) + 2
    #: Fraction of clients that abandon (stop renewing, let the lease
    #: expire) instead of releasing, and how many renewals they send.
    abandon_fraction: float = 0.08
    max_abandon_renewals: int = 12
    #: Distinct client names (billing accounts).
    clients: int = 64
    #: Manager decision latency (== 0 mod QUANT; ~ the paper's 15 us).
    decision_ns: int = 15_008
    #: Churn: node deaths over the arrival span, constant re-acquire
    #: delay (== 1 mod QUANT) and downtime (== 4 mod QUANT).
    churn: bool = True
    deaths: int = 300
    reacquire_delay_ns: int = us(100) + 1
    downtime_ns: int = ms(50) + 4
    #: Remaining lifetime below which a stolen lease is not re-acquired.
    min_relifetime_ns: int = ms(1)
    subbits: int = 8

    def __post_init__(self) -> None:
        if self.executors < 1 or self.requests < 1:
            raise ValueError("executors and requests must be >= 1")
        grid = {
            "renew_period_ns": (self.renew_period_ns, 0),
            "lease_timeout_ns": (self.lease_timeout_ns, 2),
            "decision_ns": (self.decision_ns, 0),
            "reacquire_delay_ns": (self.reacquire_delay_ns, 1),
            "downtime_ns": (self.downtime_ns, 4),
        }
        for name, (value, residue) in grid.items():
            if value % QUANT != residue:
                raise ValueError(
                    f"{name}={value} must be == {residue} (mod {QUANT}); "
                    "the residue grid is what makes the two drivers "
                    "order-independent"
                )
        if not self.lease_timeout_ns > self.renew_period_ns:
            raise ValueError("lease_timeout_ns must exceed renew_period_ns")
        if not self.renew_period_ns > self.decision_ns:
            raise ValueError("renew_period_ns must exceed decision_ns")
        if not self.min_lifetime_ns > self.decision_ns:
            raise ValueError("min_lifetime_ns must exceed decision_ns")
        if not self.min_relifetime_ns > self.decision_ns:
            raise ValueError("min_relifetime_ns must exceed decision_ns")
        if not 0 <= self.abandon_fraction <= 1:
            raise ValueError("abandon_fraction must be in [0, 1]")


@dataclass(frozen=True)
class ControlStreams:
    """The pre-drawn calendar both drivers replay."""

    times: np.ndarray  # arrival instants, strictly increasing, == 0 (16)
    cores: np.ndarray
    memory: np.ndarray
    abandon: np.ndarray  # bool
    planned_renewals: np.ndarray  # renewals each client will send
    end_planned: np.ndarray  # release instant, or expiry for abandoners
    clients: np.ndarray
    churn: ChurnStream
    horizon_ns: int


def control_streams(config: ControlConfig) -> ControlStreams:
    """Draw the deterministic request + churn calendar for *config*."""
    rng = np.random.default_rng(config.seed)
    n = config.requests
    gaps = np.maximum(
        rng.exponential(config.mean_arrival_gap_ns / QUANT, size=n).astype(np.int64), 1
    )
    times = QUANT * np.cumsum(gaps)
    cores = rng.integers(1, config.max_request_cores + 1, size=n, dtype=np.int64)
    memory = cores * config.memory_per_core
    life = rng.lognormal(config.lifetime_log_mean, config.lifetime_log_sigma, size=n)
    life = np.maximum(life.astype(np.int64), config.min_lifetime_ns)
    life = (life // QUANT) * QUANT + 1  # residue 1: releases never collide
    abandon = rng.random(n) < config.abandon_fraction
    abandon_renewals = rng.integers(
        0, config.max_abandon_renewals + 1, size=n, dtype=np.int64
    )
    period = config.renew_period_ns
    planned = np.where(abandon, abandon_renewals, (life - 1) // period)
    # An abandoned lease expires one timeout after its last clock
    # restart: the final renewal, or -- with no renewals at all -- the
    # grant itself, which lands at arrival + decision delay.
    last_restart = np.where(planned > 0, planned * period, config.decision_ns)
    end_planned = np.where(
        abandon, times + last_restart + config.lease_timeout_ns, times + life
    )
    clients = np.arange(n, dtype=np.int64) % config.clients
    churn = churn_stream(
        rng,
        config.deaths if config.churn else 0,
        config.executors,
        int(times[-1]),
        config.downtime_ns,
        quantum=QUANT,
        death_residue=4,
    )
    horizon = int(end_planned.max())
    if len(churn):
        horizon = max(horizon, int(churn.death_times_ns[-1]) + config.downtime_ns)
    horizon += config.decision_ns + config.reacquire_delay_ns + 4 * QUANT
    return ControlStreams(
        times=times,
        cores=cores,
        memory=memory,
        abandon=abandon,
        planned_renewals=planned,
        end_planned=end_planned,
        clients=clients,
        churn=churn,
        horizon_ns=horizon,
    )


@dataclass
class ControlResult:
    """One control-plane run: counts, latencies, throughput."""

    driver: str
    executors: int
    requests: int
    lease_events: int
    counts: dict[str, int]
    leases_active_peak: int
    placement_checksum: int
    final_free_cores: int
    final_free_memory: int
    alloc: Optional[SummaryStats]
    steal: Optional[SummaryStats]
    renew: Optional[SummaryStats]
    events_processed: int
    wall_s: float
    lease_events_per_sec: float
    grants_per_sec: float
    peak_rss_bytes: int

    def fingerprint(self) -> dict[str, Any]:
        """Simulated-domain outputs -- identical across drivers.

        Wall-clock, RSS, and raw simulator event counts are measurement
        artifacts of the driver and excluded.
        """
        out: dict[str, Any] = dict(self.counts)
        out["lease_events"] = self.lease_events
        out["leases_active_peak"] = self.leases_active_peak
        out["placement_checksum"] = self.placement_checksum
        out["final_free_cores"] = self.final_free_cores
        out["final_free_memory"] = self.final_free_memory
        for label, stats in (("alloc", self.alloc), ("steal", self.steal), ("renew", self.renew)):
            if stats is None:
                out[f"{label}_count"] = 0
                continue
            out[f"{label}_count"] = stats.count
            out[f"{label}_median_ns"] = stats.median
            out[f"{label}_p95_ns"] = stats.p95
            out[f"{label}_p99_ns"] = stats.p99
            out[f"{label}_mean_ns"] = stats.mean
            out[f"{label}_min_ns"] = stats.minimum
            out[f"{label}_max_ns"] = stats.maximum
        return out

    def table(self) -> Table:
        counts = self.counts
        table = Table(
            f"Control plane -- {self.lease_events:,} lease events over "
            f"{self.executors:,} executors ({self.driver} driver)",
            ["metric", "value"],
        )
        table.add_row("requests", f"{self.requests:,}")
        table.add_row(
            "grants / denials", f"{counts['grants']:,} / {counts['denials']:,}"
        )
        table.add_row("renewals", f"{counts['renewals']:,}")
        table.add_row(
            "releases / expiries", f"{counts['releases']:,} / {counts['expiries']:,}"
        )
        table.add_row(
            "node deaths (no-ops) / revives",
            f"{counts['dead_nodes']:,} ({counts['churn_noops']:,}) / {counts['revives']:,}",
        )
        table.add_row(
            "leases stolen -> re-acquired / denied / skipped",
            f"{counts['steals']:,} -> {counts['steal_grants']:,} / "
            f"{counts['steal_denials']:,} / {counts['steal_skipped']:,}",
        )
        table.add_row("active leases peak", f"{self.leases_active_peak:,}")
        if self.alloc is not None:
            table.add_row("alloc latency median", format_ns(self.alloc.median))
            table.add_row("alloc latency p99", format_ns(self.alloc.p99))
        if self.steal is not None:
            table.add_row("steal latency p99", format_ns(self.steal.p99))
        table.add_row("wall clock", f"{self.wall_s:.2f} s")
        table.add_row("lease events/sec", f"{self.lease_events_per_sec:,.0f}")
        table.add_row("grants/sec", f"{self.grants_per_sec:,.0f}")
        table.add_row("peak RSS", format_bytes(self.peak_rss_bytes))
        table.add_row("simulator events", f"{self.events_processed:,}")
        return table


_COUNT_KEYS = (
    "grants",
    "denials",
    "renewals",
    "releases",
    "expiries",
    "steals",
    "steal_grants",
    "steal_denials",
    "steal_skipped",
    "dead_nodes",
    "churn_noops",
    "revives",
)


def _peak_rss_bytes() -> int:
    """Lifetime peak RSS of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _finish(
    config: ControlConfig,
    driver: str,
    counts: dict[str, int],
    checksum: int,
    log_times: np.ndarray,
    log_kinds: np.ndarray,
    log_keys: np.ndarray,
    leases_active_peak: int,
    final_free_cores: int,
    final_free_memory: int,
    events_processed: int,
    wall_s: float,
) -> ControlResult:
    """Shared result assembly: FIFO replay + summaries from the log."""
    per_kind = sojourn_by_kind(log_times, log_kinds, log_keys, SERVICE_NS, KIND_COUNT)

    def summarize(values: np.ndarray) -> Optional[SummaryStats]:
        if values.size == 0:
            return None
        stream = StreamingSummary(config.subbits)
        stream.observe_many(values)
        return stream.summarize()

    alloc = summarize(per_kind[KIND_GRANT])
    # Steal latency runs from the node death, one constant re-acquire
    # delay before the request the FIFO model served.
    steal = summarize(per_kind[KIND_STEAL_GRANT] + config.reacquire_delay_ns)
    renew = summarize(per_kind[KIND_RENEW])
    lease_events = sum(counts[key] for key in _COUNT_KEYS[:9])
    wall = max(wall_s, 1e-9)
    if perf.enabled:
        perf.counters.lease_grants += counts["grants"] + counts["steal_grants"]
        perf.counters.lease_renewals += counts["renewals"]
        perf.counters.lease_steals += counts["steals"]
        perf.counters.dead_nodes += counts["dead_nodes"]
        if leases_active_peak > perf.counters.leases_active_peak:
            perf.counters.leases_active_peak = leases_active_peak
    return ControlResult(
        driver=driver,
        executors=config.executors,
        requests=config.requests,
        lease_events=lease_events,
        counts=counts,
        leases_active_peak=leases_active_peak,
        placement_checksum=checksum % (1 << 61),
        final_free_cores=final_free_cores,
        final_free_memory=final_free_memory,
        alloc=alloc,
        steal=steal,
        renew=renew,
        events_processed=events_processed,
        wall_s=wall_s,
        lease_events_per_sec=lease_events / wall,
        grants_per_sec=(counts["grants"] + counts["steal_grants"]) / wall,
        peak_rss_bytes=_peak_rss_bytes(),
    )


# ---------------------------------------------------------------------------
# Reference driver: the real ResourceManager, one RPC per event.
# ---------------------------------------------------------------------------


class _LoopbackConn:
    """Zero-latency stand-in for the client side of an RpcConnection.

    The manager only ever calls ``.alive`` and ``.notify`` on client
    connections; routing both to the driver keeps the announcement path
    (lease terminations on death/expiry) intact without a fabric
    round-trip per event.
    """

    __slots__ = ("_handler",)
    alive = True

    def __init__(self, handler: Any) -> None:
        self._handler = handler

    def notify(self, message: Any) -> None:
        self._handler(message)


class _ReferenceDriver:
    """Per-event replay through the ResourceManager RPC path."""

    def __init__(self, config: ControlConfig, streams: ControlStreams) -> None:
        self.config = config
        self.streams = streams
        self.env = Environment()
        fabric = Fabric(self.env)
        self.manager = ResourceManager(
            fabric.attach("control-manager"),
            RFaaSConfig(
                timings=RFaaSTimings(manager_decision_ns=config.decision_ns),
                lease_timeout_ns=config.lease_timeout_ns,
            ),
            name="control-manager",
        )
        for index in range(config.executors):
            self.manager.register_record(
                _exec_name(index),
                host=_exec_name(index),
                port=10_000,
                cores=config.cores_per_executor,
                memory_bytes=config.memory_per_executor,
            )
        self.conn = _LoopbackConn(self._on_notify)
        # Scalar-access copies of the calendar (lists are faster than
        # numpy element reads in a per-event loop).
        self.times = streams.times.tolist()
        self.cores = streams.cores.tolist()
        self.memory = streams.memory.tolist()
        self.abandon = streams.abandon.tolist()
        self.planned_renewals = streams.planned_renewals.tolist()
        self.end_planned = streams.end_planned.tolist()
        self.clients = streams.clients.tolist()
        # Per-lease state, indexed by the manager's sequential lease id.
        cap = 2 * config.requests + 2
        self.lease_end = [0] * cap
        self.lease_cores = [0] * cap
        self.lease_memory = [0] * cap
        self.lease_client = [0] * cap
        self.lease_live = bytearray(cap)
        self.lease_retry = bytearray(cap)
        self.renews_left = [0] * cap
        self.counts = dict.fromkeys(_COUNT_KEYS, 0)
        self.checksum = 0
        self.active_now = 0
        self.active_peak = 0
        self.log_times: list[int] = []
        self.log_kinds: list[int] = []
        self.log_keys: list[int] = []
        self._arrival_index = 0
        self._death_index = 0
        self._pending_reacq: list[int] = []

    # -- client-side event handlers ------------------------------------

    def _arrival_cb(self, _event: Any) -> None:
        i = self._arrival_index
        self._arrival_index = i + 1
        self.env.process(self._request_proc(i))

    def _request_proc(self, i: int):
        t = self.times[i]
        response = yield from self.manager._handle_rpc(
            {
                "type": "lease_request",
                "client": f"c{self.clients[i]}",
                "cores": self.cores[i],
                "memory_bytes": self.memory[i],
                "timeout_ns": self.config.lease_timeout_ns,
            },
            self.conn,
        )
        counts = self.counts
        if response["type"] != "lease_granted":
            counts["denials"] += 1
            self._log(t, KIND_DENY, i)
            return
        lid = response["lease_id"]
        executor_index = int(response["executor_name"][1:])
        counts["grants"] += 1
        self.checksum += lid * (executor_index + 1)
        self._log(t, KIND_GRANT, lid)
        self.lease_end[lid] = self.end_planned[i]
        self.lease_cores[lid] = self.cores[i]
        self.lease_memory[lid] = self.memory[i]
        self.lease_client[lid] = self.clients[i]
        self.lease_live[lid] = 1
        self.active_now += 1
        if self.active_now > self.active_peak:
            self.active_peak = self.active_now
        planned = self.planned_renewals[i]
        if planned:
            self.renews_left[lid] = planned
            renew = self.env.timeout(self.config.renew_period_ns - self.config.decision_ns)
            renew.callbacks.append(partial(self._renew_cb, lid))
        if not self.abandon[i]:
            release = self.env.timeout(self.end_planned[i] - self.env.now)
            release.callbacks.append(partial(self._release_cb, lid))

    def _renew_cb(self, lid: int, _event: Any) -> None:
        if not self.lease_live[lid]:
            return
        response = self.manager._handle_rpc({"type": "lease_renew", "lease_id": lid}, None)
        assert response["type"] == "lease_renewed", response
        self.counts["renewals"] += 1
        self._log(self.env.now, KIND_RENEW, lid)
        self.renews_left[lid] -= 1
        if self.renews_left[lid] > 0:
            renew = self.env.timeout(self.config.renew_period_ns)
            renew.callbacks.append(partial(self._renew_cb, lid))

    def _release_cb(self, lid: int, _event: Any) -> None:
        if not self.lease_live[lid]:
            return
        self.lease_live[lid] = 0
        self.manager._handle_rpc({"type": "lease_release", "lease_id": lid}, None)
        self.counts["releases"] += 1
        self.active_now -= 1
        self._log(self.env.now, KIND_RELEASE, lid)

    def _on_notify(self, message: Any) -> None:
        if message.get("type") != "lease_terminated":
            return
        lid = message["lease_id"]
        if not self.lease_live[lid]:
            return
        self.lease_live[lid] = 0
        self.active_now -= 1
        if message.get("reason") == "expired":
            self.counts["expiries"] += 1
            return
        # Executor death: steal.  Non-retried leases with enough
        # lifetime left re-acquire after the constant client delay.
        self.counts["steals"] += 1
        if self.lease_retry[lid]:
            return
        remaining = self.lease_end[lid] - (self.env.now + self.config.reacquire_delay_ns)
        if remaining >= self.config.min_relifetime_ns:
            self._pending_reacq.append(lid)
        else:
            self.counts["steal_skipped"] += 1

    def _death_cb(self, _event: Any) -> None:
        j = self._death_index
        self._death_index = j + 1
        name = _exec_name(int(self.streams.churn.victims[j]))
        if not self.manager.executors[name].alive:
            self.counts["churn_noops"] += 1
            return
        self.counts["dead_nodes"] += 1
        self._pending_reacq = []
        death_ns = self.env.now
        # The RPC path for retirement/failure: terminates every hosted
        # lease and announces each one through the client connection
        # (which fills _pending_reacq, in the record's lease order).
        self.manager._handle_rpc({"type": "deregister_executor", "name": name}, None)
        for lid in self._pending_reacq:
            reacquire = self.env.timeout(self.config.reacquire_delay_ns)
            reacquire.callbacks.append(partial(self._reacq_cb, lid, death_ns))
        revive = self.env.timeout(self.config.downtime_ns)
        revive.callbacks.append(partial(self._revive_cb, name))

    def _revive_cb(self, name: str, _event: Any) -> None:
        self.manager.revive_executor(name)
        self.counts["revives"] += 1

    def _reacq_cb(self, lid: int, death_ns: int, _event: Any) -> None:
        self.env.process(self._reacq_proc(lid, death_ns))

    def _reacq_proc(self, lid: int, death_ns: int):
        config = self.config
        reacquire_ns = self.env.now
        remaining = self.lease_end[lid] - reacquire_ns
        relifetime = (remaining // QUANT) * QUANT + 1
        response = yield from self.manager._handle_rpc(
            {
                "type": "lease_request",
                "client": f"c{self.lease_client[lid]}",
                "cores": self.lease_cores[lid],
                "memory_bytes": self.lease_memory[lid],
                "timeout_ns": relifetime + config.lease_timeout_ns,
            },
            self.conn,
        )
        if response["type"] != "lease_granted":
            self.counts["steal_denials"] += 1
            self._log(reacquire_ns, KIND_STEAL_DENY, lid)
            return
        new_lid = response["lease_id"]
        executor_index = int(response["executor_name"][1:])
        self.counts["steal_grants"] += 1
        self.checksum += new_lid * (executor_index + 1)
        self._log(reacquire_ns, KIND_STEAL_GRANT, lid)
        self.lease_end[new_lid] = reacquire_ns + relifetime
        self.lease_cores[new_lid] = self.lease_cores[lid]
        self.lease_memory[new_lid] = self.lease_memory[lid]
        self.lease_client[new_lid] = self.lease_client[lid]
        self.lease_live[new_lid] = 1
        self.lease_retry[new_lid] = 1
        self.active_now += 1
        if self.active_now > self.active_peak:
            self.active_peak = self.active_now
        release = self.env.timeout(relifetime - self.config.decision_ns)
        release.callbacks.append(partial(self._release_cb, new_lid))

    def _log(self, when: int, kind: int, key: int) -> None:
        self.log_times.append(int(when))
        self.log_kinds.append(kind)
        self.log_keys.append(int(key))

    # -- run -----------------------------------------------------------

    def run(self) -> ControlResult:
        env = self.env
        streams = self.streams
        env.schedule_batch(streams.times, self._arrival_cb)
        if len(streams.churn):
            env.schedule_batch(streams.churn.death_times_ns, self._death_cb)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        try:
            env.run(until=streams.horizon_ns)
        finally:
            if gc_was_enabled:
                gc.enable()
        wall_s = time.perf_counter() - started
        self.manager.kill()
        records = self.manager.executors.values()
        return _finish(
            self.config,
            "reference",
            self.counts,
            self.checksum,
            np.asarray(self.log_times, dtype=np.int64),
            np.asarray(self.log_kinds, dtype=np.int64),
            np.asarray(self.log_keys, dtype=np.int64),
            self.active_peak,
            sum(record.free_cores for record in records),
            sum(record.free_memory for record in records),
            env.events_processed,
            wall_s,
        )


# ---------------------------------------------------------------------------
# Vectorized kernel driver: struct-of-arrays manager state.
# ---------------------------------------------------------------------------


class _KernelDriver:
    """Struct-of-arrays replay: cohort admission, masked churn,
    closed-form renewals."""

    def __init__(self, config: ControlConfig, streams: ControlStreams) -> None:
        self.config = config
        self.streams = streams
        self.env = Environment()
        self.soa = SoACapacity.uniform(
            config.executors, config.cores_per_executor, config.memory_per_executor
        )
        # Scalar-access calendar copies for the per-grant loop.
        self.times = streams.times.tolist()
        self.cores = streams.cores.tolist()
        self.memory = streams.memory.tolist()
        self.abandon = streams.abandon.tolist()
        self.end_planned = streams.end_planned.tolist()
        # Lease table (struct of arrays), indexed by lease id.
        cap = 2 * config.requests + 2
        self.l_exec = np.zeros(cap, dtype=np.int64)
        self.l_end = np.zeros(cap, dtype=np.int64)
        self.l_cut = np.zeros(cap, dtype=np.int64)  # renewal cutoff
        self.l_cores = np.zeros(cap, dtype=np.int64)
        self.l_memory = np.zeros(cap, dtype=np.int64)
        self.l_active = np.zeros(cap, dtype=bool)
        self.l_retry = np.zeros(cap, dtype=bool)
        self.request_lease = [0] * config.requests  # request -> lease id (0 = denied)
        self.next_lid = 1
        self.counts = dict.fromkeys(_COUNT_KEYS, 0)
        self.checksum = 0
        self.active_now = 0
        self.active_peak = 0
        # Live log (grants/denies/releases/steal rows); renewals are
        # emitted vectorized after the run.
        log_cap = 4 * config.requests + 64
        self.log_times = np.zeros(log_cap, dtype=np.int64)
        self.log_kinds = np.zeros(log_cap, dtype=np.int64)
        self.log_keys = np.zeros(log_cap, dtype=np.int64)
        self.log_cursor = 0
        self._grant_index = 0
        self._end_index = 0
        self._death_index = 0
        self._end_order = np.argsort(streams.end_planned, kind="stable")
        self._end_order_list = self._end_order.tolist()
        self._pending_reacq: deque = deque()

    def _log(self, when: int, kind: int, key: int) -> None:
        cursor = self.log_cursor
        self.log_times[cursor] = when
        self.log_kinds[cursor] = kind
        self.log_keys[cursor] = key
        self.log_cursor = cursor + 1

    def _grant_cb(self, _event: Any) -> None:
        i = self._grant_index
        self._grant_index = i + 1
        cores = self.cores[i]
        memory = self.memory[i]
        index = self.soa.pick(cores, memory)
        t = self.times[i]
        if index < 0:
            self.counts["denials"] += 1
            self._log(t, KIND_DENY, i)
            return
        self.soa.grant(index, cores, memory)
        lid = self.next_lid
        self.next_lid = lid + 1
        self.request_lease[i] = lid
        end = self.end_planned[i]
        self.l_exec[lid] = index
        self.l_end[lid] = end
        self.l_cut[lid] = end
        self.l_cores[lid] = cores
        self.l_memory[lid] = memory
        self.l_active[lid] = True
        self.counts["grants"] += 1
        self.checksum += lid * (index + 1)
        self._log(t, KIND_GRANT, lid)
        self.active_now += 1
        if self.active_now > self.active_peak:
            self.active_peak = self.active_now

    def _end_cb(self, _event: Any) -> None:
        k = self._end_index
        self._end_index = k + 1
        i = self._end_order_list[k]
        lid = self.request_lease[i]
        if lid == 0 or not self.l_active[lid]:
            return
        self.l_active[lid] = False
        self.soa.reclaim(int(self.l_exec[lid]), self.cores[i], self.memory[i])
        self.active_now -= 1
        if self.abandon[i]:
            self.counts["expiries"] += 1
        else:
            self.counts["releases"] += 1
            self._log(self.end_planned[i], KIND_RELEASE, lid)

    def _death_cb(self, _event: Any) -> None:
        j = self._death_index
        self._death_index = j + 1
        victim = int(self.streams.churn.victims[j])
        soa = self.soa
        if not soa.alive[victim]:
            self.counts["churn_noops"] += 1
            return
        soa.kill(victim)
        self.counts["dead_nodes"] += 1
        death_ns = self.env.now
        high = self.next_lid
        # Mass reclamation as one vectorized mask over the lease table.
        stolen = np.flatnonzero(self.l_active[:high] & (self.l_exec[:high] == victim))
        if stolen.size:
            self.l_active[stolen] = False
            self.l_cut[stolen] = death_ns
            self.counts["steals"] += int(stolen.size)
            self.active_now -= int(stolen.size)
            reacquire_ns = death_ns + self.config.reacquire_delay_ns
            remaining = self.l_end[stolen] - reacquire_ns
            fresh = ~self.l_retry[stolen]
            retryable = fresh & (remaining >= self.config.min_relifetime_ns)
            self.counts["steal_skipped"] += int(np.count_nonzero(fresh & ~retryable))
            candidates = stolen[retryable]
            if candidates.size:
                for lid in candidates.tolist():
                    self._pending_reacq.append((lid, death_ns))
                self.env.schedule_batch(
                    np.full(
                        candidates.size,
                        reacquire_ns + self.config.decision_ns,
                        dtype=np.int64,
                    ),
                    self._reacq_cb,
                )
        revive = self.env.timeout(self.config.downtime_ns)
        revive.callbacks.append(partial(self._revive_cb, victim))

    def _revive_cb(self, victim: int, _event: Any) -> None:
        self.soa.revive(victim)
        self.counts["revives"] += 1

    def _reacq_cb(self, _event: Any) -> None:
        lid, death_ns = self._pending_reacq.popleft()
        reacquire_ns = death_ns + self.config.reacquire_delay_ns
        cores = int(self.l_cores[lid])
        memory = int(self.l_memory[lid])
        index = self.soa.pick(cores, memory)
        if index < 0:
            self.counts["steal_denials"] += 1
            self._log(reacquire_ns, KIND_STEAL_DENY, lid)
            return
        self.soa.grant(index, cores, memory)
        relifetime = ((int(self.l_end[lid]) - reacquire_ns) // QUANT) * QUANT + 1
        new_lid = self.next_lid
        self.next_lid = new_lid + 1
        end = reacquire_ns + relifetime
        self.l_exec[new_lid] = index
        self.l_end[new_lid] = end
        self.l_cut[new_lid] = end
        self.l_cores[new_lid] = cores
        self.l_memory[new_lid] = memory
        self.l_active[new_lid] = True
        self.l_retry[new_lid] = True
        self.counts["steal_grants"] += 1
        self.checksum += new_lid * (index + 1)
        self._log(reacquire_ns, KIND_STEAL_GRANT, lid)
        self.active_now += 1
        if self.active_now > self.active_peak:
            self.active_peak = self.active_now
        release = self.env.timeout(relifetime - self.config.decision_ns)
        release.callbacks.append(partial(self._reacq_end_cb, new_lid))

    def _reacq_end_cb(self, lid: int, _event: Any) -> None:
        if not self.l_active[lid]:
            return
        self.l_active[lid] = False
        self.soa.reclaim(int(self.l_exec[lid]), int(self.l_cores[lid]), int(self.l_memory[lid]))
        self.counts["releases"] += 1
        self.active_now -= 1
        self._log(int(self.l_end[lid]), KIND_RELEASE, lid)

    def _admit(self, times: np.ndarray, callback: Any) -> None:
        for start in range(0, times.size, _ADMIT_CHUNK):
            self.env.schedule_batch(times[start : start + _ADMIT_CHUNK], callback)

    def _emit_renewals(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form renewal log: per granted primary lease, the
        renewals sent strictly before its cutoff (natural end, or the
        node death that terminated it)."""
        streams = self.streams
        lease_ids = np.asarray(self.request_lease, dtype=np.int64)
        granted = lease_ids > 0
        lids = lease_ids[granted]
        starts = streams.times[granted]
        period = self.config.renew_period_ns
        planned = streams.planned_renewals[granted]
        cut = self.l_cut[lids]
        sent = np.minimum(planned, (cut - starts - 1) // period)
        sent = np.maximum(sent, 0)
        total = int(sent.sum())
        self.counts["renewals"] = total
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        offsets = np.repeat(np.cumsum(sent) - sent, sent)
        k = np.arange(total, dtype=np.int64) - offsets + 1
        renew_times = np.repeat(starts, sent) + k * period
        renew_keys = np.repeat(lids, sent)
        return renew_times, renew_keys

    def run(self) -> ControlResult:
        env = self.env
        streams = self.streams
        config = self.config
        # The whole static calendar goes in as sorted cohorts: grant
        # decisions at arrival + decision delay, lease ends in end
        # order, deaths in death order.
        self._admit(streams.times + config.decision_ns, self._grant_cb)
        self._admit(streams.end_planned[self._end_order], self._end_cb)
        if len(streams.churn):
            self._admit(streams.churn.death_times_ns, self._death_cb)
        gc_was_enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        try:
            env.run(until=streams.horizon_ns)
        finally:
            if gc_was_enabled:
                gc.enable()
        wall_s = time.perf_counter() - started
        renew_times, renew_keys = self._emit_renewals()
        cursor = self.log_cursor
        log_times = np.concatenate([self.log_times[:cursor], renew_times])
        log_kinds = np.concatenate(
            [self.log_kinds[:cursor], np.full(renew_times.size, KIND_RENEW, dtype=np.int64)]
        )
        log_keys = np.concatenate([self.log_keys[:cursor], renew_keys])
        return _finish(
            config,
            "kernel",
            self.counts,
            self.checksum,
            log_times,
            log_kinds,
            log_keys,
            self.active_peak,
            int(self.soa.free_cores.sum()),
            int(self.soa.free_memory.sum()),
            env.events_processed,
            wall_s,
        )


DRIVERS = ("kernel", "reference")

#: CI-sized scenario (registry --quick and the control-smoke job).
QUICK_KWARGS = {"executors": 256, "requests": 6_000, "deaths": 24, "verify": True}


def run_control(
    driver: str = "kernel",
    verify: bool = False,
    **overrides: Any,
) -> ControlResult:
    """Run the control-plane scenario with one driver.

    ``driver`` is ``"kernel"`` (struct-of-arrays fast path, default) or
    ``"reference"`` (per-event ResourceManager RPC replay); both run on
    the heap environment and produce identical simulated results.
    ``verify=True`` additionally runs the *other* driver and raises if
    the fingerprints differ.
    """
    if driver not in DRIVERS:
        raise ValueError(f"driver must be one of {DRIVERS}, got {driver!r}")
    config = ControlConfig(**overrides)
    streams = control_streams(config)
    result = _run_one(driver, config, streams)
    if verify:
        other = DRIVERS[1 - DRIVERS.index(driver)]
        referee = _run_one(other, config, streams)
        if referee.fingerprint() != result.fingerprint():
            raise AssertionError(
                f"control drivers diverged: {driver} vs {other}\n"
                f"{result.fingerprint()}\n{referee.fingerprint()}"
            )
    return result


def _run_one(driver: str, config: ControlConfig, streams: ControlStreams) -> ControlResult:
    if driver == "kernel":
        return _KernelDriver(config, streams).run()
    return _ReferenceDriver(config, streams).run()
