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

* ``reference`` (:func:`run_control_referee`) -- per-event on the heap
  :class:`~repro.sim.core.Environment`, through the real
  :class:`~repro.core.resource_manager.ResourceManager` RPC path: every
  request is an ``env.process`` yielding the manager's decision delay,
  every renewal a chained timeout feeding ``lease_renew``, every expiry
  the manager's own lease-expiry sleeper (``_LeaseExpiry``), churn a
  ``deregister_executor`` RPC whose termination announcements fan out
  to the clients.  This is the bit-identity referee.
* ``kernel`` (:func:`run_control`) -- no event queue: one loop over a
  merge of the calendar's three pre-sorted streams (grant decisions,
  planned lease ends, deaths), with what a death causes in one small
  heap, the lease table in plain lists and round-robin first-fit on
  one eligibility bitmask per request size
  (:class:`repro.core.placement.BitmaskFirstFit`).  Renewals never
  enter the replay at all -- their count and timestamps are
  closed-form per lease, emitted vectorized after the run.

Both produce identical fingerprints, including runs with churn enabled.

Determinism without tie-break coupling
--------------------------------------
The drivers process different events in different structures (the
kernel has no event ids at all), so equal-timestamp ordering must
never matter.  The calendar
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
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush, merge
from itertools import chain, count, repeat
from typing import Any, Iterator, Optional

import numpy as np

from repro import perf
from repro.analysis.latency import sojourn_by_kind
from repro.analysis.reporting import Table, format_bytes, format_ns
from repro.analysis.stats import SummaryStats
from repro.analysis.streams import StreamingSummary
from repro.cluster.churn import ChurnStream, churn_stream
from repro.cluster.node import NodeSpec
from repro.core.config import RFaaSConfig, RFaaSTimings
from repro.core.placement import BitmaskFirstFit
from repro.core.resource_manager import ResourceManager
from repro.rdma.fabric import Fabric
from repro.sim.clock import ms, us
from repro.sim.core import Environment
from repro.sim.events import BatchEvent

#: Residue grid modulus (see the module docstring).
QUANT = 16

#: Manager-event kinds, in FIFO tie-rank order.
KIND_GRANT, KIND_DENY, KIND_RENEW, KIND_RELEASE, KIND_STEAL_GRANT, KIND_STEAL_DENY = range(6)
KIND_COUNT = 6

#: Per-kind service cost of the FIFO manager model (ns): lease
#: decisions are the heavyweight step, renewals and releases are
#: lookups.
SERVICE_NS = np.array([2_000, 2_000, 300, 250, 2_000, 2_000], dtype=np.int64)

_SPEC = NodeSpec()


def _exec_name(index: int) -> str:
    # Zero-padded so sorted(name) order == numeric order == kernel index.
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

    def __post_init__(self) -> None:
        if self.executors < 1 or self.requests < 1:
            raise ValueError("executors and requests must be >= 1")
        for name in ("clients", "max_request_cores", "memory_per_core", "mean_arrival_gap_ns"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.max_abandon_renewals < 0:
            raise ValueError(
                f"max_abandon_renewals must be >= 0, got {self.max_abandon_renewals}"
            )
        grid = {
            "renew_period_ns": (self.renew_period_ns, 0),
            "lease_timeout_ns": (self.lease_timeout_ns, 2),
            "decision_ns": (self.decision_ns, 0),
            "reacquire_delay_ns": (self.reacquire_delay_ns, 1),
            "downtime_ns": (self.downtime_ns, 4),
        }
        for name, (value, residue) in grid.items():
            if value < 0 or value % QUANT != residue:
                raise ValueError(
                    f"{name}={value} must be >= 0 and == {residue} (mod {QUANT}); "
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
            f"{self.executors:,} executors",
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
        stream = StreamingSummary()
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
        self.deaths = streams.churn.death_times_ns.tolist()
        self.victims = streams.churn.victims.tolist()
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

    def _arrival_cb(self, event: Any) -> None:
        i = self._arrival_index
        self._arrival_index = i + 1
        if i + 1 < len(self.times):
            # One chained arrival event, as the scale referees chain theirs.
            self.env.schedule(event, self.times[i + 1] - self.times[i])
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

    def _death_cb(self, event: Any) -> None:
        j = self._death_index
        self._death_index = j + 1
        if j + 1 < len(self.deaths):
            self.env.schedule(event, self.deaths[j + 1] - self.deaths[j])
        name = _exec_name(self.victims[j])
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
        env.schedule(BatchEvent(env, (self._arrival_cb,)), self.times[0])
        if self.deaths:
            env.schedule(BatchEvent(env, (self._death_cb,)), self.deaths[0])
        gc_was_enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        try:
            env.run(until=self.streams.horizon_ns)
        finally:
            if gc_was_enabled:
                gc.enable()
        wall_s = time.perf_counter() - started
        self.manager.kill()
        records = self.manager.executors.values()
        return _finish(
            self.config,
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
# Kernel driver: the calendar as one merge of its sorted streams.
# ---------------------------------------------------------------------------

#: Kernel event classes, indexing ``_KernelDriver``'s handler tuple.
_GRANT, _END, _DEATH, _REVIVE, _REACQUIRE, _REACQUIRE_END = range(6)


class _KernelDriver:
    """Merged-stream replay (see the module docstring).  The residue
    grid keeps event classes apart in time, and within a class the
    index -- request, victim or lease id -- is the reference's order, so
    ``(time, class, index)`` order is the reference's wherever it
    matters."""

    def __init__(self, config: ControlConfig, streams: ControlStreams) -> None:
        self.config = config
        self.streams = streams
        self.capacity = BitmaskFirstFit(
            config.executors,
            config.cores_per_executor,
            config.memory_per_executor,
            config.memory_per_core,
            config.max_request_cores,
        )
        self.times = streams.times.tolist()
        self.cores = streams.cores.tolist()
        self.abandon = streams.abandon.tolist()
        self.end_planned = streams.end_planned.tolist()
        # Lease table, indexed by lease id; id 0 is "no lease".  A lease
        # that ended (or never was) has executor -1.
        self.lease_executor = [-1]
        self.lease_end = [0]
        self.lease_cut = [0]  # renewal cutoff: planned end, or the death
        self.lease_cores = [0]
        self.lease_retry = [False]
        # Per executor, the leases placed on it since its last death,
        # ended ones included: a death walks its victim's list.
        self.hosted: list[list[int]] = [[] for _ in range(config.executors)]
        self.request_lease = [0] * config.requests
        # What deaths cause, as a (time, class, index) heap.
        self.pending: list[tuple[int, int, int]] = []
        self.counts = dict.fromkeys(_COUNT_KEYS, 0)
        self.checksum = 0
        self.active_now = 0
        self.active_peak = 0
        # Grants/denies/releases/steal rows; renewals are emitted
        # vectorized after the run.
        self.log: list[tuple[int, int, int]] = []

    def _open_lease(self, executor: int, end: int, cores: int, retry: bool) -> int:
        lid = len(self.lease_executor)
        self.lease_executor.append(executor)
        self.lease_end.append(end)
        self.lease_cut.append(end)
        self.lease_cores.append(cores)
        self.lease_retry.append(retry)
        self.hosted[executor].append(lid)
        self.checksum += lid * (executor + 1)
        self.active_now += 1
        if self.active_now > self.active_peak:
            self.active_peak = self.active_now
        return lid

    def _close_lease(self, when: int, lid: int, expired: bool = False) -> None:
        executor = self.lease_executor[lid]
        if executor < 0:
            return
        self.lease_executor[lid] = -1
        self.capacity.reclaim(executor, self.lease_cores[lid])
        self.active_now -= 1
        if expired:
            self.counts["expiries"] += 1
        else:
            self.counts["releases"] += 1
            self.log.append((when, KIND_RELEASE, lid))

    def _grant(self, _when: int, i: int) -> None:
        cores = self.cores[i]
        index = self.capacity.place(cores)
        if index < 0:
            self.counts["denials"] += 1
            self.log.append((self.times[i], KIND_DENY, i))
            return
        lid = self._open_lease(index, self.end_planned[i], cores, False)
        self.request_lease[i] = lid
        self.counts["grants"] += 1
        self.log.append((self.times[i], KIND_GRANT, lid))

    def _end(self, when: int, i: int) -> None:
        self._close_lease(when, self.request_lease[i], self.abandon[i])

    def _death(self, when: int, victim: int) -> None:
        config = self.config
        counts = self.counts
        if not self.capacity.alive[victim]:
            counts["churn_noops"] += 1
            return
        self.capacity.kill(victim)
        counts["dead_nodes"] += 1
        reacquire_ns = when + config.reacquire_delay_ns
        hosted, self.hosted[victim] = self.hosted[victim], []
        for lid in hosted:
            if self.lease_executor[lid] < 0:
                continue
            self.lease_executor[lid] = -1
            self.lease_cut[lid] = when
            self.active_now -= 1
            counts["steals"] += 1
            if self.lease_retry[lid]:
                continue
            if self.lease_end[lid] - reacquire_ns >= config.min_relifetime_ns:
                heappush(self.pending, (reacquire_ns + config.decision_ns, _REACQUIRE, lid))
            else:
                counts["steal_skipped"] += 1
        heappush(self.pending, (when + config.downtime_ns, _REVIVE, victim))

    def _revive(self, _when: int, victim: int) -> None:
        self.capacity.revive(victim)
        self.counts["revives"] += 1

    def _reacquire(self, when: int, lid: int) -> None:
        reacquire_ns = when - self.config.decision_ns
        cores = self.lease_cores[lid]
        index = self.capacity.place(cores)
        if index < 0:
            self.counts["steal_denials"] += 1
            self.log.append((reacquire_ns, KIND_STEAL_DENY, lid))
            return
        relifetime = ((self.lease_end[lid] - reacquire_ns) // QUANT) * QUANT + 1
        new_lid = self._open_lease(index, reacquire_ns + relifetime, cores, True)
        self.counts["steal_grants"] += 1
        self.log.append((reacquire_ns, KIND_STEAL_GRANT, lid))
        heappush(self.pending, (reacquire_ns + relifetime, _REACQUIRE_END, new_lid))

    def _timeline(self) -> Iterator[tuple[int, int, int]]:
        """Every event in time order: the merged calendar, with each
        pending entry slotted in before the first later calendar event."""
        streams = self.streams
        churn = streams.churn
        end_order = np.argsort(streams.end_planned, kind="stable")
        calendar = merge(
            zip((streams.times + self.config.decision_ns).tolist(), repeat(_GRANT), count()),
            zip(streams.end_planned[end_order].tolist(), repeat(_END), end_order.tolist()),
            zip(churn.death_times_ns.tolist(), repeat(_DEATH), churn.victims.tolist()),
        )
        pending = self.pending
        for event in calendar:
            while pending and pending[0] < event:
                yield heappop(pending)
            yield event
        while pending:
            yield heappop(pending)

    def _replay(self) -> int:
        """Run the calendar to its end; returns the events replayed."""
        # A re-acquired lease is never renewed or abandoned: its end is a
        # plain release.
        handlers = (self._grant, self._end, self._death, self._revive, self._reacquire,
                    self._close_lease)
        replayed = 0
        for when, kind, index in self._timeline():
            handlers[kind](when, index)
            replayed += 1
        return replayed

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
        cut = np.asarray(self.lease_cut, dtype=np.int64)[lids]
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
        gc_was_enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        try:
            replayed = self._replay()
        finally:
            if gc_was_enabled:
                gc.enable()
        wall_s = time.perf_counter() - started
        renew_times, renew_keys = self._emit_renewals()
        # fromiter on the flattened rows: ~2x faster than asarray on tuples.
        log = np.fromiter(chain.from_iterable(self.log), dtype=np.int64).reshape(-1, 3)
        return _finish(
            self.config,
            self.counts,
            self.checksum,
            np.concatenate([log[:, 0], renew_times]),
            np.concatenate([log[:, 1], np.full(renew_times.size, KIND_RENEW, dtype=np.int64)]),
            np.concatenate([log[:, 2], renew_keys]),
            self.active_peak,
            sum(self.capacity.free_cores),
            sum(self.capacity.free_memory),
            replayed,
            wall_s,
        )


#: CI-sized scenario (registry --quick and CI's engine-smoke job).
QUICK_KWARGS = {"executors": 256, "requests": 6_000, "deaths": 24, "verify": True}


def run_control(verify: bool = False, **overrides: Any) -> ControlResult:
    """Run the control-plane scenario on the kernel (merged-stream replay).

    *overrides* are :class:`ControlConfig` fields.  ``verify=True``
    also replays the same calendar on the per-event reference (see
    :func:`run_control_referee`) and raises if the fingerprints differ.
    """
    config = ControlConfig(**overrides)
    streams = control_streams(config)
    result = _KernelDriver(config, streams).run()
    if verify:
        referee = _ReferenceDriver(config, streams).run()
        if referee.fingerprint() != result.fingerprint():
            raise AssertionError(
                "control drivers diverged: kernel vs reference\n"
                f"{result.fingerprint()}\n{referee.fingerprint()}"
            )
    return result


def run_control_referee(**overrides: Any) -> ControlResult:
    """:func:`run_control` on the per-event reference: the same
    *overrides* build the same config and calendar, replayed through
    the real ResourceManager RPC path on the heap environment."""
    config = ControlConfig(**overrides)
    return _ReferenceDriver(config, control_streams(config)).run()
