"""The switched fabric: attachment points and link contention.

Links are modelled as FCFS serialization queues with *cut-through*
semantics: a message occupies its source's egress link and its
destination's ingress link for ``serialization(size)`` each, but the two
occupancies overlap in time, so the uncontended one-way latency charges
serialization only once.  Contention (many workers hammering one client,
one client fanning out to many workers) emerges naturally from the queue
reservations -- this is what bounds Fig. 10's 1 MB scaling at the link
bandwidth, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.rdma.latency import LatencyModel
from repro.sim.events import Event, Step

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment
    from repro.rdma.device import NIC


@dataclass
class FaultModel:
    """Seeded transient-fault injection for the fabric.

    RC transport hides packet loss behind retransmission: a lost packet
    costs the requester a retransmission timeout, not data corruption.
    With probability ``probability`` a transfer eats one such timeout
    (occasionally two).  Deterministic per seed.
    """

    probability: float = 0.0
    #: RC retransmission timeout (RoCE default territory).
    retransmit_delay_ns: int = 500_000
    seed: int = 77

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability < 1.0:
            raise ValueError(f"probability must be in [0, 1), got {self.probability}")
        self._rng = np.random.default_rng(self.seed)
        self.faults_injected = 0

    def penalty_ns(self) -> int:
        """Extra delay for one transfer (0 almost always)."""
        if self.probability <= 0.0:
            return 0
        if self._rng.random() >= self.probability:
            return 0
        self.faults_injected += 1
        # A second consecutive loss is possible but rare.
        retries = 2 if self._rng.random() < self.probability else 1
        return retries * self.retransmit_delay_ns


#: Distinct message sizes a :class:`LinkQueue` keeps serialization
#: times for; a hot invocation loop sends a handful.
SERIALIZATION_MEMO_SIZES = 64


class LinkQueue:
    """One direction of one host link: an analytic FCFS queue.

    ``reserve(size)`` books the next available serialization slot and
    returns (start, finish) in virtual time.  Because the simulation is
    single-threaded and reservations happen in event order, this models
    a work-conserving FIFO link without per-packet events.

    The queue keeps three running counters -- when the link frees,
    bytes carried and cumulative busy time -- and no per-reservation
    history.  A link carries few distinct message sizes, so it
    memoizes each one's serialization time, in a table of at most
    :data:`SERIALIZATION_MEMO_SIZES` sizes that starts over once full:
    its memory does not grow with traffic either.
    """

    def __init__(self, env: "Environment", model: LatencyModel, name: str) -> None:
        self.env = env
        self.model = model
        self.name = name
        self._busy_until = 0
        self.bytes_carried = 0
        self.busy_time = 0
        #: size -> ``model.serialization_ns(size)``.
        self._serialization: dict[int, int] = {}

    def reserve(self, size: int) -> tuple[int, int]:
        """Book *size* bytes of serialization starting no earlier than now."""
        memo = self._serialization
        duration = memo.get(size)
        if duration is None:
            if len(memo) >= SERIALIZATION_MEMO_SIZES:
                memo.clear()
            duration = memo[size] = self.model.serialization_ns(size)
        now = self.env._now
        start = self._busy_until
        if start < now:
            start = now
        finish = start + duration
        self._busy_until = finish
        self.bytes_carried += size
        self.busy_time += duration
        return start, finish

    @property
    def busy_until(self) -> int:
        return self._busy_until

    def __repr__(self) -> str:
        return f"<LinkQueue {self.name} busy_until={self._busy_until}>"


class Attachment:
    """A host's port on the fabric: egress + ingress link queues."""

    def __init__(self, env: "Environment", model: LatencyModel, name: str) -> None:
        self.name = name
        self.egress = LinkQueue(env, model, f"{name}.egress")
        self.ingress = LinkQueue(env, model, f"{name}.ingress")


class _Path:
    """Resolved (src, dst) route: bound link queues + fixed delays.

    Caching these per direction saves two dict lookups and a
    propagation computation per message on the data path.
    """

    __slots__ = ("loopback", "egress", "ingress", "propagation_ns")

    def __init__(
        self,
        loopback: bool,
        egress: Optional[LinkQueue],
        ingress: Optional[LinkQueue],
        propagation_ns: int,
    ) -> None:
        self.loopback = loopback
        self.egress = egress
        self.ingress = ingress
        self.propagation_ns = propagation_ns


class Fabric:
    """A single-switch RDMA network connecting named hosts."""

    def __init__(
        self,
        env: "Environment",
        model: Optional[LatencyModel] = None,
        faults: Optional[FaultModel] = None,
    ) -> None:
        self.env = env
        self.model = model or LatencyModel()
        self.faults = faults
        self._attachments: dict[str, Attachment] = {}
        self._nics: dict[str, "NIC"] = {}
        self._paths: dict[tuple[str, str], _Path] = {}

    def attach(self, name: str) -> "NIC":
        """Create and attach a NIC named *name* (names are unique)."""
        from repro.rdma.device import NIC  # local import breaks the cycle

        if name in self._attachments:
            raise ValueError(f"host {name!r} already attached")
        attachment = Attachment(self.env, self.model, name)
        self._attachments[name] = attachment
        nic = NIC(self, name, attachment)
        self._nics[name] = nic
        return nic

    def nic(self, name: str) -> "NIC":
        return self._nics[name]

    def names(self) -> list[str]:
        return sorted(self._nics)

    def path(self, src: str, dst: str) -> _Path:
        """The cached route from *src* to *dst* (resolved once per pair)."""
        key = (src, dst)
        path = self._paths.get(key)
        if path is None:
            if src == dst:
                self._attachments[src]  # raise KeyError for unknown hosts
                path = _Path(True, None, None, 0)
            else:
                path = _Path(
                    False,
                    self._attachments[src].egress,
                    self._attachments[dst].ingress,
                    self.model.propagation_ns(),
                )
            self._paths[key] = path
        return path

    def transfer(self, src: str, dst: str, size: int):
        """Process generator: move *size* bytes from *src* to *dst*.

        Yields until the last byte has landed at the destination NIC.
        The caller layers NIC processing (tx/rx, DMA fetch) on top --
        including inline-send treatment, which changes NIC-side DMA
        cost (see :meth:`LatencyModel.one_way_ns`), never the wire.
        Loopback (src == dst) skips the wire entirely.
        """
        return self.transfer_path(self.path(src, dst), size)

    def transfer_path(self, path: _Path, size: int):
        """Like :meth:`transfer` but over a pre-resolved :class:`_Path`:
        a :class:`Transfer` the caller waits on."""
        done = Event(self.env)
        transfer = Transfer(self)
        transfer.send(path, size, done.fire)
        return (yield from transfer.join(done))


class Transfer(Step):
    """One message across the fabric, as a callback state machine.

    :meth:`send` draws the fault penalty, during which the requester
    sits out a retransmission timeout, then waits for the NIC-internal
    loopback, or for the head to land and the tail to clock through the
    destination's ingress link, and calls ``arrived()`` inside the last
    wait's event (at once if nothing waits).  Each wait re-schedules
    this same Step.  The queue pairs' deliveries and the CM handshake
    are Transfers; :meth:`Fabric.transfer` runs one for its caller.
    """

    __slots__ = ("fabric", "path", "size", "arrived")

    def __init__(self, fabric: Fabric, step: Optional[Callable[[], None]] = None) -> None:
        super().__init__(fabric.env, step)
        self.fabric = fabric
        self.path: Optional[_Path] = None
        self.size = 0
        #: The continuation; ``step`` points at it once the message is in.
        self.arrived: Optional[Callable[[], None]] = None

    def send(self, path: _Path, size: int, arrived: Callable[[], None]) -> None:
        """Move *size* bytes along *path*, then run *arrived*."""
        self.path = path
        self.size = size
        self.arrived = arrived
        faults = self.fabric.faults
        if faults is not None:
            # Drawn first thing, so fault-RNG consumption follows
            # transfer-start order.
            penalty = faults.penalty_ns()
            if penalty:
                self.step = self._wire
                self.env.schedule(self, penalty)
                return
        self._wire()

    def _wire(self) -> None:
        path = self.path
        env = self.env
        if path.loopback:
            # NIC-internal loopback: serialization only, no propagation.
            self.step = self.arrived
            env.schedule_timeout(self, self.fabric.model.serialization_ns(self.size) // 2)
            return
        # Cut-through: the head lands after propagation; the tail when
        # the slower of the two links has clocked all bytes through.
        egress_start, _ = path.egress.reserve(self.size)
        head = egress_start + path.propagation_ns
        now = env._now
        if head > now:
            self.step = self._tail
            env.schedule_timeout(self, head - now)
            return
        self._tail()

    def _tail(self) -> None:
        _, tail = self.path.ingress.reserve(self.size)
        env = self.env
        now = env._now
        self.step = self.arrived
        if tail > now:
            env.schedule_timeout(self, tail - now)
        else:
            self.arrived()
