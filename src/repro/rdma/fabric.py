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
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.rdma.latency import LatencyModel

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
        """Like :meth:`transfer` but over a pre-resolved :class:`_Path`.

        The queue pairs' callback data path runs the same steps --
        :meth:`penalty_ns`, then :meth:`loopback_ns` or
        :meth:`head_arrival` and the ingress reservation -- without a
        generator; both share these helpers, so the fault draws and the
        link arithmetic exist once.
        """
        env = self.env
        penalty = self.penalty_ns()
        if penalty:
            # The requester sits out the retransmission timeout.
            yield env.timeout(penalty)
        if path.loopback:
            yield env.timeout(self.loopback_ns(size))
            return
        head = self.head_arrival(path, size)
        if head > env.now:
            yield env.timeout(head - env.now)
        _, tail = path.ingress.reserve(size)
        if tail > env.now:
            yield env.timeout(tail - env.now)

    def penalty_ns(self) -> int:
        """Retransmission delay of one transfer (0 without faults).

        Drawn first thing in every transfer, so fault-RNG consumption
        follows transfer-start order.
        """
        faults = self.faults
        return 0 if faults is None else faults.penalty_ns()

    def loopback_ns(self, size: int) -> int:
        """NIC-internal loopback: serialization only, no propagation."""
        return self.model.serialization_ns(size) // 2

    def head_arrival(self, path: _Path, size: int) -> int:
        """Book *size* bytes on the source link; when the head lands.

        Cut-through: the head of the message reaches the destination
        after propagation; the tail arrives when the slower of the two
        links has clocked all bytes through, which the caller books on
        ``path.ingress`` once the head is there.
        """
        egress_start, _ = path.egress.reserve(size)
        return egress_start + path.propagation_ns
