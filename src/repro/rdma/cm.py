"""Connection management: the rdma_cm-style out-of-band handshake.

Establishing a reliable connection costs three control-message exchanges
(request, reply, ready-to-use) plus kernel/daemon processing on both
ends; with the defaults that is ~1 ms per connection, matching the
single-digit-millisecond connection steps in the paper's Fig. 9.  Once
established, data flows over the QPs with no CM involvement -- rFaaS
clients *cache* these connections across invocations, which is exactly
why leases beat per-invocation central scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, Optional

from repro.rdma.device import NIC
from repro.rdma.errors import ConnectionRefused
from repro.rdma.queue_pair import QueuePair
from repro.sim.clock import us
from repro.sim.events import Event, Step
from repro.sim.resources import Store

#: Per-hop CM processing (kernel cm daemon, event channel wakeups).
CM_PROCESSING_NS = us(150)
#: CM control messages ride a small-message datagram path.
CM_MESSAGE_BYTES = 256

_request_ids = count(1)


@dataclass
class ConnectionRequest:
    """An incoming connection visible to a listener."""

    src_nic: NIC
    src_qp: QueuePair
    private_data: Any
    request_id: int = field(default_factory=lambda: next(_request_ids))
    _response: Optional[Any] = None
    _decided: Any = None  # Event set by accept/reject


@dataclass
class ConnectionResult:
    """What the active side gets back from ``connect``."""

    qp: QueuePair
    private_data: Any


class ConnectionListener:
    """A passive endpoint accepting connections on (host, port)."""

    def __init__(self, manager: "ConnectionManager", port: int) -> None:
        self.manager = manager
        self.port = port
        self.incoming: Store = Store(manager.nic.env)
        self.closed = False

    def get_request(self):
        """Event yielding the next :class:`ConnectionRequest`."""
        return self.incoming.get()

    def accept(self, request: ConnectionRequest, qp: QueuePair, private_data: Any = None) -> None:
        """Accept with a local QP; completes the requester's connect."""
        QueuePair.connect_pair(request.src_qp, qp)
        request._response = ConnectionResult(qp=qp, private_data=private_data)
        request._decided.succeed(True)

    def reject(self, request: ConnectionRequest, reason: str = "rejected") -> None:
        request._response = reason
        request._decided.succeed(False)

    def close(self) -> None:
        self.closed = True
        self.manager._listeners.pop(self.port, None)


class ConnectionManager:
    """Per-NIC CM endpoint (attach with :func:`install_cm`)."""

    def __init__(self, nic: NIC) -> None:
        self.nic = nic
        self.env = nic.env
        self._listeners: dict[int, ConnectionListener] = {}
        nic.cm = self

    def listen(self, port: int) -> ConnectionListener:
        if port in self._listeners:
            raise ConnectionRefused(f"port {port} already in use on {self.nic.name}")
        listener = ConnectionListener(self, port)
        self._listeners[port] = listener
        return listener

    def connect(self, dst_host: str, port: int, qp: QueuePair, private_data: Any = None):
        """Process generator: three-way handshake, returns ConnectionResult.

        Usage: ``result = yield from cm.connect("server", 9000, qp)``.
        Raises :class:`ConnectionRefused` if nobody listens or the
        listener rejects.  A thin wrapper over :class:`_Handshake`: the
        caller resumes once, inside the handshake's last transfer.
        """
        handshake = _Handshake(self, dst_host, port, qp, private_data)
        try:
            return (yield handshake.done)
        except BaseException:  # refused, interrupted or closed
            handshake.abandon()
            raise


class _Handshake(Step):
    """The active side of one CM handshake, as a callback state machine.

    Each method is one step; a wait points ``step`` at the next one and
    re-schedules this event (a transfer is ``Fabric.transfer_path``'s
    steps: fault penalty, head arrival, ingress tail).  It schedules
    the events the generator handshake did, at the same instants, and
    resolves :attr:`done` with :meth:`Event.fire` inside the last one.
    """

    __slots__ = (
        "cm", "dst_host", "port", "qp", "private_data", "done",
        "listener", "request", "path", "landed",
    )

    def __init__(
        self, cm: ConnectionManager, dst_host: str, port: int, qp: QueuePair, private_data: Any
    ) -> None:
        super().__init__(cm.env, self._send_req)
        self.cm = cm
        self.dst_host = dst_host
        self.port = port
        self.qp = qp
        self.private_data = private_data
        #: What ``connect``'s caller waits on.
        self.done = Event(cm.env)
        self.listener: Optional[ConnectionListener] = None
        self.request: Optional[ConnectionRequest] = None
        #: The transfer in progress and the step to run once it landed.
        self.path: Any = None
        self.landed: Any = None
        cm.env.schedule_timeout(self, CM_PROCESSING_NS)

    # -- one fabric transfer --------------------------------------------------

    def _transfer(self, src: str, dst: str, landed: Any) -> None:
        """One CM message from *src* to *dst*, then *landed*."""
        fabric = self.cm.nic.fabric
        self.path = fabric.path(src, dst)
        self.landed = landed
        penalty = fabric.penalty_ns()
        if penalty:
            # The requester sits out the retransmission timeout.
            self.step = self._wire
            self.env.schedule(self, penalty)
            return
        self._wire()

    def _wire(self) -> None:
        path = self.path
        env = self.env
        fabric = self.cm.nic.fabric
        if path.loopback:
            self.step = self.landed
            env.schedule_timeout(self, fabric.loopback_ns(CM_MESSAGE_BYTES))
            return
        head = fabric.head_arrival(path, CM_MESSAGE_BYTES)
        if head > env._now:
            self.step = self._tail
            env.schedule_timeout(self, head - env._now)
            return
        self._tail()

    def _tail(self) -> None:
        _, tail = self.path.ingress.reserve(CM_MESSAGE_BYTES)
        env = self.env
        if tail > env._now:
            self.step = self.landed
            env.schedule_timeout(self, tail - env._now)
            return
        self.landed()

    # -- the handshake ------------------------------------------------------------

    def _send_req(self) -> None:
        """REQ: route the request to the destination CM."""
        try:
            self._transfer(self.cm.nic.name, self.dst_host, self._req_arrived)
        except KeyError as error:  # no such host: the caller sees it here
            self._finish(error, False)

    def _req_arrived(self) -> None:
        dst_cm: Optional[ConnectionManager] = self.cm.nic.fabric.nic(self.dst_host).cm
        listener = dst_cm._listeners.get(self.port) if dst_cm is not None else None
        if listener is None or listener.closed:
            # REJ travels back before the caller sees the refusal.
            self._transfer(self.dst_host, self.cm.nic.name, self._refused)
            return
        request = ConnectionRequest(
            src_nic=self.cm.nic, src_qp=self.qp, private_data=self.private_data
        )
        request._decided = Event(self.env)
        self.listener = listener
        self.request = request
        self.step = self._queue_request
        self.env.schedule_timeout(self, CM_PROCESSING_NS)

    def _refused(self) -> None:
        self._finish(ConnectionRefused(f"{self.dst_host}:{self.port} is not listening"), False)

    def _queue_request(self) -> None:
        self.step = self._queued
        self.listener.incoming.put(self.request).callbacks.append(self._resume)

    def _resume(self, _event: Event) -> None:
        """Callback for an event waited on directly (not re-scheduled)."""
        self.step()

    def _queued(self) -> None:
        """REP: wait for the passive side to accept or reject."""
        decided = self.request._decided
        self.step = self._decided
        if decided.callbacks is None:  # accepted before the put was processed
            self._decided()
        else:
            decided.callbacks.append(self._resume)

    def _decided(self) -> None:
        self.step = self._send_rep
        self.env.schedule_timeout(self, CM_PROCESSING_NS)

    def _send_rep(self) -> None:
        self._transfer(self.dst_host, self.cm.nic.name, self._rep_arrived)

    def _rep_arrived(self) -> None:
        request = self.request
        if not request._decided._value:
            self._finish(
                ConnectionRefused(f"{self.dst_host}:{self.port} rejected: {request._response}"),
                False,
            )
            return
        # RTU: ready-to-use back to the passive side (not awaited there).
        self._transfer(self.cm.nic.name, self.dst_host, self._rtu_arrived)

    def _rtu_arrived(self) -> None:
        self._finish(self.request._response, True)

    def _finish(self, value: Any, ok: bool) -> None:
        # Drop the bound-method self-references before the caller
        # resumes, so refcounting frees the finished handshake.
        self.step = self.landed = None
        self.done.fire(value, ok)


def install_cm(nic: NIC) -> ConnectionManager:
    """Attach a connection manager to *nic* (idempotent)."""
    return nic.cm if nic.cm is not None else ConnectionManager(nic)
