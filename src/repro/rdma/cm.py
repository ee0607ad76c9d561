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

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.rdma.device import NIC
from repro.rdma.errors import ConnectionRefused
from repro.rdma.fabric import Transfer
from repro.rdma.queue_pair import QueuePair
from repro.sim.clock import us
from repro.sim.events import Event, Step
from repro.sim.resources import Store

#: Per-hop CM processing (kernel cm daemon, event channel wakeups).
CM_PROCESSING_NS = us(150)
#: CM control messages ride a small-message datagram path.
CM_MESSAGE_BYTES = 256


@dataclass
class ConnectionRequest:
    """An incoming connection visible to a listener."""

    src_nic: NIC
    src_qp: QueuePair
    private_data: Any
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

    def serve(self, on_request: Callable[[ConnectionRequest], None]) -> None:
        """Hand every incoming request to *on_request* until the
        listener closes (*on_request* may close it: a one-shot port).

        A callback loop scheduling an acceptor process's events: its
        start, one :meth:`get_request` per request, and its end once it
        finds the listener closed.
        """
        self._on_request = on_request
        self._acceptor = Step(self.manager.env, self._next_request)
        self._acceptor.start()

    def _next_request(self) -> None:
        self._acceptor.step = None  # scheduled once, as the loop's start
        if self.closed:
            self._acceptor.end()
            return
        self.get_request().callbacks.append(self._accepted)

    def _accepted(self, event: Event) -> None:
        self._on_request(event._value)
        self._next_request()

    def close(self) -> None:
        """Stop listening and reject every request still queued: each
        waiting ``connect`` is refused once its REJ arrives."""
        self.closed = True
        self.manager._listeners.pop(self.port, None)
        queued, self.incoming.items = self.incoming.items, []
        for request in queued:
            self.reject(request, "listener closed")


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
        return (yield from handshake.join(handshake.done))


class _Handshake(Transfer):
    """The active side of one CM handshake, as a callback state machine.

    Each method is one step; a wait points ``step`` at the next one and
    re-schedules this event, and each CM message is a :class:`Transfer`
    of this same event.  It schedules the events the generator
    handshake did, at the same instants, and resolves :attr:`done`
    with :meth:`Event.fire` inside the last one.
    """

    __slots__ = ("cm", "dst_host", "port", "qp", "private_data", "done", "listener", "request")

    def __init__(
        self, cm: ConnectionManager, dst_host: str, port: int, qp: QueuePair, private_data: Any
    ) -> None:
        super().__init__(cm.nic.fabric, self._send_req)
        self.cm = cm
        self.dst_host = dst_host
        self.port = port
        self.qp = qp
        self.private_data = private_data
        #: What ``connect``'s caller waits on.
        self.done = Event(cm.env)
        self.listener: Optional[ConnectionListener] = None
        self.request: Optional[ConnectionRequest] = None
        cm.env.schedule_timeout(self, CM_PROCESSING_NS)

    def _message(self, src: str, dst: str, arrived: Callable[[], None]) -> None:
        """One CM message from *src* to *dst*, then *arrived*."""
        self.send(self.fabric.path(src, dst), CM_MESSAGE_BYTES, arrived)

    # -- the handshake ------------------------------------------------------------

    def _send_req(self) -> None:
        """REQ: route the request to the destination CM."""
        try:
            self._message(self.cm.nic.name, self.dst_host, self._req_arrived)
        except KeyError as error:  # no such host: the caller sees it here
            self._finish(error, False)

    def _req_arrived(self) -> None:
        dst_cm: Optional[ConnectionManager] = self.fabric.nic(self.dst_host).cm
        listener = dst_cm._listeners.get(self.port) if dst_cm is not None else None
        if listener is None or listener.closed:
            # REJ travels back before the caller sees the refusal.
            self._message(self.dst_host, self.cm.nic.name, self._refused)
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
        listener = self.listener
        if listener.closed:  # closed while the REQ was being processed
            listener.reject(self.request, "listener closed")
            self._queued()
            return
        listener.incoming.put(self.request).callbacks.append(self._resume)

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
        self._message(self.dst_host, self.cm.nic.name, self._rep_arrived)

    def _rep_arrived(self) -> None:
        request = self.request
        if not request._decided._value:
            self._finish(
                ConnectionRefused(f"{self.dst_host}:{self.port} rejected: {request._response}"),
                False,
            )
            return
        # RTU: ready-to-use back to the passive side (not awaited there).
        self._message(self.cm.nic.name, self.dst_host, self._rtu_arrived)

    def _rtu_arrived(self) -> None:
        self._finish(self.request._response, True)

    def _finish(self, value: Any, ok: bool) -> None:
        # Drop the bound-method self-references before the caller
        # resumes, so refcounting frees the finished handshake.
        self.step = self.arrived = None
        self.done.fire(value, ok)


def install_cm(nic: NIC) -> ConnectionManager:
    """Attach a connection manager to *nic* (idempotent)."""
    return nic.cm if nic.cm is not None else ConnectionManager(nic)
