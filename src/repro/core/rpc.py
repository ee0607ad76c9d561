"""A small request/response layer over RDMA SEND/RECV.

The rFaaS *control plane* (lease requests, allocation + code
submission, heartbeats, lease-termination notices) is not latency
critical -- the whole point of the design is that it runs only at cold
start.  It still travels over the simulated fabric as real SEND/RECV
traffic so its costs show up in Fig. 9's cold-start breakdown.

One RPC connection = one QP pair + a ring of pre-posted receive
buffers on each side.  Requests and responses are pickled control
objects; sends are unsignaled (errors surface as QP state changes).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.core.protocol import decode_control, encode_control
from repro.rdma.cm import install_cm
from repro.rdma.completion import CQWait
from repro.rdma.constants import Access, Opcode, WCStatus
from repro.rdma.device import NIC
from repro.rdma.errors import RdmaError
from repro.rdma.verbs import RecvWR, SendWR, sge
from repro.sim.events import Event, Step

RPC_BUFFER_BYTES = 64 * 1024
#: Messages a connection keeps in flight: the NIC reads a send slot
#: only at delivery, so a 9th message posted in one burst waits until
#: the 1st one's SEND completes (docs/protocol.md).
RPC_RING_DEPTH = 8


class RpcConnection:
    """One side of an established RPC connection.

    Both rings share one block of ``2 * ring_depth`` page-aligned
    64 KiB slots, send ring first, and each ring is one MR over its
    half: slot *i* of a ring sits at offset ``i * RPC_BUFFER_BYTES``
    of its MR.  The receive ring's work requests are built once and
    re-posted in ring order as each message is consumed.

    Sends stay unsignaled: a SEND's completion hook (no CQE) gives its
    slot back, and a message posted while every slot is in flight is
    held until one returns.

    Receiving is a :class:`~repro.rdma.completion.CQWait` per receive:
    :meth:`receive` hands the next message to a callback, and the
    generator :meth:`_receive` (behind :meth:`call`) is a thin wrapper
    over it.  Concurrent receives on one connection each wait and poll
    on their own, as concurrent generator receives did.
    """

    def __init__(self, nic: NIC, qp, *, ring_depth: int = RPC_RING_DEPTH) -> None:
        self.nic = nic
        self.env = nic.env
        self.qp = qp
        pd = qp.pd
        ring_bytes = RPC_BUFFER_BYTES * ring_depth
        block = nic.alloc(2 * ring_bytes)
        # A ring of send buffers: the NIC DMA-reads the payload only
        # after its processing delay, so reusing one buffer for two
        # back-to-back messages would corrupt the first (classic verbs
        # bug -- the buffer must stay stable until send completion).
        self._send_mr = pd.register(block, Access.LOCAL_WRITE, addr=block.base, length=ring_bytes)
        #: Offsets of the send slots no SEND is reading, in ring order.
        self._free_slots = deque(range(0, ring_bytes, RPC_BUFFER_BYTES))
        #: Encoded messages waiting for a free send slot.
        self._held: deque[bytes] = deque()
        self._recv_mr = recv_mr = pd.register(
            block, Access.LOCAL_WRITE, addr=block.base + ring_bytes, length=ring_bytes
        )
        #: The ring's receives, posted in slot order: the QP consumes
        #: them in that order, and each is re-posted once read, so the
        #: next message always lands in slot ``_recv_next``.
        self._recv_ring = [
            RecvWR(sge(recv_mr, offset, RPC_BUFFER_BYTES))
            for offset in range(0, ring_bytes, RPC_BUFFER_BYTES)
        ]
        self._recv_next = 0
        qp.post_recvs(self._recv_ring)
        model = nic.model
        self._poll_ns = model.poll_detect_ns
        self._notify_ns = model.blocking_notify_ns

    @property
    def alive(self) -> bool:
        return self.qp.connected

    def _post_message(self, message: Any) -> None:
        data = encode_control(message)
        if len(data) > RPC_BUFFER_BYTES:
            raise RdmaError(f"control message of {len(data)} B exceeds RPC buffer")
        if self._free_slots:
            self._send(data)
        else:
            self._held.append(data)

    def _send(self, data: bytes) -> None:
        offset = self._free_slots.popleft()
        self._send_mr.write(offset, data)
        self.qp.post_send(
            SendWR(
                Opcode.SEND,
                sge(self._send_mr, offset, len(data)),
                signaled=False,
                on_complete=self._sent,
            )
        )

    def _sent(self, wr: SendWR, status: WCStatus) -> None:
        """A SEND completed: its slot is free for the next held message.
        Once a SEND fails the connection is dead, and what it held is
        dropped, as the QP would have flushed it."""
        wr.on_complete = None  # drop the WR's reference to this connection
        self._free_slots.append(wr.local.offset)
        if not self._held:
            return
        if status is not WCStatus.SUCCESS or not self.qp.connected:
            self._held.clear()
            return
        self._send(self._held.popleft())

    def receive(self, deliver: Callable[[Any], None], blocking: bool = True) -> CQWait:
        """Callback form of :meth:`_receive`: ``deliver(message)`` runs
        inside the detect timeout (blocking notify or busy poll) that
        would resume a :meth:`_receive` caller; None on flush/teardown.
        Returns the wait, which the caller may abandon."""
        wait = CQWait(
            self.qp.recv_cq,
            lambda wcs: deliver(self._message(wcs[0])),
            self._notify_ns if blocking else self._poll_ns,
            1,
        )
        wait.wait()
        return wait

    def _message(self, wc) -> Any:
        """Decode the message *wc* completed and re-post its ring slot."""
        if not wc.ok:
            return None
        ring = self._recv_ring
        wr = ring[self._recv_next]
        self._recv_next = (self._recv_next + 1) % len(ring)
        message = decode_control(self._recv_mr.read(wr.local.offset, wc.byte_len))
        self.qp.post_recv(wr)
        return message

    def _receive(self, blocking: bool = True):
        """Generator: next decoded message (None on flush/teardown)."""
        done = Event(self.env)
        return (yield from self.receive(done.fire, blocking).join(done))

    def call(self, request: Any, blocking: bool = True):
        """Generator: send *request*, return the peer's response."""
        self._post_message(request)
        return (yield from self._receive(blocking=blocking))

    def notify(self, message: Any) -> None:
        """One-way message, no response expected."""
        self._post_message(message)

    def serve(self, handler: "RpcHandler") -> None:
        """Run *handler* on every message this side receives until the
        connection fails, sending back each non-None result
        (:class:`_Server`)."""
        _Server(self, handler)


#: A server handler: (request, connection) -> generator returning response.
RpcHandler = Callable[[Any, RpcConnection], Any]


def rpc_listen(nic: NIC, port: int, handler: RpcHandler):
    """Start an RPC server on *nic:port*; returns the listener.

    For every accepted connection a serve loop
    (:meth:`RpcConnection.serve`) runs *handler* on each incoming
    request (the handler is a generator so it may perform further
    simulated work) and sends back its return value.  A handler
    returning ``None`` sends no response (one-way messages).
    """
    listener = install_cm(nic).listen(port)

    def accept(request) -> None:
        pd = nic.create_pd()
        cq = nic.create_cq(name="rpc")
        qp = nic.create_qp(pd, cq)
        listener.accept(request, qp, private_data={"rpc": True})
        RpcConnection(nic, qp).serve(handler)

    listener.serve(accept)
    return listener


class _Server(Step):
    """A connection's serve loop: an accepted RPC connection's, and the
    invoker's manager-client demux (a handler that answers nothing).

    Receives block on the completion channel; a generator handler is
    driven here, waiting on the events it yields, and its return value
    is the response.
    """

    __slots__ = ("connection", "handler", "message", "gen")

    def __init__(self, connection: RpcConnection, handler: RpcHandler) -> None:
        super().__init__(connection.env, self._next)
        self.connection = connection
        self.handler = handler
        self.message: Any = None
        self.gen: Any = None
        self.start()

    def _next(self) -> None:
        # Scheduled once, as the loop's start: from here on the loop is
        # driven by receive and handler callbacks.
        self.step = None
        if not self.connection.alive:
            self.end()
            return
        self.connection.receive(self._serve)

    def _serve(self, message: Any) -> None:
        if message is None:
            self.end()
            return
        result = self.handler(message, self.connection)
        if hasattr(result, "send"):  # generator handler
            # Driven inline: a Process per request would add its own
            # start and end events to the schedule.
            self.message = message
            self.gen = result
            self._drive(True, None)
            return
        self._respond(message, result)

    def _drive(self, ok: bool, value: Any) -> None:
        """Run the handler generator to its next wait (or its end)."""
        gen = self.gen
        while True:
            try:
                target = gen.send(value) if ok else gen.throw(value)
            except StopIteration as stop:
                self.gen = None
                message, self.message = self.message, None
                self._respond(message, stop.value)
                return
            except BaseException as error:
                # The serve loop dies with the handler: its end event
                # carries the error out of Environment.run.
                self.gen = self.message = None
                failed = Event(self.env)
                failed._ok = False
                failed._value = error
                self.env.schedule(failed)
                return
            if target.callbacks is not None:
                target.callbacks.append(self._resume)
                return
            ok, value = target._ok, target._value
            if not ok:
                target._defused = True

    def _resume(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
        self._drive(event._ok, event._value)

    def _respond(self, message: Any, result: Any) -> None:
        if result is not None:
            # Echo the request id so demuxing clients can match
            # responses to calls among async notifications.
            if isinstance(message, dict) and isinstance(result, dict) and "_rpc_id" in message:
                result = {**result, "_rpc_id": message["_rpc_id"]}
            self.connection._post_message(result)
        self._next()


def rpc_connect(nic: NIC, host: str, port: int):
    """Generator: connect to an RPC server, returns an RpcConnection."""
    cm = install_cm(nic)
    pd = nic.create_pd()
    cq = nic.create_cq(name="rpc-client")
    qp = nic.create_qp(pd, cq)
    yield from cm.connect(host, port, qp, private_data={"rpc": True})
    return RpcConnection(nic, qp)
