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

from typing import Any, Callable, Optional

from repro.core.protocol import decode_control, encode_control
from repro.rdma.cm import install_cm
from repro.rdma.constants import Access, Opcode
from repro.rdma.device import NIC
from repro.rdma.errors import RdmaError
from repro.rdma.memory import MemoryRegion, ProtectionDomain
from repro.rdma.verbs import RecvWR, SendWR, sge

RPC_BUFFER_BYTES = 64 * 1024
RPC_RING_DEPTH = 8


def _register_ring(nic: NIC, pd: ProtectionDomain, depth: int) -> list[MemoryRegion]:
    """*depth* per-slot MRs over one block of ``depth`` buffers.

    One block rather than one per slot: the slots are page-aligned and
    the allocator bumps contiguously, so every slot keeps the address
    and the lkey/rkey it had as a block of its own, while the ring costs
    one allocation (large enough to be demand-zero mapped).
    """
    block = nic.alloc(RPC_BUFFER_BYTES * depth)
    return [
        pd.register(
            block,
            Access.LOCAL_WRITE,
            addr=block.base + slot * RPC_BUFFER_BYTES,
            length=RPC_BUFFER_BYTES,
        )
        for slot in range(depth)
    ]


class RpcConnection:
    """One side of an established RPC connection."""

    def __init__(self, nic: NIC, qp, *, ring_depth: int = RPC_RING_DEPTH) -> None:
        self.nic = nic
        self.env = nic.env
        self.qp = qp
        pd = qp.pd
        # A ring of send buffers: the NIC DMA-reads the payload only
        # after its processing delay, so reusing one buffer for two
        # back-to-back messages would corrupt the first (classic verbs
        # bug -- the buffer must stay stable until send completion).
        self._send_mrs = _register_ring(nic, pd, ring_depth)
        self._send_index = 0
        self._recv_mrs = _register_ring(nic, pd, ring_depth)
        for mr in self._recv_mrs:
            qp.post_recv(RecvWR(local=sge(mr)))
        self._recv_index = {mr.lkey: mr for mr in self._recv_mrs}
        self._wr_to_mr: dict[int, Any] = {}
        self._repost_order: list = list(self._recv_mrs)

    @property
    def alive(self) -> bool:
        return self.qp.connected

    def _post_message(self, message: Any) -> None:
        data = encode_control(message)
        if len(data) > RPC_BUFFER_BYTES:
            raise RdmaError(f"control message of {len(data)} B exceeds RPC buffer")
        send_mr = self._send_mrs[self._send_index]
        self._send_index = (self._send_index + 1) % len(self._send_mrs)
        send_mr.write(0, data)
        self.qp.post_send(
            SendWR(opcode=Opcode.SEND, local=sge(send_mr, 0, len(data)), signaled=False)
        )

    def _receive(self, blocking: bool = True):
        """Generator: next decoded message (None on flush/teardown)."""
        cq = self.qp.recv_cq
        if blocking:
            wcs = yield from cq.blocking_wait(max_entries=1)
        else:
            wcs = yield from cq.busy_poll(max_entries=1)
        wc = wcs[0]
        if not wc.ok:
            return None
        mr = self._repost_order.pop(0)
        message = decode_control(mr.read(0, wc.byte_len))
        self.qp.post_recv(RecvWR(local=sge(mr)))
        self._repost_order.append(mr)
        return message

    def call(self, request: Any, blocking: bool = True):
        """Generator: send *request*, return the peer's response."""
        self._post_message(request)
        response = yield from self._receive(blocking=blocking)
        return response

    def notify(self, message: Any) -> None:
        """One-way message, no response expected."""
        self._post_message(message)


#: A server handler: (request, connection) -> generator returning response.
RpcHandler = Callable[[Any, RpcConnection], Any]


def rpc_listen(nic: NIC, port: int, handler: RpcHandler, *, name: Optional[str] = None):
    """Start an RPC server on *nic:port*; returns the listener.

    For every accepted connection a serving process runs *handler* on
    each incoming request (the handler is a generator so it may perform
    further simulated work) and sends back its return value.  A handler
    returning ``None`` sends no response (one-way messages).
    """
    cm = install_cm(nic)
    listener = cm.listen(port)
    env = nic.env

    def acceptor():
        while not listener.closed:
            request = yield listener.get_request()
            pd = nic.create_pd()
            cq = nic.create_cq(name=f"{nic.name}.rpc{port}")
            qp = nic.create_qp(pd, cq)
            listener.accept(request, qp, private_data={"rpc": True})
            connection = RpcConnection(nic, qp)
            env.process(server_loop(connection), name=f"rpc-serve-{nic.name}:{port}")

    def server_loop(connection: RpcConnection):
        while connection.alive:
            message = yield from connection._receive(blocking=True)
            if message is None:
                return
            result = handler(message, connection)
            if hasattr(result, "send"):  # generator handler
                result = yield from result
            if result is not None:
                # Echo the request id so demuxing clients can match
                # responses to calls among async notifications.
                if isinstance(message, dict) and isinstance(result, dict) and "_rpc_id" in message:
                    result = {**result, "_rpc_id": message["_rpc_id"]}
                connection._post_message(result)

    env.process(acceptor(), name=name or f"rpc-accept-{nic.name}:{port}")
    return listener


def rpc_connect(nic: NIC, host: str, port: int):
    """Generator: connect to an RPC server, returns an RpcConnection."""
    cm = install_cm(nic)
    pd = nic.create_pd()
    cq = nic.create_cq(name=f"{nic.name}.rpc-client")
    qp = nic.create_qp(pd, cq)
    yield from cm.connect(host, port, qp, private_data={"rpc": True})
    return RpcConnection(nic, qp)
