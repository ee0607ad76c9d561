"""Reliable-connection queue pairs: the RDMA data path.

The requester side initiates work requests in order (the NIC send
pipeline is sequential per QP, which preserves RC ordering on the FIFO
fabric links) but deliveries pipeline, so back-to-back large writes
saturate the link.  The responder side validates rkeys/bounds/access
and either executes the operation or NAKs, driving the requester QP into
the error state exactly as hardware would.

Both halves are callback state machines: the send pump is one
re-armed :class:`~repro.sim.events.Step` per QP, and each work
request's delivery is its own :class:`_WireOp`.  They schedule the
events a process per pump and per delivery would -- same instants,
priorities and order -- keeping the events nobody waits on (a
send-queue put, the end of a delivery) as no-op slots.

What the data path would otherwise re-derive per work request is
resolved once: the fabric and the frozen latency terms per QP, a WR's
byte count when it is validated at post time, and the responder's MR
when the request arrives.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.rdma.constants import ATOMIC_SIZE, Access, Opcode, QPState, WCOpcode, WCStatus
from repro.rdma.completion import CompletionQueue, WorkCompletion
from repro.rdma.errors import QPStateError, RdmaError
from repro.rdma.fabric import Transfer
from repro.rdma.memory import SHADOW_BYTES
from repro.rdma.verbs import RecvWR, SendWR
from repro.sim.events import Step

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdma.device import NIC
    from repro.rdma.fabric import _Path
    from repro.rdma.memory import MemoryRegion, ProtectionDomain


_SEND_OPCODE_TO_WC = {
    Opcode.SEND: WCOpcode.SEND,
    Opcode.SEND_WITH_IMM: WCOpcode.SEND,
    Opcode.RDMA_WRITE: WCOpcode.RDMA_WRITE,
    Opcode.RDMA_WRITE_WITH_IMM: WCOpcode.RDMA_WRITE,
    Opcode.RDMA_READ: WCOpcode.RDMA_READ,
    Opcode.ATOMIC_FETCH_ADD: WCOpcode.FETCH_ADD,
    Opcode.ATOMIC_CMP_SWP: WCOpcode.COMP_SWAP,
}

#: Access the responder's MR must grant, per rkey-carrying opcode.
_NEEDED_ACCESS = {
    Opcode.RDMA_WRITE: Access.REMOTE_WRITE,
    Opcode.RDMA_WRITE_WITH_IMM: Access.REMOTE_WRITE,
    Opcode.RDMA_READ: Access.REMOTE_READ,
    Opcode.ATOMIC_FETCH_ADD: Access.REMOTE_ATOMIC,
    Opcode.ATOMIC_CMP_SWP: Access.REMOTE_ATOMIC,
}

#: The QP states each state may move to (a simplified legal-path check),
#: as tuples: membership tests by identity, where a set of enum members
#: would call ``Enum.__hash__`` (Python code) per lookup.
_LEGAL_TRANSITIONS = {
    QPState.RESET: (QPState.INIT, QPState.ERR),
    QPState.INIT: (QPState.RTR, QPState.ERR, QPState.RESET),
    QPState.RTR: (QPState.RTS, QPState.ERR, QPState.RESET),
    QPState.RTS: (QPState.ERR, QPState.RESET),
    QPState.ERR: (QPState.RESET,),
}
#: The same table by state value: the lookup hashes a str, not an enum.
_LEGAL_BY_VALUE = {state.value: legal for state, legal in _LEGAL_TRANSITIONS.items()}


class _WireOp(Transfer):
    """One work request after initiation: what crosses the fabric, and
    the state of its delivery (wire, responder, completion).

    Each method below is one step; a step that waits points ``step``
    at the next one and re-schedules this same event.  The wire is the
    :class:`~repro.rdma.fabric.Transfer` this op is, followed by the
    receiving NIC's processing.
    """

    __slots__ = ("qp", "wr", "data", "nbytes", "remote", "mr", "landed", "retries")

    def __init__(
        self,
        qp: "QueuePair",
        wr: SendWR,
        data: Optional[Union[bytes, memoryview]],
        nbytes: int,
    ) -> None:
        super().__init__(qp._fabric, self._start)
        self.qp = qp
        self.wr = wr
        #: What lands at the responder: a zero-copy memoryview over the
        #: (stable, per the verbs contract) source buffer, the shadow
        #: prefix of a virtual source (control headers survive), or None.
        self.data = data
        self.nbytes = nbytes
        self.remote: Optional["QueuePair"] = None
        #: The responder's MR, looked up once when the request arrives.
        self.mr: Optional["MemoryRegion"] = None
        #: The step to run once a message and its rx processing are in.
        self.landed: Optional[Callable[[], None]] = None
        #: RNR retries left.
        self.retries = 0

    # -- requester to responder ----------------------------------------------

    def _start(self) -> None:
        qp = self.qp
        remote = qp.remote
        if remote is None:  # connection torn down mid-flight
            qp._complete_send(self.wr, WCStatus.WR_FLUSH_ERR)
            self._end()
            return
        if remote is not qp._cached_remote:
            # Resolve both directions once per peer; reconnecting to a
            # different QP (identity check) re-resolves.
            fabric = qp._fabric
            qp._path_fwd = fabric.path(qp.nic.name, remote.nic.name)
            qp._path_rev = fabric.path(remote.nic.name, qp.nic.name)
            qp._cached_remote = remote
        self.remote = remote
        wire_size = self.nbytes if self.wr.opcode is not Opcode.RDMA_READ else 0
        self._transfer(qp._path_fwd, wire_size, self._arrived)

    def _transfer(self, path: "_Path", size: int, landed: Callable[[], None]) -> None:
        """The fabric transfer, then the receiving NIC, then *landed*."""
        self.landed = landed
        self.send(path, size, self._rx)

    def _rx(self) -> None:
        self.step = self.landed
        self.env.schedule_timeout(self, self.qp._rx_ns)

    # -- responder ------------------------------------------------------------

    def _arrived(self) -> None:
        """Execute the operation at the responder (or NAK it)."""
        remote = self.remote
        if remote.state is not QPState.RTS:
            self._fail(WCStatus.RETRY_EXC_ERR)
            return
        wr = self.wr
        opcode = wr.opcode
        if opcode.needs_remote_key:
            self.mr = mr = remote.nic.lookup_rkey(wr.rkey)
            if (
                mr is None
                or not mr.allows(_NEEDED_ACCESS[opcode])
                or not mr.in_bounds(wr.remote_addr, self.nbytes)
            ):
                remote.modify(QPState.ERR)
                self._responded(WCStatus.REM_ACCESS_ERR)
                return

        if opcode.consumes_recv_wr:
            self.retries = self.qp.rnr_retry
            self._claim_recv_wr()
            return

        if opcode is Opcode.RDMA_WRITE:
            self._store_remote()
            self._responded(WCStatus.SUCCESS)
            return

        if opcode is Opcode.RDMA_READ:
            block = self.mr.block
            local = wr.local
            if block.data is not None and local is not None and local.mr.block.data is not None:
                # Zero-copy: the write happens at the same instant the
                # view is taken, so aliasing is safe (and a same-block
                # overlap is handled inside MemoryBlock.write).
                local.mr.write(local.offset, block.view(wr.remote_addr, self.nbytes))
            self._responded(WCStatus.SUCCESS)
            return

        if opcode.is_atomic:
            self.step = self._atomic
            self.env.schedule_timeout(self, self.qp._atomic_ns)
            return

        raise RdmaError(f"unhandled opcode {opcode}")  # pragma: no cover

    def _claim_recv_wr(self) -> None:
        """Pop a posted receive, honoring RNR retry semantics."""
        remote = self.remote
        if remote._recv_queue:
            self._consume(remote._recv_queue.popleft())
            return
        if self.retries:
            self.retries -= 1
            self.step = self._claim_recv_wr
            self.env.schedule_timeout(self, remote._rnr_ns)
            return
        self._responded(WCStatus.RNR_RETRY_EXC_ERR)

    def _consume(self, recv_wr: RecvWR) -> None:
        wr = self.wr
        remote = self.remote
        if wr.opcode is not Opcode.RDMA_WRITE_WITH_IMM:  # a SEND
            local = recv_wr.local
            if self.nbytes > local.nbytes:
                remote.recv_cq.push(
                    WorkCompletion(
                        wr_id=recv_wr.wr_id,
                        opcode=WCOpcode.RECV,
                        status=WCStatus.LOC_LEN_ERR,
                        qp_num=remote.qpn,
                    )
                )
                remote.modify(QPState.ERR)
                self._responded(WCStatus.REM_INV_REQ_ERR)
                return
            if self.data is not None:
                local.mr.write(local.offset, self.data)
            wc_opcode = WCOpcode.RECV
        else:  # the data goes to the rkey target
            self._store_remote()
            wc_opcode = WCOpcode.RECV_RDMA_WITH_IMM
        # Positional: WorkCompletion(wr_id, opcode, status, byte_len,
        # imm_data, qp_num).
        remote.recv_cq.push(
            WorkCompletion(
                recv_wr.wr_id, wc_opcode, WCStatus.SUCCESS, self.nbytes, wr.imm_data, remote.qpn
            )
        )
        self._responded(WCStatus.SUCCESS)

    def _store_remote(self) -> None:
        if self.data is not None:
            self.mr.block.write(self.wr.remote_addr, self.data)

    def _atomic(self) -> None:
        wr = self.wr
        block = self.mr.block
        if block.data is None:
            self.remote.modify(QPState.ERR)
            self._responded(WCStatus.REM_ACCESS_ERR)
            return
        old = block.read_u64(wr.remote_addr)
        if wr.opcode is Opcode.ATOMIC_FETCH_ADD:
            block.write_u64(wr.remote_addr, old + wr.compare_add)
        else:  # compare-and-swap
            if old == wr.compare_add:
                block.write_u64(wr.remote_addr, wr.swap)
        if wr.local is not None:
            wr.local.mr.write(wr.local.offset, old.to_bytes(8, "little"))
        self._responded(WCStatus.SUCCESS)

    # -- back to the requester ----------------------------------------------------

    def _responded(self, status: WCStatus) -> None:
        if status is not WCStatus.SUCCESS:
            self._fail(status)
            return
        opcode = self.wr.opcode
        if opcode.has_response_data:
            # READ/atomic response carries data back to the requester.
            resp_size = self.nbytes if opcode is Opcode.RDMA_READ else ATOMIC_SIZE
            self._transfer(self.qp._path_rev, resp_size, self._done)
        else:
            # Transport ACK (does not occupy data links).
            self.step = self._done
            self.env.schedule_timeout(self, self.qp._ack_ns)

    def _done(self) -> None:
        self.qp._complete_send(self.wr, WCStatus.SUCCESS)
        self._end()

    def _fail(self, status: WCStatus) -> None:
        self.qp._fail_send(self.wr, status)
        self._end()

    def _end(self) -> None:
        """Schedule the delivery's end event: a no-op nobody waits on."""
        # Drop the bound-method self-references so refcounting frees
        # the op (a cycle would leave it to the garbage collector).
        self.step = self.arrived = self.landed = None
        self.end()


class QueuePair:
    """One endpoint of a reliable connection."""

    def __init__(
        self,
        nic: "NIC",
        qpn: int,
        pd: "ProtectionDomain",
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        *,
        max_inline_data: Optional[int] = None,
        rnr_retry: int = 7,
        max_send_wr: int = 1_024,
    ) -> None:
        self.nic = nic
        self.env = nic.env
        self.qpn = qpn
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.state = QPState.RESET
        self.max_inline_data = (
            nic.model.max_inline_data if max_inline_data is None else max_inline_data
        )
        self.rnr_retry = rnr_retry
        self.max_send_wr = max_send_wr
        self.remote: Optional["QueuePair"] = None
        #: The fabric and the (frozen) latency terms every work request
        #: reads, resolved once per QP.
        model = nic.model
        self._fabric = nic.fabric
        self._tx_ns = model.nic_tx_ns
        self._dma_ns = model.pcie_dma_fetch_ns
        self._rx_ns = model.nic_rx_ns
        self._ack_ns = model.ack_delay_ns
        self._atomic_ns = model.atomic_exec_ns
        self._rnr_ns = model.rnr_timer_ns
        #: Cached fabric routes, resolved per connected peer.
        self._cached_remote: Optional["QueuePair"] = None
        self._path_fwd: Optional["_Path"] = None
        self._path_rev: Optional["_Path"] = None
        self._recv_queue: deque[RecvWR] = deque()
        #: Posted WRs the send pump has not taken yet, each with the
        #: byte count validated when it was posted.
        self._send_queue: deque[tuple[SendWR, int]] = deque()
        #: The send pump: idle means waiting on an empty send queue;
        #: _pump_wr is the WR it took last, _pump_nbytes its size.
        self._pump = Step(self.env, self._pump_get)
        self._pump_idle = False
        self._pump_wr: Optional[SendWR] = None
        self._pump_nbytes = 0
        self._pump.start()
        #: Statistics.
        self.bytes_sent = 0
        self.ops_posted = 0

    # -- state management ------------------------------------------------

    def modify(self, state: QPState) -> None:
        """Transition the QP (simplified legal-path check)."""
        if state not in _LEGAL_BY_VALUE[self.state._value_]:
            raise QPStateError(f"illegal transition {self.state} -> {state}")
        self.state = state
        if state is QPState.ERR:
            self._flush()
        if state is QPState.RESET:
            self.remote = None

    @staticmethod
    def connect_pair(a: "QueuePair", b: "QueuePair") -> None:
        """Out-of-band connection setup (what the CM handshake performs)."""
        for qp in (a, b):
            if qp.state is not QPState.RESET:
                raise QPStateError(f"QP {qp.qpn} not in RESET")
        a.remote, b.remote = b, a
        for qp in (a, b):
            qp.modify(QPState.INIT)
            qp.modify(QPState.RTR)
            qp.modify(QPState.RTS)

    @property
    def connected(self) -> bool:
        return self.remote is not None and self.state is QPState.RTS

    def _flush(self) -> None:
        """Flush posted receives with WR_FLUSH_ERR, as hardware does."""
        flushed, self._recv_queue = self._recv_queue, deque()
        for wr in flushed:
            self.recv_cq.push(
                WorkCompletion(
                    wr_id=wr.wr_id,
                    opcode=WCOpcode.RECV,
                    status=WCStatus.WR_FLUSH_ERR,
                    qp_num=self.qpn,
                )
            )

    # -- posting -----------------------------------------------------------

    def post_recv(self, wr: RecvWR) -> None:
        # Real verbs requires INIT+; we also accept RESET because the
        # simulated CM moves RESET->RTS atomically at accept time and
        # servers pre-post receives before the client connects.
        if self.state is QPState.ERR:
            raise QPStateError(f"cannot post receive in state {self.state}")
        wr.validate()
        self._recv_queue.append(wr)

    def post_recvs(self, wrs) -> None:
        """Post a list of receives in order (``ibv_post_recv`` with a WR
        chain): each is validated before it is queued, and one that
        fails stops the chain, leaving the ones before it posted."""
        if self.state is QPState.ERR:
            raise QPStateError(f"cannot post receive in state {self.state}")
        append = self._recv_queue.append
        for wr in wrs:
            wr.validate()
            append(wr)

    def post_send(self, wr: SendWR) -> None:
        """Queue a work request on the NIC's per-QP send pipeline."""
        if self.state is not QPState.RTS:
            raise QPStateError(f"cannot post send in state {self.state}")
        if self.remote is None:
            raise QPStateError("QP has no connected peer")
        nbytes = wr.validate(self.max_inline_data)
        if wr.opcode.is_atomic and wr.local is not None and wr.local.mr.block.data is None:
            raise RdmaError("atomic result buffers must be real memory")
        if len(self._send_queue) >= self.max_send_wr:
            # ibv_post_send returns ENOMEM when the SQ is full.
            raise RdmaError(f"send queue full (max_send_wr={self.max_send_wr})")
        self.ops_posted += 1
        env = self.env
        env.schedule_timeout(env.noop, 0)  # the send-queue put
        if self._pump_idle:
            self._pump_idle = False
            self._pump_wr = wr
            self._pump_nbytes = nbytes
            self._pump.step = self._pump_took
            env.schedule_timeout(self._pump, 0)
        else:
            self._send_queue.append((wr, nbytes))

    # -- requester pipeline --------------------------------------------------

    def _pump_get(self) -> None:
        """Take the next posted WR, or idle until one is posted."""
        queue = self._send_queue
        if queue:
            self._pump_wr, self._pump_nbytes = queue.popleft()
            self._pump.step = self._pump_took
            self.env.schedule_timeout(self._pump, 0)
        else:
            self._pump_idle = True

    def _pump_took(self) -> None:
        """Sequential WR initiation: NIC processing of one WR."""
        wr = self._pump_wr
        if self.state is not QPState.RTS:
            self._complete_send(wr, WCStatus.WR_FLUSH_ERR)
            self._pump_get()
            return
        nbytes = self._pump_nbytes
        cost = self._tx_ns
        # Non-inline payloads need a PCIe DMA fetch.
        if (
            nbytes > 0
            and not (wr.inline and nbytes <= self.max_inline_data)
            and wr.opcode is not Opcode.RDMA_READ
        ):
            cost += self._dma_ns
        self._pump.step = self._pump_sent
        self.env.schedule_timeout(self._pump, cost)

    def _pump_sent(self) -> None:
        """Hand the WR to its own delivery; deliveries run concurrently."""
        wr = self._pump_wr
        nbytes = self._pump_nbytes
        local = wr.local
        data: Optional[Union[bytes, memoryview]] = None
        if not wr.opcode.has_response_data and local is not None and nbytes > 0:
            mr = local.mr
            if mr.block.data is not None:
                # Zero-copy: reference the source buffer instead of
                # materializing it.  The verbs contract (the buffer
                # is stable until the send completes) makes this
                # equivalent to the DMA-fetch-time copy it replaces.
                data = mr.view(local.offset, nbytes)
            else:
                # A virtual source keeps only its shadow prefix.
                data = mr.read(local.offset, min(nbytes, SHADOW_BYTES))
        self.bytes_sent += nbytes
        _WireOp(self, wr, data, nbytes).start()
        self._pump_get()

    # -- completions -----------------------------------------------------------

    def _complete_send(self, wr: SendWR, status: WCStatus) -> None:
        if wr.signaled or status is not WCStatus.SUCCESS:
            self.send_cq.push(
                WorkCompletion(
                    wr_id=wr.wr_id,
                    opcode=_SEND_OPCODE_TO_WC[wr.opcode],
                    status=status,
                    byte_len=wr.nbytes,
                    qp_num=self.qpn,
                )
            )
        if wr.on_complete is not None:
            wr.on_complete(wr, status)

    def _fail_send(self, wr: SendWR, status: WCStatus) -> None:
        """Error completion + requester QP to ERR (flushing receives)."""
        self._complete_send(wr, status)
        if self.state is not QPState.ERR:
            self.modify(QPState.ERR)

    def __repr__(self) -> str:
        return f"<QueuePair qpn={self.qpn} state={self.state.value} nic={self.nic.name}>"
