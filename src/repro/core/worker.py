"""User-code executor workers: where invocations actually run.

Each worker is one function instance (Sec. III-C): a thread pinned to a
core, with its own QP, input buffer and completion queue.  The loop
implements the paper's invocation modes:

* **hot** -- busy-poll the receive CQ; noticing a request costs 45 ns
  but the core burns the whole time (billed as hot-polling time).
* **warm** -- sleep on the completion channel; +4.3 us latency, no CPU.
* the worker enters hot mode right after every execution and rolls back
  to warm after ``hot_timeout_ns`` without a new request.

An invocation arrives as one RDMA WRITE_WITH_IMM carrying
``[12-byte result header | payload]``; the worker runs the *real*
function handler, charges the cost model's virtual time, and answers
with a single WRITE_WITH_IMM into the client's result buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core import protocol
from repro.core.config import RFaaSConfig
from repro.core.functions import CodePackage
from repro.core.sandbox import SandboxProfile
from repro.rdma.constants import Access, Opcode
from repro.rdma.verbs import RecvWR, SendWR, sge
from repro.sim.events import AnyOf
from repro.sim.process import Interrupt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import Allocation, SpotExecutor
    from repro.rdma.device import NIC


@dataclass
class WorkerStats:
    """Per-worker accounting, feeding the billing counters."""

    invocations: int = 0
    rejections: int = 0
    busy_ns: int = 0
    hotpoll_ns: int = 0
    hot_to_warm_rollbacks: int = 0
    last_activity_ns: int = 0
    mode_history: list[str] = field(default_factory=list)


class Worker:
    """One worker thread of a user-code executor process."""

    def __init__(
        self,
        executor: "SpotExecutor",
        allocation: "Allocation",
        worker_id: int,
        package: CodePackage,
        sandbox: SandboxProfile,
        config: RFaaSConfig,
        hot_timeout_ns: Optional[int],
        buffer_bytes: Optional[int] = None,
        virtual_buffers: Optional[bool] = None,
    ) -> None:
        self.executor = executor
        self.allocation = allocation
        self.env = executor.env
        self.nic: "NIC" = executor.node.nic
        self.worker_id = worker_id
        self.package = package
        self.sandbox = sandbox
        self.config = config
        self.hot_timeout_ns = hot_timeout_ns
        self.stats = WorkerStats()
        self.alive = True
        self.mode = "hot" if hot_timeout_ns != 0 else "warm"

        pd = self.nic.create_pd()
        self.pd = pd
        size = buffer_bytes or config.worker_buffer_bytes
        # Buffers beyond this threshold go virtual: the hundred-MB
        # offload sweeps track sizes only (DESIGN.md substitution).
        # Clients using virtual payload buffers say so explicitly.
        virtual = virtual_buffers if virtual_buffers is not None else size > 16 * 1024 * 1024
        # Pipelining slices the input buffer into slots; virtual
        # buffers keep only a single shadowed header region, so they
        # are limited to one outstanding invocation.
        self.pipeline_depth = 1 if virtual else max(1, config.worker_pipeline_depth)
        # Input buffer the client writes [header | payload] into.
        self._input_block = self.nic.alloc(size, virtual=virtual)
        self.input_mr = pd.register(
            self._input_block, Access.LOCAL_WRITE | Access.REMOTE_WRITE
        )
        # Staging buffer for function output before the response write.
        self._output_block = self.nic.alloc(size, virtual=virtual)
        self.output_mr = pd.register(self._output_block, Access.LOCAL_WRITE)
        # Tiny landing zone for the zero-byte parts of WRITE_WITH_IMM.
        self._scratch_mr = pd.register(self.nic.alloc(64), Access.LOCAL_WRITE)
        # Stateless zero-byte landing WR, re-posted for every receive.
        self._recv_wr = RecvWR(local=sge(self._scratch_mr, 0, 0))
        self.recv_cq = self.nic.create_cq(name=f"{executor.name}.w{worker_id}.recv")
        self.send_cq = self.nic.create_cq(name=f"{executor.name}.w{worker_id}.send")
        self.qp = self.nic.create_qp(pd, self.send_cq, self.recv_cq)
        self._process = None

    # -- connection metadata exposed to the client ------------------------

    def connection_settings(self) -> dict:
        """What the client needs to invoke this worker remotely."""
        depth = self.pipeline_depth
        return {
            "worker_id": self.worker_id,
            "input_addr": self.input_mr.addr,
            "input_rkey": self.input_mr.rkey,
            "input_capacity": self.input_mr.length,
            # Pipelining: the input buffer is sliced into `slots`
            # independent regions; slot = invocation_id % slots.
            "slots": depth,
            "slot_stride": self.input_mr.length // depth,
        }

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        for _ in range(self.config.recv_ring_depth):
            self.qp.post_recv(self._recv_wr)
        self.stats.last_activity_ns = self.env.now
        self._process = self.env.process(
            self._loop(), name=f"{self.executor.name}-worker{self.worker_id}"
        )

    def kill(self) -> None:
        """Hard stop (executor teardown or failure injection)."""
        self.alive = False
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("killed")

    def release_buffers(self) -> None:
        """Free the input, output and scratch blocks (executor teardown).

        The MRs stay registered, so a client write that arrives after
        teardown still passes the rkey and bounds checks and completes
        just as it would during the lease; it lands in a size-only
        block.  Deregistering would turn it into REM_ACCESS_ERR.
        """
        memory = self.nic.memory
        for block in (self._input_block, self._output_block, self._scratch_mr.block):
            memory.free(block)

    # -- the invocation loop ---------------------------------------------------

    def _loop(self):
        env = self.env
        model = self.nic.model
        try:
            while self.alive:
                if self.mode == "hot":
                    entered_hot = env.now
                    arrival = self.recv_cq.arrival_event()
                    if self.hot_timeout_ns is None:
                        yield arrival
                    else:
                        rollback = env.timeout(self.hot_timeout_ns)
                        yield AnyOf(env, [arrival, rollback])
                        if not arrival.processed and len(self.recv_cq) == 0:
                            # Rolled back: the whole window was polling.
                            self.stats.hotpoll_ns += env.now - entered_hot
                            self.stats.hot_to_warm_rollbacks += 1
                            self.mode = "warm"
                            self.stats.mode_history.append("warm")
                            continue
                    # Request arrived; everything since entering hot mode
                    # except this detection was polling.
                    self.stats.hotpoll_ns += env.now - entered_hot
                    yield env.timeout(model.poll_detect_ns)
                    wcs = self.recv_cq.poll(max_entries=1)
                    if not wcs:
                        continue
                    yield from self._handle(wcs[0], hot=True)
                else:
                    wcs = yield from self.recv_cq.blocking_wait(max_entries=1)
                    yield from self._handle(wcs[0], hot=False)
                    if self.hot_timeout_ns != 0:
                        # Sec. III-C: enter hot mode right after execution.
                        self.mode = "hot"
                        self.stats.mode_history.append("hot")
        except Interrupt:
            return

    def _handle(self, wc, hot: bool):
        env = self.env
        timings = self.config.timings
        if not wc.ok:
            return
        self.stats.last_activity_ns = env.now
        invocation_id, fn_index = protocol.unpack_request_imm(wc.imm_data or 0)

        # SR-IOV virtual-function data-path penalty (Fig. 8, Docker).
        penalty = self.sandbox.hot_penalty_ns if hot else self.sandbox.warm_penalty_ns
        if penalty:
            yield env.timeout(penalty)

        # Locate this invocation's input slot (slot 0 when unpipelined)
        # and parse its 12-byte header: where the result goes.
        depth = self.pipeline_depth
        slot_offset = (invocation_id % depth) * (self.input_mr.length // depth)
        header = self.input_mr.read(slot_offset, protocol.HEADER_BYTES)
        result_addr, result_rkey = protocol.unpack_header(header)
        payload_size = max(0, wc.byte_len - protocol.HEADER_BYTES)

        # Warm invocations on oversubscribed executors verify resource
        # availability with the allocator first (Sec. III-D); rejection
        # is immediate and cheap.
        core_claim = None
        if not hot and self.executor.oversubscribed:
            yield env.timeout(timings.warm_resource_check_ns)
            core_claim = self.executor.try_claim_core()
            if core_claim is None:
                self.stats.rejections += 1
                yield env.timeout(timings.rejection_ns)
                self._respond(invocation_id, protocol.STATUS_REJECTED, None, 0, result_addr, result_rkey)
                self._repost()
                return

        yield env.timeout(timings.worker_dispatch_ns)
        spec = self.package.by_index(fn_index)
        if spec is None:
            self._respond(
                invocation_id, protocol.STATUS_FUNCTION_NOT_FOUND, None, 0, result_addr, result_rkey
            )
            self._repost()
            if core_claim is not None:
                core_claim.release()
            return

        payload: Optional[bytes]
        if self._input_block.is_virtual:
            payload = None
        else:
            payload = self.input_mr.read(slot_offset + protocol.HEADER_BYTES, payload_size)

        started = env.now
        try:
            output, out_size = spec.execute(payload, payload_size)
        except Exception:
            yield env.timeout(timings.rejection_ns)
            self._respond(invocation_id, protocol.STATUS_FAILED, None, 0, result_addr, result_rkey)
            self._repost()
            if core_claim is not None:
                core_claim.release()
            return
        cost = spec.cost_ns(payload_size)
        if cost:
            yield env.timeout(cost)
        self.stats.busy_ns += env.now - started
        self.stats.invocations += 1

        self._respond(invocation_id, protocol.STATUS_OK, output, out_size, result_addr, result_rkey)
        self._repost()
        self.stats.last_activity_ns = env.now
        if core_claim is not None:
            core_claim.release()

    def _respond(
        self,
        invocation_id: int,
        status: int,
        output: Optional[bytes],
        out_size: int,
        result_addr: int,
        result_rkey: int,
    ) -> None:
        """One WRITE_WITH_IMM straight into the client's result buffer.

        The staging buffer rotates slots with the invocation id, exactly
        like the input buffer: the response payload is captured by
        reference (zero-copy), so with pipelining a later invocation's
        output must not land on top of an in-flight response.  Outputs
        too large for a slot fall back to offset 0 (a depth-1 layout).
        """
        depth = self.pipeline_depth
        offset = 0
        if depth > 1:
            stride = self.output_mr.length // depth
            if out_size <= stride:
                offset = (invocation_id % depth) * stride
        if output is not None:
            self.output_mr.write(offset, output)
        inline = out_size <= self.qp.max_inline_data
        self.qp.post_send(
            SendWR(
                opcode=Opcode.RDMA_WRITE_WITH_IMM,
                local=sge(self.output_mr, offset, out_size),
                remote_addr=result_addr,
                rkey=result_rkey,
                imm_data=protocol.pack_response_imm(invocation_id, status),
                inline=inline,
                signaled=False,
            )
        )

    def _repost(self) -> None:
        self.qp.post_recv(self._recv_wr)

    @property
    def idle_ns(self) -> int:
        return self.env.now - self.stats.last_activity_ns
