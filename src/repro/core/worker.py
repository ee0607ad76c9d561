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

The loop is a callback state machine on one re-armed
:class:`~repro.sim.events.Step` (the warm wait is a
:class:`~repro.rdma.completion.CQWait`): each method below is one step,
and it schedules exactly the events a generator process running the
same loop would (its start, every wait, and its end).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core import protocol
from repro.core.config import RFaaSConfig
from repro.core.functions import CodePackage
from repro.core.sandbox import SandboxProfile
from repro.rdma.completion import CQWait
from repro.rdma.constants import Access, Opcode, WCStatus
from repro.rdma.verbs import RecvWR, SendWR, sge
from repro.sim.events import AnyOf, Step

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.executor import Allocation, SpotExecutor
    from repro.rdma.device import NIC

#: MR access of the input buffer (clients write into it); Flag unions
#: are slow, so combine once.
_INPUT_ACCESS = Access.LOCAL_WRITE | Access.REMOTE_WRITE


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
        self.input_mr = pd.register(self._input_block, _INPUT_ACCESS)
        # Staging buffer for function output before the response write.
        self._output_block = self.nic.alloc(size, virtual=virtual)
        self.output_mr = pd.register(self._output_block, Access.LOCAL_WRITE)
        # Tiny landing zone for the zero-byte parts of WRITE_WITH_IMM.
        self._scratch_mr = pd.register(self.nic.alloc(64), Access.LOCAL_WRITE)
        # Stateless zero-byte landing WR, re-posted for every receive.
        self._recv_wr = RecvWR(sge(self._scratch_mr, 0, 0))
        self.recv_cq = self.nic.create_cq(name="worker.recv")
        self.send_cq = self.nic.create_cq(name="worker.send")
        self.qp = self.nic.create_qp(pd, self.send_cq, self.recv_cq)
        #: What every invocation reads of the (frozen) latency model and
        #: config and of the buffer layout, resolved once per worker.
        self._poll_ns = self.nic.model.poll_detect_ns
        self._notify_ns = self.nic.model.blocking_notify_ns
        self._dispatch_ns = config.timings.worker_dispatch_ns
        self._input_stride = self.input_mr.length // self.pipeline_depth
        self._output_stride = self.output_mr.length // self.pipeline_depth
        #: The loop's event; ``step`` points at what it waits to do next.
        self._step = Step(self.env, self._next)
        #: The warm wait: sleep on the completion channel.
        self._warm = CQWait(self.recv_cq, self._warm_polled, self._notify_ns, 1)
        #: The loop has started and not yet ended: only then does a
        #: kill schedule an interruption.
        self._running = False

    # -- connection metadata exposed to the client ------------------------

    def connection_settings(self) -> dict:
        """What the client needs to invoke this worker remotely."""
        return {
            "worker_id": self.worker_id,
            "input_addr": self.input_mr.addr,
            "input_rkey": self.input_mr.rkey,
            "input_capacity": self.input_mr.length,
            # Pipelining: the input buffer is sliced into `slots`
            # independent regions; slot = invocation_id % slots.
            "slots": self.pipeline_depth,
            "slot_stride": self._input_stride,
        }

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self.qp.post_recvs([self._recv_wr] * self.config.recv_ring_depth)
        self.stats.last_activity_ns = self.env.now
        self._running = True
        self._step.start()

    def kill(self) -> None:
        """Hard stop (executor teardown or failure injection)."""
        self.alive = False
        if self._running:
            Step(self.env, self._interrupted).start()

    def _interrupted(self) -> None:
        if not self._running:
            return  # the loop ended in the meantime; drop the interrupt
        # Whatever the loop waits on stays scheduled (or armed on the
        # CQ) and fires as a no-op, like a lazily cancelled timeout.
        self._step.abandon()
        self._warm.abandon()
        self._end()

    def _end(self) -> None:
        self._running = False
        self._step.end()

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

    def _next(self) -> None:
        """Top of the loop: wait for the next request in the current mode."""
        if not self.alive:
            self._end()
            return
        if self.mode != "hot":
            self._warm.wait()
            return
        env = self.env
        self._entered_hot = env._now
        if self.hot_timeout_ns is None:
            # Not a CQWait: with entries already waiting, arm schedules
            # a zero-delay event that CQWait.wait skips.
            self._step.step = self._hot_arrived
            self.recv_cq.arm(self._step)
            return
        # Race the arrival against the hot->warm rollback timer.
        self._arrival = arrival = self.recv_cq.arrival_event()
        rollback = env.timeout(self.hot_timeout_ns)
        self._step.step = self._hot_woke
        AnyOf(env, [arrival, rollback]).callbacks.append(self._wake)

    def _wake(self, _event) -> None:
        self._step.step()

    def _hot_woke(self) -> None:
        arrival, self._arrival = self._arrival, None
        if not arrival.processed and len(self.recv_cq) == 0:
            # Rolled back: the whole window was polling.
            self.stats.hotpoll_ns += self.env.now - self._entered_hot
            self.stats.hot_to_warm_rollbacks += 1
            self.mode = "warm"
            self.stats.mode_history.append("warm")
            self._next()
            return
        self._hot_arrived()

    def _hot_arrived(self) -> None:
        # Request arrived; everything since entering hot mode except
        # this detection was polling.
        self.stats.hotpoll_ns += self.env._now - self._entered_hot
        self._step.step = self._hot_polled
        self.env.schedule_timeout(self._step, self._poll_ns)

    def _hot_polled(self) -> None:
        wcs = self.recv_cq.poll(max_entries=1)
        if not wcs:
            self._next()
            return
        self._handle(wcs[0], hot=True)

    def _warm_polled(self, wcs: list) -> None:
        self._handle(wcs[0], hot=False)

    def _handle(self, wc, hot: bool) -> None:
        """Serve one request CQE; the loop resumes in :meth:`_handled`."""
        self._hot = hot
        if wc.status is not WCStatus.SUCCESS:
            self._handled()
            return
        env = self.env
        self.stats.last_activity_ns = env._now
        self._invocation_id, self._fn_index = protocol.unpack_request_imm(wc.imm_data or 0)
        self._byte_len = wc.byte_len
        # SR-IOV virtual-function data-path penalty (Fig. 8, Docker).
        penalty = self.sandbox.hot_penalty_ns if hot else self.sandbox.warm_penalty_ns
        if penalty:
            self._step.step = self._parse
            env.schedule(self._step, penalty)
            return
        self._parse()

    def _parse(self) -> None:
        # Locate this invocation's input slot (slot 0 when unpipelined)
        # and parse its 12-byte header: where the result goes.
        self._slot_offset = slot_offset = (
            self._invocation_id % self.pipeline_depth
        ) * self._input_stride
        header = self.input_mr.read(slot_offset, protocol.HEADER_BYTES)
        self._result_addr, self._result_rkey = protocol.unpack_header(header)
        self._payload_size = max(0, self._byte_len - protocol.HEADER_BYTES)

        # Warm invocations on oversubscribed executors verify resource
        # availability with the allocator first (Sec. III-D); rejection
        # is immediate and cheap.
        self._core_claim = None
        if not self._hot and self.executor.oversubscribed:
            self._step.step = self._claim_core
            self.env.schedule_timeout(self._step, self.config.timings.warm_resource_check_ns)
            return
        self._dispatch()

    def _claim_core(self) -> None:
        self._core_claim = self.executor.try_claim_core()
        if self._core_claim is None:
            self.stats.rejections += 1
            self._step.step = self._rejected
            self.env.schedule_timeout(self._step, self.config.timings.rejection_ns)
            return
        self._dispatch()

    def _rejected(self) -> None:
        self._reply(protocol.STATUS_REJECTED)

    def _dispatch(self) -> None:
        self._step.step = self._execute
        self.env.schedule_timeout(self._step, self._dispatch_ns)

    def _execute(self) -> None:
        spec = self.package.by_index(self._fn_index)
        if spec is None:
            self._reply(protocol.STATUS_FUNCTION_NOT_FOUND)
            return

        payload: Optional[bytes]
        payload_size = self._payload_size
        if self._input_block.data is None:  # virtual
            payload = None
        else:
            payload = self.input_mr.read(self._slot_offset + protocol.HEADER_BYTES, payload_size)

        env = self.env
        self._started = env._now
        try:
            self._output, self._out_size = spec.execute(payload, payload_size)
        except Exception:
            self._step.step = self._failed
            env.schedule_timeout(self._step, self.config.timings.rejection_ns)
            return
        cost = spec.cost_ns(payload_size)
        if cost:
            self._step.step = self._executed
            env.schedule(self._step, cost)
            return
        self._executed()

    def _failed(self) -> None:
        self._reply(protocol.STATUS_FAILED)

    def _executed(self) -> None:
        now = self.env._now
        self.stats.busy_ns += now - self._started
        self.stats.invocations += 1
        self.stats.last_activity_ns = now
        output, self._output = self._output, None
        self._reply(protocol.STATUS_OK, output, self._out_size)

    def _reply(self, status: int, output: Optional[bytes] = None, out_size: int = 0) -> None:
        """Answer the client, re-arm the receive, free the core claim."""
        self._respond(
            self._invocation_id, status, output, out_size, self._result_addr, self._result_rkey
        )
        self._repost()
        if self._core_claim is not None:
            self._core_claim.release()
            self._core_claim = None
        self._handled()

    def _handled(self) -> None:
        if not self._hot and self.hot_timeout_ns != 0:
            # Sec. III-C: enter hot mode right after execution.
            self.mode = "hot"
            self.stats.mode_history.append("hot")
        self._next()

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
            stride = self._output_stride
            if out_size <= stride:
                offset = (invocation_id % depth) * stride
        if output is not None:
            self.output_mr.write(offset, output)
        qp = self.qp
        # Positional: SendWR(opcode, local, remote_addr, rkey, imm_data,
        # signaled, inline).
        qp.post_send(
            SendWR(
                Opcode.RDMA_WRITE_WITH_IMM,
                sge(self.output_mr, offset, out_size),
                result_addr,
                result_rkey,
                protocol.pack_response_imm(invocation_id, status),
                False,
                out_size <= qp.max_inline_data,
            )
        )

    def _repost(self) -> None:
        self.qp.post_recv(self._recv_wr)

    @property
    def idle_ns(self) -> int:
        return self.env.now - self.stats.last_activity_ns

