"""The client library: ``rfaas::invoker`` (Sec. IV-B).

Mirrors the paper's programming model: the invoker acquires and caches
leases, manages RDMA-registered buffers (inputs carry the 12-byte
result header), submits invocations as single RDMA writes, and hands
back futures.  Completion events are consumed either by busy polling
(minimum latency) or by a single blocking background loop per
connection (minimum CPU) -- both modes from Sec. IV-B.

Rejected invocations (executor resource exhaustion, Fig. 6) are
transparently redirected to another connected worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Any, Optional

from repro.core import protocol
from repro.core.config import ColdStartBreakdown, RFaaSConfig
from repro.core.errors import (
    AllocationError,
    InvocationRejected,
    InvocationTimeout,
    LeaseExpired,
    RFaaSError,
)
from repro.rdma.errors import ConnectionRefused
from repro.core.functions import CodePackage
from repro.core.leases import Lease, LeaseState
from repro.core.rpc import RpcConnection, rpc_connect
from repro.rdma.cm import install_cm
from repro.rdma.completion import CQWait
from repro.rdma.constants import Access, Opcode, WCStatus
from repro.rdma.verbs import RecvWR, SendWR, sge
from repro.sim.events import Step

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdma.device import NIC
    from repro.rdma.memory import MemoryRegion
    from repro.sim.core import Environment

#: MR access of output buffers (workers write results into them).
_OUTPUT_ACCESS = Access.LOCAL_WRITE | Access.REMOTE_WRITE


class ClientBuffer:
    """An RDMA-registered client buffer (``rfaas::buffer``).

    Input buffers reserve :data:`protocol.HEADER_BYTES` at the front for
    the result header; user payload starts at :attr:`payload_offset`.
    """

    def __init__(self, mr: "MemoryRegion", *, is_input: bool) -> None:
        self.mr = mr
        self.is_input = is_input
        self.payload_offset = protocol.HEADER_BYTES if is_input else 0

    @property
    def capacity(self) -> int:
        return self.mr.length - self.payload_offset

    def write(self, payload: bytes, offset: int = 0) -> None:
        """Place user payload into the buffer."""
        self.mr.write(self.payload_offset + offset, payload)

    def read(self, length: int, offset: int = 0) -> bytes:
        return self.mr.read(self.payload_offset + offset, length)

    @property
    def is_virtual(self) -> bool:
        return self.mr.block.is_virtual


@dataclass
class InvocationResult:
    """What a completed future resolves to."""

    status: int
    output_size: int
    output_buffer: Optional[ClientBuffer]
    submitted_ns: int
    completed_ns: int

    @property
    def ok(self) -> bool:
        return self.status == protocol.STATUS_OK

    @property
    def rtt_ns(self) -> int:
        return self.completed_ns - self.submitted_ns

    def output(self) -> bytes:
        if self.output_buffer is None or self.output_buffer.is_virtual:
            return b""
        return self.output_buffer.read(self.output_size)


class RemoteFuture:
    """Result handle for one invocation (``std::future`` analogue)."""

    def __init__(
        self,
        invoker: "Invoker",
        fn: "str | int",
        in_buf: ClientBuffer,
        size: int,
        out_buf: ClientBuffer,
    ) -> None:
        self.invoker = invoker
        #: Function name or raw index; indices resolve per connection
        #: (different leases may carry different code packages).
        self.fn = fn
        self.in_buf = in_buf
        self.size = size
        self.out_buf = out_buf
        self.event = invoker.env.event()
        self.submitted_ns = invoker.env._now
        self.tried_workers: list[int] = []
        self.redirects = 0
        #: Set when a wait_for deadline fired; late results/failures
        #: are silently dropped instead of crashing the simulation.
        self.abandoned = False
        #: The pooled SendWR this invocation went out on (recycled by
        #: the completion loop once the response arrives).
        self._send_wr: Optional[SendWR] = None

    def wait(self):
        """Event to ``yield`` on; value is an :class:`InvocationResult`."""
        return self.event

    def wait_for(self, timeout_ns: int):
        """Generator: result within *timeout_ns*, else raises
        :class:`InvocationTimeout`.  The invocation itself is NOT
        cancelled (RDMA writes cannot be recalled); a late result is
        discarded when it lands."""
        from repro.sim.events import AnyOf

        env = self.invoker.env
        deadline = env.timeout(timeout_ns)
        yield AnyOf(env, [self.event, deadline])
        if self.event.processed:
            if not self.event.ok:
                raise self.event.value
            return self.event.value
        self.abandoned = True
        raise InvocationTimeout(f"invocation exceeded {timeout_ns} ns")

    @property
    def done(self) -> bool:
        return self.event.triggered


@dataclass
class WorkerConnection:
    """A cached, direct RDMA connection to one remote worker thread."""

    invoker: "Invoker"
    lease: Lease
    qp: Any
    settings: dict
    scratch_mr: Any
    package: Optional[CodePackage] = None
    alive: bool = True
    futures: dict[int, RemoteFuture] = field(default_factory=dict)
    inflight: int = 0
    _inv_ids: Any = field(default_factory=lambda: count(1))
    #: Submissions waiting for an input slot: a worker exposes
    #: ``slots`` independent regions of its input buffer (1 by default
    #: -- one request at a time, as in the paper); writes beyond that
    #: would overwrite in-flight requests.
    _queue: list[RemoteFuture] = field(default_factory=list)
    _active: int = 0

    def __post_init__(self) -> None:
        # The per-dispatch fast path: settings are immutable after the
        # CM handshake, so hoist the dict lookups out of _dispatch().
        settings = self.settings
        self._worker_id: int = settings["worker_id"]
        self._slots: int = settings.get("slots", 1)
        self._slot_stride: int = settings.get("slot_stride", settings["input_capacity"])
        self._input_addr: int = settings["input_addr"]
        self._input_rkey: int = settings["input_rkey"]
        # Receives are stateless (zero-byte landing zone), so one WR
        # object is re-posted for every outstanding invocation.
        self._recv_wr = RecvWR(local=sge(self.scratch_mr, 0, 0))
        #: Recycled request descriptors (see _dispatch / completion loop).
        self._send_pool: list[SendWR] = []
        #: Packed 12-byte result headers, keyed by output MR: an output
        #: buffer's (addr, rkey) never changes, so pack once.
        self._header_cache: dict[Any, bytes] = {}
        #: Function name -> index in ``package``, resolved once per name
        #: (a package only ever gains functions, so an index holds).
        self._fn_indices: dict[str, int] = {}

    @property
    def worker_id(self) -> int:
        return self._worker_id

    @property
    def slots(self) -> int:
        return self._slots

    def serves(self, fn: "str | int") -> bool:
        """Can this connection's package execute *fn*?"""
        try:
            self._index_of(fn)
        except KeyError:
            return False
        return True

    def _index_of(self, fn: "str | int") -> int:
        """*fn*'s index in this connection's package (KeyError if absent)."""
        if isinstance(fn, int):
            return fn
        index = self._fn_indices.get(fn)
        if index is None:
            if self.package is None:
                raise KeyError(f"no package to run {fn!r}")
            index = self._fn_indices[fn] = self.package.index_of(fn)
        return index

    def submit(self, future: RemoteFuture) -> None:
        """Enqueue; dispatches immediately while input slots are free."""
        self.inflight += 1
        if self._active >= self.slots:
            self._queue.append(future)
        else:
            self._dispatch(future)

    def _dispatch(self, future: RemoteFuture) -> None:
        self._active += 1
        fn_index = self._index_of(future.fn)
        invocation_id = next(self._inv_ids) % 65_536
        self.futures[invocation_id] = future
        future.tried_workers.append(self._worker_id)
        # The target slot rotates with the invocation id (the worker
        # derives the same slot from the request immediate).
        slot_offset = (invocation_id % self._slots) * self._slot_stride
        # Header: where the worker should write the result.
        out_mr = future.out_buf.mr
        header = self._header_cache.get(out_mr)
        if header is None:
            header = protocol.pack_header(out_mr.addr, out_mr.rkey)
            self._header_cache[out_mr] = header
        future.in_buf.mr.write(0, header)
        total = protocol.HEADER_BYTES + future.size
        # Land the response: one receive per outstanding invocation.
        self.qp.post_recv(self._recv_wr)
        # Reuse a recycled request descriptor when one is available;
        # safe because a response implies (RC ordering) the request WR
        # is fully delivered, and these WRs are unsignaled so nothing
        # downstream reads their fields afterwards.
        pool = self._send_pool
        if pool:
            wr = pool.pop()
            wr.local.mr = future.in_buf.mr
            wr.local.length = total
            wr.remote_addr = self._input_addr + slot_offset
            wr.imm_data = protocol.pack_request_imm(invocation_id, fn_index)
            wr.inline = total <= self.qp.max_inline_data
        else:
            wr = SendWR(
                opcode=Opcode.RDMA_WRITE_WITH_IMM,
                local=sge(future.in_buf.mr, 0, total),
                remote_addr=self._input_addr + slot_offset,
                rkey=self._input_rkey,
                imm_data=protocol.pack_request_imm(invocation_id, fn_index),
                inline=total <= self.qp.max_inline_data,
                signaled=False,
            )
        future._send_wr = wr
        self.qp.post_send(wr)

    def _completed_one(self) -> None:
        """Response consumed: dispatch the next queued request, if any."""
        self._active -= 1
        if self._queue and self.alive:
            self._dispatch(self._queue.pop(0))


class _CompletionLoop(Step):
    """Per-connection consumer of response CQEs.

    Polls (``CompletionQueue.busy_poll``) or blocks (``blocking_wait``)
    per the invoker's completion mode through one re-armed
    :class:`~repro.rdma.completion.CQWait`, then charges
    ``client_complete_ns`` per successful CQE on this Step before
    fulfilling its future -- the events a generator process running
    that loop would schedule.
    """

    __slots__ = ("invoker", "connection", "wait", "complete_ns", "wcs", "index")

    def __init__(self, invoker: "Invoker", connection: WorkerConnection) -> None:
        super().__init__(invoker.env, self._top)
        self.invoker = invoker
        self.connection = connection
        self.wait = CQWait(connection.qp.recv_cq, self._polled, 0, 16)
        #: Client-side cost of one response (the config is frozen).
        self.complete_ns = invoker.config.timings.client_complete_ns
        #: The CQEs of the last poll and the next one to complete.
        self.wcs: list = []
        self.index = 0
        self.start()

    def _top(self) -> None:
        if not self.connection.alive:
            self.step = self.wait = None
            self.end()
            return
        wait = self.wait
        model = wait.cq.nic.model
        if self.invoker.completion_mode == "polling":
            wait.detect_ns = model.poll_detect_ns
        else:
            wait.detect_ns = model.blocking_notify_ns
        wait.wait()

    def _polled(self, wcs: list) -> None:
        self.wcs = wcs
        self.index = 0
        self._next_wc()

    def _next_wc(self) -> None:
        wcs = self.wcs
        while self.index < len(wcs):
            if wcs[self.index].status is WCStatus.SUCCESS:
                self.step = self._complete
                self.env.schedule_timeout(self, self.complete_ns)
                return
            self.index += 1
        self._top()

    def _complete(self) -> None:
        wc = self.wcs[self.index]
        self.index += 1
        self.invoker._on_response(self.connection, wc)
        self._next_wc()


class _ManagerClient:
    """Demuxed RPC client: responses by id, notifications to the invoker.

    The demux is the connection's serve loop
    (:meth:`RpcConnection.serve`) with a handler that answers nothing.
    """

    def __init__(self, invoker: "Invoker", conn: RpcConnection) -> None:
        self.invoker = invoker
        self.conn = conn
        self._pending: dict[int, Any] = {}
        #: Request ids, drawn per client: each id is pickled into its
        #: request, so a process-wide stream would make message sizes
        #: (and simulated times) depend on what earlier runs issued.
        self._rpc_ids = count(1)
        conn.serve(self._dispatch)

    def request(self, message: dict):
        """Generator: RPC call routed through the demux loop."""
        rpc_id = next(self._rpc_ids)
        message = dict(message)
        message["_rpc_id"] = rpc_id
        event = self.invoker.env.event()
        self._pending[rpc_id] = event
        self.conn.notify(message)
        response = yield event
        return response

    def _dispatch(self, message: Any, _conn: RpcConnection) -> None:
        rpc_id = message.get("_rpc_id") if isinstance(message, dict) else None
        event = self._pending.pop(rpc_id, None) if rpc_id is not None else None
        if event is not None:
            event.succeed(message)
        else:
            self.invoker._on_notification(message)


class Invoker:
    """The client endpoint of rFaaS."""

    def __init__(
        self,
        nic: "NIC",
        managers: list[tuple[str, int]],
        config: Optional[RFaaSConfig] = None,
        name: Optional[str] = None,
        package_registry: Optional[dict[str, CodePackage]] = None,
        completion_mode: str = "polling",
    ) -> None:
        if completion_mode not in ("polling", "blocking"):
            raise ValueError(f"unknown completion mode {completion_mode!r}")
        self.nic = nic
        self.env: "Environment" = nic.env
        self.managers = list(managers)
        self.config = config or RFaaSConfig()
        self.name = name or f"client-{nic.name}"
        self.package_registry = package_registry if package_registry is not None else {}
        self.completion_mode = completion_mode
        self.connections: list[WorkerConnection] = []
        self.leases: dict[int, Lease] = {}
        self._manager_clients: dict[tuple[str, int], _ManagerClient] = {}
        self._manager_rr = 0
        self._package: Optional[CodePackage] = None
        self.terminated_leases: list[int] = []
        install_cm(nic)

    # -- buffers -------------------------------------------------------------

    def alloc_input(self, payload_capacity: int, *, virtual: bool = False) -> ClientBuffer:
        """An input buffer with room for the 12-byte header."""
        block = self.nic.alloc(protocol.HEADER_BYTES + payload_capacity, virtual=virtual)
        mr = self.nic.create_pd().register(block, Access.LOCAL_WRITE)
        return ClientBuffer(mr, is_input=True)

    def alloc_output(self, capacity: int, *, virtual: bool = False) -> ClientBuffer:
        """An output buffer the remote worker writes results into."""
        block = self.nic.alloc(max(capacity, 1), virtual=virtual)
        mr = self.nic.create_pd().register(block, _OUTPUT_ACCESS)
        return ClientBuffer(mr, is_input=False)

    # -- allocation (cold path) --------------------------------------------------

    def allocate(
        self,
        package: CodePackage,
        workers: int = 1,
        memory_bytes: int = 1 << 30,
        sandbox: str = "bare-metal",
        hot_timeout_ns: Optional[int] = "default",  # type: ignore[assignment]
        timeout_ns: Optional[int] = None,
        worker_buffer_bytes: Optional[int] = None,
        virtual_buffers: Optional[bool] = None,
    ):
        """Process generator: acquire a lease and spin up *workers*.

        Returns a :class:`ColdStartBreakdown`; the new worker
        connections are appended to :attr:`connections`.
        """
        env = self.env
        breakdown = ColdStartBreakdown()
        self._package = package
        self.package_registry[package.name] = package
        if hot_timeout_ns == "default":
            hot_timeout_ns = self.config.hot_timeout_ns

        # 1. Manager connection (cached across allocations).
        t0 = env.now
        manager_client, lease_response = yield from self._acquire_lease(
            workers, memory_bytes, timeout_ns, breakdown
        )
        if lease_response.get("type") != "lease_granted":
            raise AllocationError(lease_response.get("error", "lease denied"))

        lease = Lease(
            client=self.name,
            executor_host=lease_response["executor_host"],
            executor_port=lease_response["executor_port"],
            cores=workers,
            memory_bytes=memory_bytes,
            issued_ns=env.now,
            timeout_ns=lease_response["timeout_ns"],
            billing_addr=lease_response["billing_addr"],
            billing_rkey=lease_response["billing_rkey"],
            manager_host=lease_response.get("executor_name", ""),
        )
        # Adopt the manager-assigned id so both sides agree.
        lease.lease_id = lease_response["lease_id"]
        lease_token = lease_response.get("token", "")
        self.leases[lease.lease_id] = lease

        # 2. Connect to the executor's lightweight allocator.
        t2 = env.now
        allocator_conn = yield from rpc_connect(self.nic, lease.executor_host, lease.executor_port)
        breakdown.connect_allocator = env.now - t2

        # 3. Submit allocation + code; the executor creates the sandbox.
        t3 = env.now
        response = yield from allocator_conn.call(
            {
                "type": "allocate",
                "lease_id": lease.lease_id,
                "token": lease_token,
                "tenant": self.name,
                "workers": workers,
                "memory_bytes": memory_bytes,
                "sandbox": sandbox,
                "package": package.name,
                "code_padding": bytes(min(package.size_bytes, 48 * 1024)),
                "billing_addr": lease.billing_addr,
                "billing_rkey": lease.billing_rkey,
                "hot_timeout_ns": hot_timeout_ns,
                "buffer_bytes": worker_buffer_bytes,
                "virtual_buffers": virtual_buffers,
            }
        )
        if response is None or "error" in response:
            raise AllocationError((response or {}).get("error", "allocation failed"))
        wall = env.now - t3
        breakdown.spawn_workers = response["spawn_ns"]
        breakdown.submit_code = wall - response["spawn_ns"]

        # 4. Direct connections to every worker thread.
        t4 = env.now
        for worker_port in response["worker_ports"]:
            pd = self.nic.create_pd()
            cq = self.nic.create_cq(name="client.worker")
            qp = self.nic.create_qp(pd, cq)
            result = yield from self.nic.cm.connect(
                lease.executor_host, worker_port, qp, private_data={"client": self.name}
            )
            scratch = pd.register(self.nic.alloc(64), Access.LOCAL_WRITE)
            connection = WorkerConnection(
                invoker=self,
                lease=lease,
                qp=qp,
                settings=result.private_data,
                scratch_mr=scratch,
                package=package,
            )
            self.connections.append(connection)
            _CompletionLoop(self, connection)
        breakdown.connect_workers = env.now - t4
        return breakdown

    def _acquire_lease(self, workers, memory_bytes, timeout_ns, breakdown):
        """Try managers round-robin until one grants a lease."""
        env = self.env
        if not self.managers:
            raise AllocationError("no resource managers configured")
        client = None
        last_error = "lease denied"
        for step in range(len(self.managers)):
            address = self.managers[(self._manager_rr + step) % len(self.managers)]
            t0 = env.now
            client = self._manager_clients.get(address)
            if client is None:
                try:
                    conn = yield from rpc_connect(self.nic, address[0], address[1])
                except ConnectionRefused:
                    # Dead/unreachable manager replica: fail over to the
                    # next one (Sec. III-D horizontal scaling).
                    last_error = f"manager {address[0]}:{address[1]} unreachable"
                    continue
                client = _ManagerClient(self, conn)
                self._manager_clients[address] = client
            breakdown.connect_manager += env.now - t0
            t1 = env.now
            response = yield from client.request(
                {
                    "type": "lease_request",
                    "client": self.name,
                    "cores": workers,
                    "memory_bytes": memory_bytes,
                    "timeout_ns": timeout_ns,
                }
            )
            breakdown.lease_grant += env.now - t1
            if response.get("type") == "lease_granted":
                self._manager_rr = (self._manager_rr + step + 1) % len(self.managers)
                return client, response
            last_error = response.get("error", "lease denied")
        return client, {"type": "lease_denied", "error": last_error}

    # -- invocation (hot path) ------------------------------------------------------

    def submit(
        self,
        fn: str | int,
        in_buf: ClientBuffer,
        size: int,
        out_buf: ClientBuffer,
        worker: Optional[int] = None,
    ) -> RemoteFuture:
        """Dispatch one invocation; returns a :class:`RemoteFuture`.

        ``worker`` selects a specific connection index; by default the
        connection with the fewest outstanding invocations among those
        whose package contains *fn* wins.
        """
        if self._package is None:
            raise RFaaSError("no package allocated; call allocate() first")
        future = RemoteFuture(self, fn, in_buf, size, out_buf)
        connection = self._pick_connection(worker, exclude=(), fn=fn)
        if connection is None:
            raise LeaseExpired("no live worker connections serve this function")
        connection.submit(future)
        return future

    def _pick_connection(
        self, worker: Optional[int], exclude, fn: "str | int | None" = None
    ) -> Optional[WorkerConnection]:
        if worker is not None:
            return self.connections[worker]
        # The least-loaded live connection serving fn; the first one
        # wins ties.  The load comparison goes first: it is the
        # cheapest test, and the order of these pure tests does not
        # change which connection wins.
        best = None
        for c in self.connections:
            if (
                (best is None or c.inflight < best.inflight)
                and c.alive
                and c._worker_id not in exclude
                and (fn is None or c.serves(fn))
            ):
                best = c
        return best

    def _on_response(self, connection: WorkerConnection, wc) -> None:
        """Fulfil (or redirect) the future a response CQE answers."""
        invocation_id, status = protocol.unpack_response_imm(wc.imm_data or 0)
        future = connection.futures.pop(invocation_id, None)
        if future is None:
            return
        wr = future._send_wr
        if wr is not None:
            future._send_wr = None
            connection._send_pool.append(wr)
        connection.inflight -= 1
        connection._completed_one()
        if status == protocol.STATUS_REJECTED:
            self._redirect(future)
            return
        result = InvocationResult(
            status=status,
            output_size=wc.byte_len,
            output_buffer=future.out_buf,
            submitted_ns=future.submitted_ns,
            completed_ns=self.env._now,
        )
        if status == protocol.STATUS_OK:
            future.event.succeed(result)
        else:
            error = (
                InvocationRejected("function not found")
                if status == protocol.STATUS_FUNCTION_NOT_FOUND
                else RFaaSError(f"invocation failed with status {status}")
            )
            future.event.defuse()
            future.event.fail(error)

    def _redirect(self, future: RemoteFuture) -> None:
        """Fig. 6: resubmit a rejected invocation to another executor."""
        if future.abandoned:
            return  # deadline already passed; don't waste a worker
        future.redirects += 1
        connection = self._pick_connection(
            None, exclude=tuple(future.tried_workers), fn=future.fn
        )
        if connection is None:
            future.event.defuse()
            future.event.fail(InvocationRejected("all executors rejected the invocation"))
            return
        connection.submit(future)

    def invoke(self, fn: str | int, payload: bytes, out_capacity: Optional[int] = None):
        """Generator convenience: allocate buffers, submit, wait, return bytes."""
        in_buf = self.alloc_input(len(payload))
        in_buf.write(payload)
        out_buf = self.alloc_output(out_capacity or max(len(payload), 64))
        future = self.submit(fn, in_buf, len(payload), out_buf)
        result = yield future.wait()
        return result.output()

    def map(self, fn: str | int, payloads: list[bytes], out_capacity: Optional[int] = None):
        """Generator: invoke *fn* once per payload, in parallel.

        The paper's parallel-invocation model (Sec. III-D): requests are
        dispatched simultaneously across the cached worker connections
        (least-loaded first) and the results return in payload order.
        """
        futures: list[RemoteFuture] = []
        for payload in payloads:
            in_buf = self.alloc_input(len(payload))
            in_buf.write(payload)
            out_buf = self.alloc_output(out_capacity or max(len(payload), 64))
            futures.append(self.submit(fn, in_buf, len(payload), out_buf))
        outputs: list[bytes] = []
        for future in futures:
            result = yield future.wait()
            outputs.append(result.output())
        return outputs

    def scale_to(
        self,
        package: CodePackage,
        workers: int,
        *,
        memory_bytes: int = 1 << 30,
        sandbox: str = "bare-metal",
        **allocate_kwargs,
    ):
        """Generator: grow the worker pool to (at least) *workers*.

        "The user requests how many function instances should be used,
        and the client library manages lease allocations to reach the
        desired scale" (Sec. III-D) -- missing capacity is leased in
        chunks that the managers can place, spilling across executors.
        """
        current = sum(
            1 for c in self.connections if c.alive and c.package is package
        ) or sum(1 for c in self.connections if c.alive and c.package and c.package.name == package.name)
        deficit = workers - current
        chunk = deficit
        while deficit > 0:
            try:
                yield from self.allocate(
                    package,
                    workers=chunk,
                    memory_bytes=memory_bytes,
                    sandbox=sandbox,
                    **allocate_kwargs,
                )
                deficit -= chunk
                chunk = deficit
            except AllocationError:
                if chunk == 1:
                    raise
                chunk = max(1, chunk // 2)  # no single executor fits: split
        return self.live_workers

    def renew_lease(self, lease_id: int, timeout_ns: Optional[int] = None):
        """Generator: extend an active lease before it expires.

        Keeps warmed-up executors across long sessions (the lease clock
        restarts from now).  Raises :class:`LeaseExpired` if the manager
        no longer considers the lease active.
        """
        lease = self.leases.get(lease_id)
        if lease is None:
            raise LeaseExpired(f"unknown lease {lease_id}")
        for client in self._manager_clients.values():
            response = yield from client.request(
                {"type": "lease_renew", "lease_id": lease_id, "timeout_ns": timeout_ns}
            )
            if response.get("type") == "lease_renewed":
                lease.renew(self.env.now, timeout_ns)
                return response["expiry_ns"]
        raise LeaseExpired(f"no manager renewed lease {lease_id}")

    # -- teardown & notifications --------------------------------------------------

    def deallocate(self):
        """Process generator: release every lease and connection."""
        for lease in list(self.leases.values()):
            if lease.state is not LeaseState.ACTIVE:
                continue
            conn = yield from rpc_connect(self.nic, lease.executor_host, lease.executor_port)
            yield from conn.call({"type": "deallocate", "lease_id": lease.lease_id})
            for address, client in self._manager_clients.items():
                response = yield from client.request(
                    {"type": "lease_release", "lease_id": lease.lease_id}
                )
                if response.get("type") == "lease_released":
                    break
            lease.release()
        for connection in self.connections:
            connection.alive = False
        self.connections.clear()

    def _on_notification(self, message: dict) -> None:
        if message.get("type") == "lease_terminated":
            lease_id = message["lease_id"]
            self.terminated_leases.append(lease_id)
            lease = self.leases.get(lease_id)
            if lease is not None:
                lease.terminate()
            for connection in self.connections:
                if connection.lease.lease_id == lease_id:
                    connection.alive = False
                    doomed = list(connection.futures.values()) + connection._queue
                    for future in doomed:
                        if not future.event.triggered:
                            future.event.defuse()
                            future.event.fail(LeaseExpired(message.get("reason", "terminated")))
                    connection.futures.clear()
                    connection._queue.clear()

    @property
    def live_workers(self) -> int:
        return sum(1 for connection in self.connections if connection.alive)
