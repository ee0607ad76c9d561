"""The spot executor: a lightweight allocator on an idle node.

Responsibilities (Sec. III-A): accept client connections, create
isolated execution contexts (sandboxes) with RDMA-capable executor
processes, remove processes idle too long or past their lease, and
account resource consumption into the manager's billing database via
RDMA fetch-and-add.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.cluster.node import Node, NodeClaim
from repro.core import billing as billing_mod
from repro.core.config import RFaaSConfig
from repro.core.functions import CodePackage
from repro.core.rpc import RpcConnection, rpc_connect, rpc_listen
from repro.core.sandbox import SANDBOX_PROFILES, SandboxProfile
from repro.core.worker import Worker
from repro.rdma.cm import install_cm
from repro.rdma.constants import Access, Opcode
from repro.rdma.verbs import SendWR, sge
from repro.sim.clock import secs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


@dataclass
class Allocation:
    """One active lease's materialization on this executor."""

    lease_id: int
    tenant: str
    sandbox: SandboxProfile
    workers: list[Worker] = field(default_factory=list)
    claim: Optional[NodeClaim] = None
    billing_addr: int = 0
    billing_rkey: int = 0
    manager_host: str = ""
    started_ns: int = 0
    memory_bytes: int = 0
    #: Billing already flushed to the manager (to compute deltas).
    flushed_alloc_bs: int = 0
    flushed_compute_ns: int = 0
    flushed_hotpoll_ns: int = 0
    torn_down: bool = False


class SpotExecutor:
    """One idle node offered to rFaaS (Fig. 4's spot executor)."""

    ALLOCATOR_PORT = 10_000
    WORKER_PORT_BASE = 20_000

    def __init__(
        self,
        node: Node,
        config: Optional[RFaaSConfig] = None,
        name: Optional[str] = None,
        port: int = ALLOCATOR_PORT,
    ) -> None:
        if node.nic is None:
            raise ValueError("spot executor nodes need an RDMA NIC")
        self.node = node
        self.env: "Environment" = node.env
        self.nic = node.nic
        self.config = config or RFaaSConfig()
        self.name = name or node.name
        self.port = port
        self.alive = True
        self.allocations: dict[int, Allocation] = {}
        self._next_worker_port = self.WORKER_PORT_BASE
        self._manager_conn: Optional[RpcConnection] = None
        self._atomic_scratch = None
        #: Plain-dict "Docker registry" of deployable packages.
        self.package_registry: dict[str, CodePackage] = {}
        install_cm(self.nic)
        self._listener = rpc_listen(self.nic, port, self._handle_rpc, name=f"{self.name}-allocator")
        self._reaper = self.env.process(self._idle_reaper(), name=f"{self.name}-reaper")
        #: Ready generic sandboxes (Sec. V-B warm pool).
        self.warm_pool = 0
        self.pool_hits = 0
        self.pool_misses = 0
        if self.config.warm_pool_size > 0:
            self.env.process(
                self._fill_pool(self.config.warm_pool_size), name=f"{self.name}-pool"
            )

    # -- capacity ---------------------------------------------------------

    @property
    def free_cores(self) -> int:
        return self.node.free_cores

    @property
    def free_memory(self) -> int:
        return self.node.free_memory

    @property
    def oversubscribed(self) -> bool:
        """More live workers than physical cores on the node."""
        live = sum(len(a.workers) for a in self.allocations.values() if not a.torn_down)
        return live > self.node.spec.cores

    def try_claim_core(self) -> Optional[NodeClaim]:
        """Warm-path resource check: grab a core for one execution."""
        return self.node.try_claim(1, 0) if self.node.free_cores > 0 else None

    # -- manager registration ----------------------------------------------

    def register_with(self, manager_host: str, manager_port: int):
        """Process generator: announce this executor to a manager."""
        conn = yield from rpc_connect(self.nic, manager_host, manager_port)
        self._manager_conn = conn
        response = yield from conn.call(
            {
                "type": "register_executor",
                "host": self.nic.name,
                "port": self.port,
                "name": self.name,
                "cores": self.node.spec.cores,
                "memory_bytes": self.node.spec.memory_bytes,
            }
        )
        if self._atomic_scratch is None:
            pd = conn.qp.pd
            self._atomic_scratch = pd.register(self.nic.alloc(64), Access.LOCAL_WRITE)
        return response

    # -- the allocator RPC surface ----------------------------------------------

    def _handle_rpc(self, message: Any, connection: RpcConnection):
        """Dispatch incoming control messages (generator handler)."""
        if not self.alive:
            return None  # dead executors answer nothing
        kind = message.get("type")
        if kind == "allocate":
            return self._do_allocate(message)
        if kind == "deallocate":
            return self._do_deallocate(message)
        if kind == "lease_expired":
            return self._do_lease_expired(message)
        if kind == "ping":
            return self._do_ping(message)
        return iter_return({"error": f"unknown message type {kind!r}"})

    def _do_ping(self, message: Any):
        yield self.env.timeout(0)
        if not self.alive:
            return None
        return {"type": "pong", "name": self.name, "allocations": len(self.allocations)}

    def _do_allocate(self, message: Any):
        """Cold-start path: sandbox + worker creation (Fig. 9)."""
        env = self.env
        cfg = self.config
        yield env.timeout(cfg.timings.allocator_decision_ns)

        workers_requested = int(message["workers"])
        memory_bytes = int(message["memory_bytes"])
        # Lease authentication (Sec. III-E): the manager MAC-signed the
        # lease over exactly these parameters; forged or inflated
        # leases fail verification against the cluster secret.
        from repro.core.leases import verify_lease_token

        if not verify_lease_token(
            cfg.cluster_secret,
            message.get("token", ""),
            int(message["lease_id"]),
            message.get("tenant", "anonymous"),
            workers_requested,
            memory_bytes,
        ):
            return {"error": "lease authentication failed"}
        sandbox = SANDBOX_PROFILES[message.get("sandbox", "bare-metal")]
        package = self.package_registry.get(message["package"])
        if package is None:
            return {"error": f"package {message['package']!r} not in registry"}
        if workers_requested <= 0:
            return {"error": "workers must be positive"}
        # Fresh sandbox state per allocation (stateful packages rebuild).
        package = package.fresh()

        claim = self.node.try_claim(
            0 if cfg.allow_oversubscription else workers_requested, memory_bytes
        )
        if claim is None:
            return {"error": "insufficient resources on spot executor"}

        submit_code_started = env.now

        allocation = Allocation(
            lease_id=int(message["lease_id"]),
            tenant=message.get("tenant", "anonymous"),
            sandbox=sandbox,
            claim=claim,
            billing_addr=int(message.get("billing_addr", 0)),
            billing_rkey=int(message.get("billing_rkey", 0)),
            started_ns=env.now,
            memory_bytes=memory_bytes,
        )

        # "Code submission": the shared library has already crossed the
        # wire inside this request's padding; charge install/link time.
        yield env.timeout(
            cfg.timings.code_install_base_ns
            + secs(package.size_bytes / cfg.timings.code_install_bytes_per_sec)
        )
        submit_code_ns = env.now - submit_code_started

        # Sandbox + worker creation: the dominant cold-start cost.
        # A matching pre-booted sandbox from the warm pool bypasses the
        # container boot (Sec. V-B); a replacement boots in background.
        spawn_started = env.now
        if sandbox.name == self.config.warm_pool_sandbox and self.warm_pool > 0:
            self.warm_pool -= 1
            self.pool_hits += 1
            env.process(self._fill_pool(1), name=f"{self.name}-pool-refill")
            yield env.timeout(sandbox.pool_spawn_ns(workers_requested))
        else:
            if self.config.warm_pool_size > 0 and sandbox.name == self.config.warm_pool_sandbox:
                self.pool_misses += 1
            yield env.timeout(sandbox.spawn_ns(workers_requested))
        hot_timeout = message.get("hot_timeout_ns", cfg.hot_timeout_ns)
        buffer_bytes = message.get("buffer_bytes") or cfg.worker_buffer_bytes
        virtual_buffers = message.get("virtual_buffers")
        worker_ports = []
        for _ in range(workers_requested):
            worker_id = self._next_worker_port
            self._next_worker_port += 1
            worker = Worker(
                executor=self,
                allocation=allocation,
                worker_id=worker_id,
                package=package,
                sandbox=sandbox,
                config=cfg,
                hot_timeout_ns=hot_timeout,
                buffer_bytes=buffer_bytes,
                virtual_buffers=virtual_buffers,
            )
            allocation.workers.append(worker)
            self._listen_for_worker(worker)
            worker.start()
            worker_ports.append(worker_id)
        spawn_ns = env.now - spawn_started

        self.allocations[allocation.lease_id] = allocation
        return {
            "type": "allocated",
            "lease_id": allocation.lease_id,
            "worker_ports": worker_ports,
            "sandbox": sandbox.name,
            "submit_code_ns": submit_code_ns,
            "spawn_ns": spawn_ns,
        }

    def _listen_for_worker(self, worker: Worker) -> None:
        """CM listener handing the worker's QP to the connecting client."""
        listener = self.nic.cm.listen(worker.worker_id)

        def acceptor():
            request = yield listener.get_request()
            listener.accept(request, worker.qp, private_data=worker.connection_settings())
            listener.close()

        self.env.process(acceptor(), name=f"{self.name}-w{worker.worker_id}-accept")

    def _do_lease_expired(self, message: Any):
        """Manager-driven reclamation of an expired lease (one-way)."""
        allocation = self.allocations.get(int(message["lease_id"]))
        if allocation is not None:
            yield from self._teardown(allocation)
        return None

    def _do_deallocate(self, message: Any):
        lease_id = int(message["lease_id"])
        allocation = self.allocations.get(lease_id)
        if allocation is None:
            yield self.env.timeout(0)
            return {"error": f"unknown lease {lease_id}"}
        yield from self._teardown(allocation)
        return {"type": "deallocated", "lease_id": lease_id}

    # -- teardown, reclamation, billing -----------------------------------------

    def _teardown(self, allocation: Allocation):
        if allocation.torn_down:
            return
        allocation.torn_down = True
        for worker in allocation.workers:
            worker.kill()
        yield self.env.timeout(allocation.sandbox.teardown_ns)
        yield from self._flush_billing(allocation, final=True)
        if allocation.claim is not None:
            allocation.claim.release()
        # Schedules nothing: only host memory is returned (see
        # Worker.release_buffers for why late writes are unaffected).
        for worker in allocation.workers:
            worker.release_buffers()
        self.allocations.pop(allocation.lease_id, None)
        # Announce freed resources so the manager reuses them (Sec. III-B).
        if self._manager_conn is not None and self._manager_conn.alive and self.alive:
            self._manager_conn.notify(
                {"type": "resources_freed", "name": self.name, "lease_id": allocation.lease_id}
            )

    def _flush_billing(self, allocation: Allocation, final: bool = False):
        """Push accounting deltas with RDMA fetch-and-add (Sec. IV-C)."""
        if (
            self._manager_conn is None
            or not self._manager_conn.alive
            or allocation.billing_addr == 0
            or self._atomic_scratch is None
        ):
            return
        env = self.env
        alloc_ns = env.now - allocation.started_ns
        alloc_bs = round(allocation.memory_bytes * alloc_ns / 1e9)
        compute_ns = sum(w.stats.busy_ns for w in allocation.workers)
        hotpoll_ns = sum(w.stats.hotpoll_ns for w in allocation.workers)
        deltas = (
            (billing_mod.SLOT_ALLOCATION, alloc_bs - allocation.flushed_alloc_bs),
            (billing_mod.SLOT_COMPUTE, compute_ns - allocation.flushed_compute_ns),
            (billing_mod.SLOT_HOTPOLL, hotpoll_ns - allocation.flushed_hotpoll_ns),
        )
        qp = self._manager_conn.qp
        send_cq = qp.send_cq
        for slot, delta in deltas:
            if delta <= 0:
                continue
            qp.post_send(
                SendWR(
                    opcode=Opcode.ATOMIC_FETCH_ADD,
                    local=sge(self._atomic_scratch, 0, 8),
                    remote_addr=allocation.billing_addr + 8 * slot,
                    rkey=allocation.billing_rkey,
                    compare_add=delta,
                )
            )
            yield from send_cq.busy_poll(max_entries=1)
        allocation.flushed_alloc_bs = alloc_bs
        allocation.flushed_compute_ns = compute_ns
        allocation.flushed_hotpoll_ns = hotpoll_ns

    def _fill_pool(self, count: int):
        """Boot *count* generic sandboxes into the warm pool."""
        from repro.sim.process import Interrupt

        profile = SANDBOX_PROFILES[self.config.warm_pool_sandbox]
        try:
            for _ in range(count):
                if not self.alive:
                    return
                yield self.env.timeout(profile.spawn_base_ns)
                self.warm_pool += 1
        except Interrupt:
            return

    def _idle_reaper(self):
        """Remove executor processes idle beyond the configured limit."""
        from repro.sim.process import Interrupt

        env = self.env
        interval = max(1, self.config.executor_idle_timeout_ns // 4)
        try:
            while self.alive:
                yield env.timeout(interval)
                for allocation in list(self.allocations.values()):
                    if allocation.torn_down or not allocation.workers:
                        continue
                    idle = min(worker.idle_ns for worker in allocation.workers)
                    if idle >= self.config.executor_idle_timeout_ns:
                        yield from self._teardown(allocation)
        except Interrupt:
            return

    # -- graceful retirement (resource reclamation) -----------------------------

    def retire(self):
        """Process generator: give the node back gracefully.

        The batch system wants this node (Sec. II-A: reclaimed resources
        must be "transient and easily retrievable"): tear every
        allocation down (flushing billing), tell the manager to stop
        offering this executor, and stop serving.
        """
        for allocation in list(self.allocations.values()):
            yield from self._teardown(allocation)
        if self._manager_conn is not None and self._manager_conn.alive:
            self._manager_conn.notify({"type": "deregister_executor", "name": self.name})
        self.alive = False
        if self._reaper.is_alive:
            self._reaper.interrupt("executor retired")
        self._listener.close()

    # -- failure injection ----------------------------------------------------

    def kill(self) -> None:
        """Simulate node failure: workers die, RPCs go unanswered."""
        self.alive = False
        for allocation in self.allocations.values():
            for worker in allocation.workers:
                worker.kill()
        if self._reaper.is_alive:
            self._reaper.interrupt("executor killed")
        self._listener.close()


def iter_return(value):
    """A generator that immediately returns *value* (handler helper)."""
    return value
    yield  # pragma: no cover - makes this a generator
