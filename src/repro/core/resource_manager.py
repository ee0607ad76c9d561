"""The resource manager: leases, heartbeats, billing, replication.

The manager is involved **only at cold start** (Sec. III-B): it grants
leases over its pool of spot executors and gets out of the invocation
path.  It heartbeats its executors (Sec. III-A) and, when one dies,
terminates its leases and announces the termination to the affected
clients for fast reclamation.  Deployments replicate managers by giving
each a disjoint slice of executors (Sec. III-D, horizontal scaling);
the client library round-robins across them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Any, Optional

from repro.core.billing import BillingDatabase
from repro.core.config import RFaaSConfig
from repro.core.leases import Lease, LeaseState, sign_lease
from repro.core.placement import RoundRobinFirstFit
from repro.core.rpc import RpcConnection, rpc_connect, rpc_listen
from repro.sim.events import AnyOf, Step

#: Lease-id namespaces of replicated managers are spaced this far
#: apart, so ids stay unique across a deployment without any shared
#: counter (managers are independent by design, Sec. III-D).
LEASE_NAMESPACE_STRIDE = 1 << 40

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdma.device import NIC
    from repro.sim.core import Environment


@dataclass
class ExecutorRecord:
    """Manager-side view of one registered spot executor."""

    name: str
    host: str
    port: int
    cores: int
    memory_bytes: int
    free_cores: int
    free_memory: int
    alive: bool = True
    missed_heartbeats: int = 0
    conn: Optional[RpcConnection] = None
    leases: list[Lease] = field(default_factory=list)


class ResourceManager:
    """One resource-manager instance."""

    MANAGER_PORT = 9_000

    def __init__(
        self,
        nic: "NIC",
        config: Optional[RFaaSConfig] = None,
        port: int = MANAGER_PORT,
        name: Optional[str] = None,
        lease_namespace: int = 0,
    ) -> None:
        self.nic = nic
        self.env: "Environment" = nic.env
        self.config = config or RFaaSConfig()
        self.port = port
        self.name = name or f"manager-{nic.name}"
        self.billing = BillingDatabase(nic)
        self.executors: dict[str, ExecutorRecord] = {}
        self.placement = RoundRobinFirstFit()
        #: Manager-local lease ids: deterministic across repeated runs
        #: in one process (the module-global counter they replace made
        #: back-to-back runs fingerprint differently), unique across
        #: replicated managers via disjoint namespaces.
        self._lease_ids = count(lease_namespace * LEASE_NAMESPACE_STRIDE + 1)
        self.leases: dict[int, Lease] = {}
        #: lease id -> hosting record, so release is O(1) instead of a
        #: scan over every executor's lease list.
        self._lease_records: dict[int, ExecutorRecord] = {}
        #: client name -> RpcConnection, for termination announcements.
        self._client_conns: dict[str, RpcConnection] = {}
        self.alive = True
        self._listener = rpc_listen(nic, port, self._handle_rpc)
        self._heartbeater = self.env.process(self._heartbeat_loop(), name=f"{self.name}-hb")

    # -- RPC dispatch -------------------------------------------------------

    def _handle_rpc(self, message: Any, connection: RpcConnection):
        kind = message.get("type")
        if kind == "register_executor":
            return self._do_register(message, connection)
        if kind == "lease_request":
            return self._do_lease(message, connection)
        if kind == "lease_release":
            return self._do_release(message)
        if kind == "lease_renew":
            return self._do_renew(message)
        if kind == "resources_freed":
            self._on_resources_freed(message)
            return None  # one-way
        if kind == "deregister_executor":
            record = self.executors.get(message.get("name", ""))
            if record is not None:
                self._declare_dead(record, reason="retired")
            return None  # one-way
        if kind == "billing_query":
            return {"account": self.billing.read_account(message["tenant"]).__dict__}
        return {"error": f"unknown message type {kind!r}"}

    # -- executor registration & heartbeats ------------------------------------

    @property
    def _rr_index(self) -> int:
        return self.placement.rr_index

    @_rr_index.setter
    def _rr_index(self, value: int) -> None:
        self.placement.rr_index = value

    def _do_register(self, message: Any, connection: RpcConnection):
        record = self.register_record(
            name=message["name"],
            host=message["host"],
            port=message["port"],
            cores=message["cores"],
            memory_bytes=message["memory_bytes"],
        )
        # Connect back for heartbeats (manager -> executor pings).
        yield from self._connect_executor(record)
        return {"type": "registered", "manager": self.name}

    def register_record(
        self, name: str, host: str, port: int, cores: int, memory_bytes: int
    ) -> ExecutorRecord:
        """Adopt an executor without the RPC handshake.

        Scale harnesses (``repro.experiments.control``) register
        thousands of executors this way; ``conn`` stays ``None`` so the
        heartbeat loop skips them and churn is driven explicitly.
        """
        record = ExecutorRecord(
            name=name,
            host=host,
            port=port,
            cores=cores,
            memory_bytes=memory_bytes,
            free_cores=cores,
            free_memory=memory_bytes,
        )
        self.executors[name] = record
        self.placement.invalidate()
        return record

    def revive_executor(self, name: str) -> ExecutorRecord:
        """A previously dead executor is back, at full capacity.

        Its leases were all terminated at death (``_declare_dead``
        cleared them without returning capacity), so the free counters
        reset to the full envelope.
        """
        record = self.executors[name]
        if record.alive:
            raise ValueError(f"executor {name} is already alive")
        record.alive = True
        record.missed_heartbeats = 0
        record.free_cores = record.cores
        record.free_memory = record.memory_bytes
        return record

    def _connect_executor(self, record: ExecutorRecord):
        record.conn = yield from rpc_connect(self.nic, record.host, record.port)

    def _heartbeat_loop(self):
        from repro.sim.process import Interrupt

        try:
            yield from self._heartbeat_loop_inner()
        except Interrupt:
            return

    def _heartbeat_loop_inner(self):
        env = self.env
        cfg = self.config
        while self.alive:
            yield env.timeout(cfg.heartbeat_interval_ns)
            for record in list(self.executors.values()):
                if not record.alive or record.conn is None:
                    continue
                response = yield from self._ping(record)
                if response is None:
                    record.missed_heartbeats += 1
                    if record.missed_heartbeats >= cfg.heartbeat_misses:
                        self._declare_dead(record)
                else:
                    record.missed_heartbeats = 0

    def _ping(self, record: ExecutorRecord):
        """One ping with timeout; returns the pong or None."""
        env = self.env
        record.conn.notify({"type": "ping"})
        arrival = record.conn.qp.recv_cq.arrival_event()
        deadline = env.timeout(self.config.heartbeat_interval_ns)
        yield AnyOf(env, [arrival, deadline])
        if not arrival.processed and len(record.conn.qp.recv_cq) == 0:
            return None
        response = yield from record.conn._receive(blocking=False)
        return response

    def _declare_dead(self, record: ExecutorRecord, reason: str = "failed") -> None:
        """Executor gone (failure or retirement): reclaim, terminate
        leases, announce to the affected clients."""
        record.alive = False
        for lease in record.leases:
            if lease.state is LeaseState.ACTIVE:
                lease.terminate()
                self.leases.pop(lease.lease_id, None)
                self._lease_records.pop(lease.lease_id, None)
                client_conn = self._client_conns.get(lease.client)
                if client_conn is not None and client_conn.alive:
                    client_conn.notify(
                        {
                            "type": "lease_terminated",
                            "lease_id": lease.lease_id,
                            "reason": f"executor {record.name} {reason}",
                        }
                    )
        record.leases.clear()

    # -- leases ------------------------------------------------------------------

    def _do_lease(self, message: Any, connection: RpcConnection):
        """Grant a lease: the only centralized step in rFaaS."""
        yield self.env.timeout(self.config.timings.manager_decision_ns)
        return self.grant_lease(message, connection)

    def grant_lease(self, message: Any, connection: RpcConnection):
        """The decision itself, after the manager's processing delay.

        Synchronous so harnesses that model the decision delay
        themselves (the control-plane reference driver) can call the
        real placement/billing/lease path directly.
        """
        env = self.env
        cfg = self.config
        client = message["client"]
        self._client_conns[client] = connection
        cores = int(message["cores"])
        memory_bytes = int(message["memory_bytes"])
        timeout_ns = int(message.get("timeout_ns") or cfg.lease_timeout_ns)

        record = self._pick_executor(cores, memory_bytes)
        if record is None:
            return {"type": "lease_denied", "error": "no executor with sufficient capacity"}

        billing_addr, billing_rkey = self.billing.open_account(client)
        lease = Lease(
            lease_id=next(self._lease_ids),
            client=client,
            executor_host=record.host,
            executor_port=record.port,
            cores=cores,
            memory_bytes=memory_bytes,
            issued_ns=env.now,
            timeout_ns=timeout_ns,
            billing_addr=billing_addr,
            billing_rkey=billing_rkey,
            manager_host=self.nic.name,
        )
        record.free_cores -= cores
        record.free_memory -= memory_bytes
        record.leases.append(lease)
        self.leases[lease.lease_id] = lease
        self._lease_records[lease.lease_id] = record
        _LeaseExpiry(self, lease, record)
        return {
            "type": "lease_granted",
            "token": sign_lease(
                cfg.cluster_secret, lease.lease_id, client, cores, memory_bytes
            ),
            "lease_id": lease.lease_id,
            "executor_host": record.host,
            "executor_port": record.port,
            "executor_name": record.name,
            "cores": cores,
            "memory_bytes": memory_bytes,
            "timeout_ns": timeout_ns,
            "billing_addr": billing_addr,
            "billing_rkey": billing_rkey,
        }

    def _pick_executor(self, cores: int, memory_bytes: int) -> Optional[ExecutorRecord]:
        """Round-robin over executors with capacity (Sec. III-D).

        Delegates to the pluggable policy; pick order and cursor
        movement are pinned by ``tests/core/test_placement.py`` so the
        vectorized control-plane kernel has an exact contract to match.
        """
        return self.placement.pick(
            self.executors, cores, memory_bytes, self.config.allow_oversubscription
        )

    def _expire(self, lease: Lease, record: ExecutorRecord) -> None:
        """*lease* ran past its (possibly renewed) expiry: reclaim it."""
        lease.expire()
        self._return_capacity(record, lease)
        client_conn = self._client_conns.get(lease.client)
        if client_conn is not None and client_conn.alive:
            client_conn.notify(
                {"type": "lease_terminated", "lease_id": lease.lease_id, "reason": "expired"}
            )
        # Fast resource reclamation: tell the executor to tear down too.
        if record.conn is not None and record.conn.alive and record.alive:
            record.conn.notify({"type": "lease_expired", "lease_id": lease.lease_id})

    def _do_renew(self, message: Any):
        """Extend an active lease (restarts its clock from now)."""
        lease = self.leases.get(int(message["lease_id"]))
        if lease is None or lease.state is not LeaseState.ACTIVE:
            return {"type": "renew_denied", "error": "lease not active"}
        timeout_ns = message.get("timeout_ns")
        lease.renew(self.env.now, int(timeout_ns) if timeout_ns else None)
        return {
            "type": "lease_renewed",
            "lease_id": lease.lease_id,
            "expiry_ns": lease.expiry_ns,
        }

    def _do_release(self, message: Any):
        lease = self.leases.get(int(message["lease_id"]))
        if lease is None:
            return {"error": "unknown lease"}
        lease.release()
        record = self._lease_records.get(lease.lease_id)
        if record is not None:
            self._return_capacity(record, lease)
        return {"type": "lease_released", "lease_id": lease.lease_id}

    def _return_capacity(self, record: ExecutorRecord, lease: Lease) -> None:
        if lease in record.leases:
            record.leases.remove(lease)
            self._lease_records.pop(lease.lease_id, None)
            record.free_cores += lease.cores
            record.free_memory += lease.memory_bytes

    def _on_resources_freed(self, message: Any) -> None:
        # Executor-side teardown finished; capacity is already returned
        # on release/expiry, so this is informational bookkeeping.
        record = self.executors.get(message.get("name", ""))
        if record is not None:
            record.missed_heartbeats = 0

    # -- introspection ----------------------------------------------------------

    def active_leases(self) -> list[Lease]:
        return [lease for lease in self.leases.values() if lease.state is LeaseState.ACTIVE]

    def kill(self) -> None:
        self.alive = False
        if self._heartbeater.is_alive:
            self._heartbeater.interrupt("manager killed")
        self._listener.close()


class _LeaseExpiry(Step):
    """Sleeps until a lease's expiry and reclaims it if still active.

    Renewals push ``expiry_ns`` forward, so a wake-up that finds the
    lease renewed sleeps again.  It schedules the events of the
    expiry process it replaces: its start, each sleep, its end.
    """

    __slots__ = ("manager", "lease", "record")

    def __init__(self, manager: ResourceManager, lease: Lease, record: ExecutorRecord) -> None:
        super().__init__(manager.env, self._sleep)
        self.manager = manager
        self.lease = lease
        self.record = record
        self.start()

    def _sleep(self) -> None:
        remaining = self.lease.expiry_ns - self.env._now
        if remaining > 0:
            self.step = self._woke
            self.env.schedule_timeout(self, remaining)
            return
        self._woke()

    def _woke(self) -> None:
        lease = self.lease
        if lease.state is not LeaseState.ACTIVE:
            self._end()
            return
        if self.env._now < lease.expiry_ns:
            self._sleep()
            return
        self.manager._expire(lease, self.record)
        self._end()

    def _end(self) -> None:
        self.step = None
        self.end()
