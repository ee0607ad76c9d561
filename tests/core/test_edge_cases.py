"""Edge cases and failure semantics across the control/data planes."""

import pytest

from repro.core import AllocationError, CodePackage, Deployment, FunctionSpec, RFaaSConfig
from repro.core.functions import echo_function
from repro.rdma import QPState
from repro.rdma.cm import install_cm
from repro.sim import GiB, ms, secs

from tests.core.conftest import make_package


def build(executors=1, config=None):
    dep = Deployment.build(executors=executors, clients=1, config=config)
    dep.settle()
    return dep


def test_allocate_unknown_package_fails():
    dep = build()
    inv = dep.new_invoker()
    package = make_package()
    # Simulate a registry miss: empty the shared registry after the
    # invoker publishes (e.g. a stale image reference).
    def driver():
        dep.package_registry.clear()

        class Phantom(CodePackage):
            pass

        phantom = make_package("ghost")
        # allocate() re-registers; remove it behind the client's back
        # by pointing the executor at a fresh dict.
        dep.executors[0].package_registry = {}
        with pytest.raises(AllocationError, match="not in registry"):
            yield from inv.allocate(phantom, workers=1)
        yield dep.env.timeout(1)

    dep.run(driver())


def test_double_deallocate_is_safe():
    dep = build()
    inv = dep.new_invoker()
    package = make_package()

    def driver():
        yield from inv.allocate(package, workers=1)
        yield from inv.deallocate()
        yield from inv.deallocate()  # second call: nothing active, no error
        return True

    assert dep.run(driver())


def test_zero_workers_rejected_by_executor():
    dep = build()
    inv = dep.new_invoker()
    package = make_package()

    def driver():
        with pytest.raises(AllocationError):
            yield from inv.allocate(package, workers=0)
        yield dep.env.timeout(1)

    dep.run(driver())


def test_memory_exhaustion_denied():
    dep = build()
    inv = dep.new_invoker()
    package = make_package()
    node_memory = dep.executors[0].node.spec.memory_bytes

    def driver():
        with pytest.raises(AllocationError):
            yield from inv.allocate(package, workers=1, memory_bytes=node_memory + GiB)
        yield dep.env.timeout(1)

    dep.run(driver())


def test_oversized_result_faults_worker_qp():
    """The 12-byte header carries no buffer length (faithful to the
    paper), so a function whose output exceeds the client's result
    buffer faults the worker QP with a remote access error -- the same
    failure a real deployment would see."""
    dep = build()
    inv = dep.new_invoker()
    package = CodePackage(name="big")
    package.add(FunctionSpec(name="inflate", handler=lambda d: d * 100))
    package.add(echo_function())

    def driver():
        yield from inv.allocate(package, workers=2)
        in_buf = inv.alloc_input(64)
        small_out = inv.alloc_output(16)  # too small for 100x payload
        in_buf.write(b"abcdefgh")
        future = inv.submit("inflate", in_buf, 8, small_out, worker=0)
        # The response write faults; the future never completes.
        yield dep.env.timeout(ms(1))
        assert not future.done
        worker_qp = dep.executors[0].allocations[
            next(iter(dep.executors[0].allocations))
        ].workers[0].qp
        assert worker_qp.state is QPState.ERR
        # Other workers are unaffected.
        out = yield from inv.invoke("echo", b"ok")
        return out

    assert dep.run(driver()) == b"ok"


def test_tenant_isolation_of_billing_accounts():
    dep = build(executors=2)
    inv_a = dep.new_invoker(name="tenant-a")
    inv_b = dep.new_invoker(name="tenant-b")
    package = make_package()

    def driver():
        yield from inv_a.allocate(package, workers=1)
        yield from inv_b.allocate(package, workers=1)
        for _ in range(5):
            yield from inv_a.invoke("double", b"\x01" * 64)
        yield from inv_b.invoke("echo", b"x")
        yield from inv_a.deallocate()
        yield from inv_b.deallocate()
        yield dep.env.timeout(ms(20))
        return None

    dep.run(driver())
    billing = dep.managers[0].billing
    account_a = billing.read_account("tenant-a")
    account_b = billing.read_account("tenant-b")
    # 5 costed invocations vs 1 free one: accounts must differ and
    # tenant-a must carry the compute time.
    assert account_a.compute_ns > account_b.compute_ns
    assert account_a.allocation_byte_seconds > 0
    assert account_b.allocation_byte_seconds > 0


def test_workers_isolated_between_allocations():
    """Two tenants on one executor: worker buffers are separate MRs, so
    one tenant's rkey cannot address the other's memory (PD boundary)."""
    dep = build()
    inv_a = dep.new_invoker(name="a")
    inv_b = dep.new_invoker(name="b")
    package = make_package()

    def driver():
        yield from inv_a.allocate(package, workers=1)
        yield from inv_b.allocate(package, workers=1)
        conn_a = inv_a.connections[0]
        conn_b = inv_b.connections[0]
        assert conn_a.settings["input_rkey"] != conn_b.settings["input_rkey"]
        assert conn_a.settings["input_addr"] != conn_b.settings["input_addr"]
        # Both still function independently.
        out_a = yield from inv_a.invoke("echo", b"A")
        out_b = yield from inv_b.invoke("echo", b"B")
        return out_a, out_b

    assert dep.run(driver()) == (b"A", b"B")


def test_invocation_queueing_on_busy_worker_preserves_order():
    config = RFaaSConfig()
    dep = build(config=config)
    inv = dep.new_invoker()
    package = CodePackage(name="slowpkg")
    package.add(FunctionSpec(name="tag", handler=lambda d: d, cost_ns=lambda s: ms(1)))

    def driver():
        yield from inv.allocate(package, workers=1)
        futures = []
        bufs = []
        for i in range(5):
            in_buf = inv.alloc_input(64)
            out_buf = inv.alloc_output(64)
            in_buf.write(bytes([i]))
            bufs.append(out_buf)
            futures.append(inv.submit("tag", in_buf, 1, out_buf, worker=0))
        outputs = []
        for future in futures:
            result = yield future.wait()
            outputs.append(result.output())
        return outputs

    assert dep.run(driver()) == [bytes([i]) for i in range(5)]


def test_executor_kill_mid_execution_fails_future_via_heartbeat():
    config = RFaaSConfig(heartbeat_interval_ns=ms(100), heartbeat_misses=2)
    dep = build(config=config)
    inv = dep.new_invoker()
    package = CodePackage(name="p")
    package.add(FunctionSpec(name="long", handler=lambda d: d, cost_ns=lambda s: secs(10)))

    def driver():
        yield from inv.allocate(package, workers=1)
        in_buf = inv.alloc_input(64)
        out_buf = inv.alloc_output(64)
        in_buf.write(b"zz")
        future = inv.submit("long", in_buf, 2, out_buf)
        yield dep.env.timeout(ms(10))  # execution underway
        dep.executors[0].kill()
        from repro.core import LeaseExpired

        try:
            yield future.wait()
        except LeaseExpired:
            return "failed-as-expected"

    assert dep.run(driver()) == "failed-as-expected"


def _connect_refused(dep, host, port):
    """Whether a fresh client QP's CM connect to *host:port* is refused
    within 10 ms (a handshake takes ~0.5 ms)."""
    from repro.rdma import ConnectionRefused

    nic = dep.add_client_node().nic
    install_cm(nic)
    qp = nic.create_qp(nic.create_pd(), nic.create_cq())
    outcome = []

    def driver():
        try:
            yield from nic.cm.connect(host, port, qp)
            outcome.append("connected")
        except ConnectionRefused:
            outcome.append("refused")

    dep.env.process(driver())
    dep.env.run(until=dep.env.now + ms(10))
    return outcome == ["refused"]


def test_worker_port_serves_only_the_lease_connection():
    """A worker's port accepts the lease's own connection, then closes:
    a second client connecting to it is refused."""
    dep = build()
    inv = dep.new_invoker()
    dep.run(inv.allocate(make_package(), workers=1))
    worker = dep.executors[0].allocations[inv.connections[0].lease.lease_id].workers[0]
    assert inv.connections[0].qp.remote is worker.qp
    assert _connect_refused(dep, dep.executors[0].nic.name, worker.worker_id)
    # The lease's connection is unaffected.
    in_buf, out_buf = inv.alloc_input(8), inv.alloc_output(8)
    in_buf.write(b"still-up")
    result = dep.run(_wait(inv.submit("echo", in_buf, 8, out_buf)))
    assert result.output() == b"still-up"


def test_killed_executor_refuses_allocator_connections():
    dep = build()
    executor = dep.executors[0]
    executor.kill()
    assert _connect_refused(dep, executor.nic.name, executor.port)


def _wait(future):
    return (yield future.wait())
