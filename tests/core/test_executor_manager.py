"""Control-plane behaviour: allocation, leases, heartbeats, billing,
idle reclamation, failure handling, multi-manager round robin."""

import pytest

from repro.core import (
    AllocationError,
    CodePackage,
    Deployment,
    LeaseExpired,
    LeaseState,
    RFaaSConfig,
)
from repro.core.functions import echo_function
from repro.sim import GiB, ms, secs

from tests.core.conftest import make_package


def build(executors=2, managers=1, clients=1, config=None):
    dep = Deployment.build(executors=executors, managers=managers, clients=clients, config=config)
    dep.settle()
    return dep


def test_cold_start_breakdown_bare_metal_about_25ms():
    dep = build(executors=1)
    inv = dep.new_invoker()
    package = make_package()

    def driver():
        return (yield from inv.allocate(package, workers=1, sandbox="bare-metal"))

    breakdown = dep.run(driver())
    # Fig. 9a: ~25 ms total, worker spawn dominant, other steps small.
    assert ms(15) <= breakdown.total <= ms(40)
    assert breakdown.spawn_workers >= 0.5 * breakdown.total
    for step in ("connect_manager", "lease_grant", "connect_allocator", "submit_code"):
        assert breakdown.as_dict()[step] < ms(10)


def test_cold_start_docker_about_2_7s():
    dep = build(executors=1)
    inv = dep.new_invoker()
    package = make_package()

    def driver():
        return (yield from inv.allocate(package, workers=1, sandbox="docker"))

    breakdown = dep.run(driver())
    assert secs(2.3) <= breakdown.total <= secs(3.2)
    assert breakdown.spawn_workers >= 0.9 * breakdown.total


def test_lease_denied_when_no_capacity():
    config = RFaaSConfig()
    dep = build(executors=1, config=config)
    inv = dep.new_invoker()
    package = make_package()

    def driver():
        # Executor node has 36 cores; asking for more must fail.
        try:
            yield from inv.allocate(package, workers=37)
        except AllocationError as error:
            return str(error)

    assert "capacity" in dep.run(driver())


def test_manager_round_robins_executors():
    dep = build(executors=3)
    inv = dep.new_invoker()
    package = make_package()

    def driver():
        hosts = []
        for _ in range(3):
            yield from inv.allocate(package, workers=1)
            hosts.append(list(inv.leases.values())[-1].executor_host)
        return hosts

    hosts = dep.run(driver())
    assert len(set(hosts)) == 3  # spread across all executors


def test_workers_spread_and_parallel_invocations():
    dep = build(executors=1)
    inv = dep.new_invoker()
    package = make_package()

    def driver():
        yield from inv.allocate(package, workers=4)
        assert inv.live_workers == 4
        futures = []
        bufs = []
        for i in range(4):
            in_buf = inv.alloc_input(64)
            out_buf = inv.alloc_output(64)
            in_buf.write(bytes([i, i]))
            bufs.append(out_buf)
            futures.append(inv.submit("echo", in_buf, 2, out_buf, worker=i))
        results = []
        for future in futures:
            results.append((yield future.wait()))
        return [r.output() for r in results]

    outputs = dep.run(driver())
    assert outputs == [bytes([i, i]) for i in range(4)]


def test_deallocate_releases_executor_capacity():
    dep = build(executors=1)
    inv = dep.new_invoker()
    package = make_package()
    executor = dep.executors[0]

    def driver():
        yield from inv.allocate(package, workers=4)
        assert executor.free_cores == 32
        yield from inv.deallocate()
        yield dep.env.timeout(ms(50))
        return executor.free_cores, len(executor.allocations)

    free_cores, allocations = dep.run(driver())
    assert free_cores == 36
    assert allocations == 0
    assert all(lease.state is LeaseState.RELEASED for lease in inv.leases.values())


def test_idle_executor_reclaimed_after_timeout():
    config = RFaaSConfig(executor_idle_timeout_ns=secs(1), hot_timeout_ns=ms(10))
    dep = build(executors=1, config=config)
    inv = dep.new_invoker()
    package = make_package()

    def driver():
        yield from inv.allocate(package, workers=1)
        out = yield from inv.invoke("echo", b"hi")
        assert out == b"hi"
        # Go idle past the executor's limit; the reaper tears down.
        yield dep.env.timeout(secs(3))
        return len(dep.executors[0].allocations)

    assert dep.run(driver()) == 0


def test_lease_expiry_notifies_client():
    config = RFaaSConfig(lease_timeout_ns=secs(2))
    dep = build(executors=1, config=config)
    inv = dep.new_invoker()
    package = make_package()

    def driver():
        yield from inv.allocate(package, workers=1)
        lease_id = next(iter(inv.leases))
        yield dep.env.timeout(secs(4))
        return lease_id

    lease_id = dep.run(driver())
    assert lease_id in inv.terminated_leases
    assert inv.live_workers == 0


def test_executor_failure_detected_by_heartbeats():
    config = RFaaSConfig(heartbeat_interval_ns=ms(100), heartbeat_misses=2)
    dep = build(executors=2, config=config)
    inv = dep.new_invoker()
    package = make_package()
    manager = dep.managers[0]

    def driver():
        yield from inv.allocate(package, workers=1)
        lease = next(iter(inv.leases.values()))
        victim = next(e for e in dep.executors if e.nic.name == lease.executor_host)
        victim.kill()
        # Wait for misses to accumulate and the termination notice.
        yield dep.env.timeout(ms(1500))
        record = manager.executors[victim.name]
        return record.alive, list(inv.terminated_leases)

    alive, terminated = dep.run(driver())
    assert alive is False
    assert len(terminated) == 1


def test_mass_termination_announces_every_lease_once():
    """Ten leases die with their executor, so the manager announces ten
    terminations to one client at once: more messages than the RPC send
    ring has slots.  The two beyond the ring wait for a slot instead of
    overwriting the first two, so each lease is announced exactly once."""
    dep = build(executors=1)
    inv = dep.new_invoker()
    package = make_package()

    def driver():
        for _ in range(10):
            yield from inv.allocate(package, workers=1)
        dep.executors[0].kill()
        yield dep.env.timeout(secs(10))

    dep.run(driver())
    assert sorted(inv.terminated_leases) == list(range(1, 11))


def test_outstanding_future_fails_when_executor_dies():
    config = RFaaSConfig(heartbeat_interval_ns=ms(100), heartbeat_misses=2)
    dep = build(executors=1, config=config)
    inv = dep.new_invoker()
    package = CodePackage(name="p")
    package.add(echo_function())

    def driver():
        yield from inv.allocate(package, workers=1)
        in_buf = inv.alloc_input(64)
        out_buf = inv.alloc_output(64)
        in_buf.write(b"zz")
        dep.executors[0].kill()
        future = inv.submit("echo", in_buf, 2, out_buf)
        try:
            yield future.wait()
        except LeaseExpired as error:
            return str(error)

    assert "failed" in dep.run(driver())


def test_billing_counters_flow_to_manager():
    config = RFaaSConfig(hot_timeout_ns=ms(1))
    dep = build(executors=1, config=config)
    inv = dep.new_invoker(name="tenant-x")
    package = CodePackage(name="p")
    package.add(
        echo_function()
    )
    manager = dep.managers[0]

    def driver():
        yield from inv.allocate(package, workers=1, memory_bytes=2 * GiB)
        for _ in range(3):
            yield from inv.invoke("echo", b"pay")
        yield dep.env.timeout(ms(10))
        yield from inv.deallocate()
        yield dep.env.timeout(ms(50))
        return manager.billing.read_account("tenant-x")

    account = dep.run(driver())
    assert account.allocation_byte_seconds > 0
    assert account.hotpoll_ns > 0  # the worker polled between calls


def test_multi_manager_deployment_splits_executors():
    dep = build(executors=4, managers=2)
    counts = [len(m.executors) for m in dep.managers]
    assert counts == [2, 2]
    inv = dep.new_invoker()
    package = make_package()

    def driver():
        for _ in range(4):
            yield from inv.allocate(package, workers=1)
        return sorted({lease.executor_host for lease in inv.leases.values()})

    hosts = dep.run(driver())
    # Leases spread over executors of both managers.
    assert len(hosts) >= 3


def test_second_manager_serves_when_first_full():
    dep = build(executors=2, managers=2)
    inv = dep.new_invoker()
    package = make_package()

    def driver():
        # Fill manager0's only executor completely...
        yield from inv.allocate(package, workers=36)
        # ...the next allocation must come from manager1's executor.
        yield from inv.allocate(package, workers=36)
        return sorted({lease.executor_host for lease in inv.leases.values()})

    hosts = dep.run(driver())
    assert len(hosts) == 2
