"""Lease-id determinism (regression).

Lease ids used to come from a module-global ``itertools.count``: the
second simulation in one process saw different ids than the first, so
back-to-back runs of the *same* scenario fingerprinted differently.
Ids are now allocated per manager instance, with replicated managers
separated by disjoint namespaces.
"""

from repro.core.leases import Lease
from repro.core.resource_manager import LEASE_NAMESPACE_STRIDE, ResourceManager
from repro.rdma.fabric import Fabric
from repro.sim.core import Environment


def _grant_ids(n=5, lease_namespace=0):
    """Fresh env + manager, grant *n* leases, return their ids."""
    env = Environment()
    manager = ResourceManager(
        Fabric(env).attach("m"), name="m", lease_namespace=lease_namespace
    )
    for i in range(4):
        manager.register_record(f"x{i}", host=f"x{i}", port=1, cores=36, memory_bytes=1 << 30)
    ids = []
    for i in range(n):
        response = manager.grant_lease(
            {"client": f"c{i}", "cores": 1, "memory_bytes": 1 << 20}, None
        )
        assert response["type"] == "lease_granted"
        ids.append(response["lease_id"])
    manager.kill()
    return ids


def test_repeat_runs_see_identical_ids():
    first = _grant_ids()
    second = _grant_ids()
    assert first == second == [1, 2, 3, 4, 5]


def test_denials_consume_no_ids():
    env = Environment()
    manager = ResourceManager(Fabric(env).attach("m"), name="m")
    manager.register_record("x0", host="x0", port=1, cores=2, memory_bytes=1 << 20)
    granted = manager.grant_lease({"client": "c", "cores": 2, "memory_bytes": 1 << 20}, None)
    denied = manager.grant_lease({"client": "c", "cores": 2, "memory_bytes": 1 << 20}, None)
    assert granted["lease_id"] == 1
    assert denied["type"] == "lease_denied"
    manager._do_release({"type": "lease_release", "lease_id": 1})
    regrant = manager.grant_lease({"client": "c", "cores": 2, "memory_bytes": 1 << 20}, None)
    assert regrant["lease_id"] == 2
    manager.kill()


def test_replicated_managers_use_disjoint_namespaces():
    base = _grant_ids(n=3, lease_namespace=0)
    replica = _grant_ids(n=3, lease_namespace=1)
    assert base == [1, 2, 3]
    assert replica == [
        LEASE_NAMESPACE_STRIDE + 1,
        LEASE_NAMESPACE_STRIDE + 2,
        LEASE_NAMESPACE_STRIDE + 3,
    ]
    assert not set(base) & set(replica)


def test_deployment_assigns_namespace_per_manager():
    from repro.core.deployment import Deployment

    dep = Deployment.build(executors=2, managers=2, clients=0)
    first = next(dep.managers[0]._lease_ids)
    second = next(dep.managers[1]._lease_ids)
    assert first == 1
    assert second == LEASE_NAMESPACE_STRIDE + 1


def test_adhoc_lease_falls_back_to_global_stream():
    a = Lease(
        client="c", executor_host="h", executor_port=1, cores=1,
        memory_bytes=1, issued_ns=0, timeout_ns=1,
    )
    b = Lease(
        client="c", executor_host="h", executor_port=1, cores=1,
        memory_bytes=1, issued_ns=0, timeout_ns=1,
    )
    assert a.lease_id is not None and b.lease_id == a.lease_id + 1
    explicit = Lease(
        client="c", executor_host="h", executor_port=1, cores=1,
        memory_bytes=1, issued_ns=0, timeout_ns=1, lease_id=777,
    )
    assert explicit.lease_id == 777
