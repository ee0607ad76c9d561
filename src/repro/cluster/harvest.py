"""The harvest controller: cluster operator automation for Sec. II-A.

"Cluster operators add and remove idle resources to the manager"
(Sec. III-A) -- this controller is that operator, automated.  It polls
the batch scheduler; when nodes sit idle beyond a reserve it *borrows*
them from the batch pool and spins up spot executors registered with a
resource manager; when the batch queue builds demand it *retires*
executors (gracefully: allocations torn down, billing flushed, leases
terminated with client announcements) and returns the nodes so the
batch system can schedule them immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Optional

from repro.cluster.node import Node, NodeSpec
from repro.cluster.slurm import BatchScheduler
from repro.core.config import RFaaSConfig
from repro.core.executor import SpotExecutor
from repro.sim.clock import secs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.resource_manager import ResourceManager
    from repro.rdma.fabric import Fabric
    from repro.sim.core import Environment

_harvest_ids = count(1)


@dataclass
class HarvestStats:
    donations: int = 0
    retirements: int = 0
    #: Integrated donated capacity.
    node_ns_donated: int = 0


@dataclass
class _Donation:
    executor: SpotExecutor
    since_ns: int


class HarvestController:
    """Keeps the donated-executor pool sized to the cluster's slack."""

    def __init__(
        self,
        scheduler: BatchScheduler,
        fabric: "Fabric",
        manager: "ResourceManager",
        config: Optional[RFaaSConfig] = None,
        node_spec: Optional[NodeSpec] = None,
        *,
        reserve_nodes: int = 2,
        max_donated: int = 8,
        poll_interval_ns: int = secs(10),
    ) -> None:
        self.scheduler = scheduler
        self.fabric = fabric
        self.manager = manager
        self.config = config or RFaaSConfig()
        self.node_spec = node_spec or NodeSpec()
        self.reserve_nodes = reserve_nodes
        self.max_donated = max_donated
        self.poll_interval_ns = poll_interval_ns
        self.env: "Environment" = fabric.env
        self.donations: list[_Donation] = []
        self.stats = HarvestStats()
        self.running = True
        self._process = self.env.process(self._loop(), name="harvest-controller")

    @property
    def donated_count(self) -> int:
        return len(self.donations)

    def stop(self) -> None:
        self.running = False

    # -- the control loop --------------------------------------------------

    def _loop(self):
        env = self.env
        while self.running:
            yield env.timeout(self.poll_interval_ns)
            # 1. Demand pressure: give nodes back while jobs wait.
            while self.donations and self.scheduler.queue:
                yield from self._retire_one()
            if not self.running:
                break
            # 2. Slack: donate idle nodes beyond the reserve.
            while (
                self.running
                and self.scheduler.free_nodes > self.reserve_nodes
                and self.donated_count < self.max_donated
            ):
                if not self._donate_one():
                    break
        # Drain on stop.
        while self.donations:
            yield from self._retire_one()

    def _donate_one(self) -> bool:
        if not self.scheduler.borrow_node():
            return False
        name = f"harvest{next(_harvest_ids)}"
        nic = self.fabric.attach(name)
        node = Node(self.env, name, self.node_spec, nic=nic)
        executor = SpotExecutor(node, self.config, name=name)
        executor.package_registry = self._shared_registry()
        self.env.process(
            executor.register_with(self.manager.nic.name, self.manager.port),
            name=f"register-{name}",
        )
        self.donations.append(_Donation(executor=executor, since_ns=self.env.now))
        self.stats.donations += 1
        return True

    def _retire_one(self):
        """Retire the most recent donation (fewest warm tenants)."""
        donation = self.donations.pop()
        yield from donation.executor.retire()
        self.scheduler.return_node()
        self.stats.retirements += 1
        self.stats.node_ns_donated += self.env.now - donation.since_ns

    def _shared_registry(self) -> dict:
        """Donated executors share the deployment-wide package registry
        (taken from any existing executor, else the manager's side)."""
        for donation in self.donations:
            return donation.executor.package_registry
        registry = getattr(self.manager, "package_registry", None)
        if registry is None:
            registry = {}
            self.manager.package_registry = registry
        return registry
