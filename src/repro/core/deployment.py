"""One-call deployment builder: fabric + managers + executors + clients.

Benchmarks, examples and integration tests all start from here::

    dep = Deployment.build(executors=2, clients=1)
    invoker = dep.new_invoker()
    ...
    dep.run()          # drive the simulation

The builder mirrors the paper's testbed: every node has 36 cores,
377 GB of memory and one 100 Gb/s NIC behind a single switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.node import Node, NodeSpec
from repro.core.config import RFaaSConfig
from repro.core.executor import SpotExecutor
from repro.core.functions import CodePackage
from repro.core.invoker import Invoker
from repro.core.resource_manager import ResourceManager
from repro.rdma.fabric import Fabric, FaultModel
from repro.rdma.latency import LatencyModel
from repro.sim.core import Environment


@dataclass
class Deployment:
    """A wired rFaaS cluster inside one simulation environment."""

    env: Environment
    fabric: Fabric
    config: RFaaSConfig
    managers: list[ResourceManager] = field(default_factory=list)
    executors: list[SpotExecutor] = field(default_factory=list)
    invokers: list[Invoker] = field(default_factory=list)
    client_nodes: list[Node] = field(default_factory=list)
    #: The shared "Docker registry" of code packages.
    package_registry: dict[str, CodePackage] = field(default_factory=dict)
    _client_count: int = 0

    @classmethod
    def build(
        cls,
        executors: int = 1,
        managers: int = 1,
        clients: int = 1,
        config: Optional[RFaaSConfig] = None,
        node_spec: Optional[NodeSpec] = None,
        latency_model: Optional[LatencyModel] = None,
        env: Optional[Environment] = None,
        faults: Optional[FaultModel] = None,
    ) -> "Deployment":
        """Construct and register the whole cluster.

        The manager registration handshakes run inside the simulation;
        call :meth:`settle` (or just start using invokers) afterwards.
        """
        config = config or RFaaSConfig()
        if env is None:
            env = Environment()
        fabric = Fabric(env, latency_model, faults=faults)
        spec = node_spec or NodeSpec()
        deployment = cls(env=env, fabric=fabric, config=config)

        for index in range(managers):
            nic = fabric.attach(f"manager{index}")
            # Disjoint lease-id namespaces keep ids unique across the
            # replica set while each manager stays deterministic.
            deployment.managers.append(ResourceManager(nic, config, lease_namespace=index))

        for index in range(executors):
            nic = fabric.attach(f"executor{index}")
            node = Node(env, f"executor{index}", spec, nic=nic)
            executor = SpotExecutor(node, config)
            executor.package_registry = deployment.package_registry
            deployment.executors.append(executor)
            manager = deployment.managers[index % managers]
            env.process(
                executor.register_with(manager.nic.name, manager.port),
                name=f"register-{executor.name}",
            )

        for index in range(clients):
            deployment._add_client_node(spec)

        return deployment

    def _add_client_node(self, spec: Optional[NodeSpec] = None) -> Node:
        index = self._client_count
        self._client_count += 1
        nic = self.fabric.attach(f"client{index}")
        node = Node(self.env, f"client{index}", spec or NodeSpec(), nic=nic)
        self.client_nodes.append(node)
        return node

    def new_invoker(
        self,
        client_index: int = 0,
        completion_mode: str = "polling",
        name: Optional[str] = None,
    ) -> Invoker:
        """An invoker bound to an existing client node."""
        node = self.client_nodes[client_index]
        invoker = Invoker(
            node.nic,
            managers=[(m.nic.name, m.port) for m in self.managers],
            config=self.config,
            name=name or f"client{client_index}",
            package_registry=self.package_registry,
            completion_mode=completion_mode,
        )
        self.invokers.append(invoker)
        return invoker

    def add_client_node(self) -> Node:
        """Attach one more client node (e.g. one per MPI rank)."""
        return self._add_client_node()

    def settle(self, horizon_ns: int = 50_000_000) -> None:
        """Run the simulation briefly so registrations complete."""
        self.env.run(until=self.env.now + horizon_ns)

    def run(self, process=None):
        """Run a driver process to completion (or drain the queue)."""
        if process is None:
            return self.env.run()
        return self.env.run(until=self.env.process(process))
