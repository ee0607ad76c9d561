"""Queueing-process baseline models (contention-aware).

The analytic models in this package reproduce the paper's *latency*
measurements (single closed-loop client).  To study what happens under
*concurrency* -- where rFaaS's decentralization thesis actually bites --
these variants model each platform component as a multi-server FCFS
stage on the DES, so a shared controller or message bus saturates and
queues exactly like the real deployment.

Stage layouts (servers x service time), fitted so the single-client
latency matches the analytic models:

* OpenWhisk: nginx gateway -> controller -> Kafka (single broker!) ->
  invoker -> container pool.
* Nightcore: one gateway with a few dispatcher threads -> worker pool.
* AWS Lambda: effectively unbounded horizontal scale; stages have
  enough servers that the cloud never queues (the paper's observation
  that Lambda's problem is latency, not throughput).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.baselines.http import base64_codec_ns, base64_size
from repro.sim.clock import ms, us
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


@dataclass(frozen=True)
class StageSpec:
    """One component of a platform's invocation path."""

    name: str
    servers: int
    base_ns: int
    per_byte_ns: float = 0.0

    def service_ns(self, nbytes: int) -> int:
        return self.base_ns + round(self.per_byte_ns * nbytes)


class Stage:
    """A multi-server FCFS queue executing :class:`StageSpec` service."""

    def __init__(self, env: "Environment", spec: StageSpec) -> None:
        self.env = env
        self.spec = spec
        self.resource = Resource(env, capacity=spec.servers)
        self.jobs_served = 0
        self.busy_ns = 0

    def process(self, nbytes: int):
        """Generator: queue for a server, hold it for the service time."""
        with self.resource.request() as grant:
            yield grant
            service = self.spec.service_ns(nbytes)
            yield self.env.timeout(service)
            self.busy_ns += service
            self.jobs_served += 1


class QueuedPlatform:
    """A FaaS platform as a pipeline of contended stages."""

    def __init__(
        self,
        env: "Environment",
        name: str,
        request_stages: list[StageSpec],
        containers: int,
        response_stages: Optional[list[StageSpec]] = None,
        base64: bool = True,
    ) -> None:
        self.env = env
        self.name = name
        self.base64 = base64
        self.request_path = [Stage(env, spec) for spec in request_stages]
        self.workers = Stage(
            env, StageSpec(name="containers", servers=containers, base_ns=0)
        )
        self.response_path = [Stage(env, spec) for spec in (response_stages or [])]
        self.invocations = 0

    def _wire(self, size: int) -> int:
        return base64_size(size) if self.base64 else size

    def invoke(self, payload_size: int, compute_ns: int = 0):
        """Generator: one invocation through the contended pipeline;
        returns the RTT in ns."""
        env = self.env
        start = env.now
        wire = self._wire(payload_size)
        if self.base64:
            yield env.timeout(base64_codec_ns(payload_size))
        for stage in self.request_path:
            yield from stage.process(wire)
        # Container execution: hold one sandbox for the compute time.
        with self.workers.resource.request() as grant:
            yield grant
            if compute_ns:
                yield env.timeout(compute_ns)
            self.workers.jobs_served += 1
        for stage in self.response_path:
            yield from stage.process(wire)
        if self.base64:
            yield env.timeout(base64_codec_ns(payload_size))
        self.invocations += 1
        return env.now - start


# -- fitted layouts -------------------------------------------------------------


def queued_openwhisk(env: "Environment", containers: int = 8) -> QueuedPlatform:
    """Controller/Kafka/invoker chain; Kafka is the single-broker choke
    point that caps standalone-OpenWhisk throughput."""
    return QueuedPlatform(
        env,
        "openwhisk-queued",
        request_stages=[
            StageSpec("gateway", servers=4, base_ns=ms(2), per_byte_ns=0.05),
            StageSpec("controller", servers=2, base_ns=ms(22), per_byte_ns=0.02),
            StageSpec("kafka", servers=1, base_ns=ms(38), per_byte_ns=0.08),
            StageSpec("invoker", servers=4, base_ns=ms(30), per_byte_ns=0.02),
        ],
        containers=containers,
    )


def queued_nightcore(env: "Environment", containers: int = 16) -> QueuedPlatform:
    """Lean gateway with a handful of dispatcher threads."""
    return QueuedPlatform(
        env,
        "nightcore-queued",
        request_stages=[
            StageSpec("gateway", servers=4, base_ns=us(140), per_byte_ns=0.0011),
        ],
        containers=containers,
        response_stages=[
            StageSpec("gateway-out", servers=4, base_ns=us(15), per_byte_ns=0.0011),
        ],
    )


def queued_lambda(env: "Environment") -> QueuedPlatform:
    """The cloud scales horizontally: high fixed latency, no queueing."""
    return QueuedPlatform(
        env,
        "aws-lambda-queued",
        request_stages=[
            StageSpec("frontend", servers=1_000, base_ns=ms(8), per_byte_ns=0.022),
            StageSpec("placement", servers=1_000, base_ns=ms(10)),
        ],
        containers=10_000,
        response_stages=[
            StageSpec("frontend-out", servers=1_000, base_ns=ms(1.5), per_byte_ns=0.022),
        ],
    )
