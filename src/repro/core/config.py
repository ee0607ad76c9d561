"""Platform configuration: timings and policies.

``RFaaSTimings`` holds the platform-side processing constants.  Their
defaults are derived from the paper's measured overheads:

* hot invocation overhead over raw RDMA = ``worker_dispatch_ns +
  client_complete_ns`` = 180 + 146 = **326 ns** (Sec. V-A),
* warm adds the blocking-notify-vs-poll gap from the latency model
  (4389 - 45 = 4344 ns), totalling **4.67 us**,
* Docker data-path penalties (+50 ns hot / +650 ns warm) live in the
  sandbox profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.clock import ms, secs, us


@dataclass(frozen=True)
class RFaaSTimings:
    """Processing constants of the rFaaS implementation itself (ns)."""

    #: Worker: parse the 12-byte header, look up the function pointer in
    #: the code package, set up arguments.
    worker_dispatch_ns: int = 180
    #: Client library: match the response CQE to its future and fulfil it.
    client_complete_ns: int = 146
    #: Resource manager: validate a lease request and pick an executor.
    manager_decision_ns: int = us(15)
    #: Lightweight allocator: validate an allocation request.
    allocator_decision_ns: int = us(10)
    #: Executor-side local resource-status check before a warm
    #: execution on possibly-oversubscribed resources (one local RDMA
    #: message between executor process and allocator, Sec. III-D).
    warm_resource_check_ns: int = us(1)
    #: Cost of producing a rejection response ("short and I/O-intensive").
    rejection_ns: int = us(1)
    #: Installing a submitted code package into the executor process
    #: (write to tmpfs + dlopen + symbol resolution); Fig. 9 shows this
    #: step in the single-digit-millisecond range.
    code_install_base_ns: int = ms(1)
    #: Per-byte cost of installing larger packages.
    code_install_bytes_per_sec: float = 2e9


@dataclass(frozen=True)
class RFaaSConfig:
    """Deployment-wide policy knobs.

    The event calendar is not one of them: :meth:`Deployment.build
    <repro.core.deployment.Deployment.build>` creates a plain
    :class:`~repro.sim.core.Environment` unless handed one.
    """

    timings: RFaaSTimings = field(default_factory=RFaaSTimings)
    #: Workers stay hot (busy-polling) this long after the last
    #: invocation before rolling back to warm (blocking).  None = never
    #: roll back; 0 = always warm.
    hot_timeout_ns: Optional[int] = ms(500)
    #: Default lease lifetime granted by the resource manager.
    lease_timeout_ns: int = secs(60)
    #: Executor processes idle longer than this are reclaimed.
    executor_idle_timeout_ns: int = secs(30)
    #: Manager -> executor heartbeat period and tolerated misses.
    heartbeat_interval_ns: int = secs(1)
    heartbeat_misses: int = 3
    #: Per-worker input buffer size (header + payload must fit).
    worker_buffer_bytes: int = 8 * 1024 * 1024
    #: Receive WRs pre-posted per worker QP.
    recv_ring_depth: int = 16
    #: Outstanding invocations per worker connection.  1 = the paper's
    #: design (one request in the worker's input buffer at a time);
    #: >1 slices the input buffer into slots so transfers of queued
    #: requests overlap with the current execution (throughput
    #: extension, see the pipelining ablation benchmark).
    worker_pipeline_depth: int = 1
    #: Allow more workers than free cores (oversubscription, Sec. III-D).
    allow_oversubscription: bool = False
    #: Generic pre-booted sandboxes each executor keeps ready
    #: (Sec. V-B warm pool; 0 disables).  Allocations matching
    #: ``warm_pool_sandbox`` skip the container boot.
    warm_pool_size: int = 0
    warm_pool_sandbox: str = "docker"
    #: Operator-provisioned secret shared by managers and executors;
    #: leases are MAC-signed with it (Sec. III-E authentication).
    cluster_secret: bytes = b"rfaas-cluster-secret"


@dataclass
class ColdStartBreakdown:
    """Per-step timings of one cold start (Fig. 9's stacked bars), ns."""

    connect_manager: int = 0
    lease_grant: int = 0
    connect_allocator: int = 0
    submit_code: int = 0
    spawn_workers: int = 0
    connect_workers: int = 0
    first_invocation: int = 0

    @property
    def total(self) -> int:
        return (
            self.connect_manager
            + self.lease_grant
            + self.connect_allocator
            + self.submit_code
            + self.spawn_workers
            + self.connect_workers
            + self.first_invocation
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "connect_manager": self.connect_manager,
            "lease_grant": self.lease_grant,
            "connect_allocator": self.connect_allocator,
            "submit_code": self.submit_code,
            "spawn_workers": self.spawn_workers,
            "connect_workers": self.connect_workers,
            "first_invocation": self.first_invocation,
        }
