"""A SLURM-like whole-node batch scheduler.

FCFS with first-fit backfill: the head of the queue reserves capacity,
and smaller jobs may start out of order only if they fit in the nodes
the head job is not waiting for.  Whole-node allocation matches how
Piz Daint schedules (and is what creates the drain-induced idle windows
Fig. 2 shows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

_job_ids = count(1)


@dataclass
class BatchJob:
    """One batch job: whole nodes for a fixed walltime."""

    arrival_ns: int
    nodes: int
    walltime_ns: int
    #: Memory the job actually touches, per node (bytes).
    memory_per_node: int
    job_id: int = field(default_factory=lambda: next(_job_ids))
    started_ns: Optional[int] = None
    finished_ns: Optional[int] = None

    @property
    def wait_ns(self) -> Optional[int]:
        return None if self.started_ns is None else self.started_ns - self.arrival_ns


class BatchScheduler:
    """Schedules :class:`BatchJob` onto a pool of identical nodes."""

    def __init__(self, env: "Environment", total_nodes: int, node_memory_bytes: int) -> None:
        if total_nodes <= 0:
            raise ValueError("total_nodes must be positive")
        self.env = env
        self.total_nodes = total_nodes
        self.node_memory_bytes = node_memory_bytes
        self.free_nodes = total_nodes
        self.queue: list[BatchJob] = []
        self.running: list[BatchJob] = []
        self.completed: list[BatchJob] = []
        #: Memory in active use across all running jobs.
        self.used_memory = 0
        #: Nodes temporarily lent out (e.g. to rFaaS spot executors).
        self.borrowed_nodes = 0

    # -- metrics ---------------------------------------------------------

    @property
    def busy_nodes(self) -> int:
        """Nodes unavailable to new jobs (running work or lent out)."""
        return self.total_nodes - self.free_nodes

    @property
    def node_utilization(self) -> float:
        return self.busy_nodes / self.total_nodes

    # -- node lending (opportunistic harvesting, Sec. II-A) ----------------

    def borrow_node(self) -> bool:
        """Lend one idle node out (fails when none is free)."""
        if self.free_nodes <= 0:
            return False
        self.free_nodes -= 1
        self.borrowed_nodes += 1
        return True

    def return_node(self) -> None:
        """A lent node comes back and is immediately schedulable."""
        if self.borrowed_nodes <= 0:
            raise ValueError("no nodes are currently borrowed")
        self.borrowed_nodes -= 1
        self.free_nodes += 1
        self._schedule()

    @property
    def memory_utilization(self) -> float:
        return self.used_memory / (self.total_nodes * self.node_memory_bytes)

    # -- workload ----------------------------------------------------------

    def submit(self, job: BatchJob) -> None:
        """Called at the job's arrival time."""
        if job.nodes <= 0 or job.nodes > self.total_nodes:
            raise ValueError(f"job {job.job_id} requests {job.nodes} nodes")
        self.queue.append(job)
        self._schedule()

    def run_trace(self, jobs: list[BatchJob]):
        """Process generator: submit *jobs* at their arrival times."""
        env = self.env
        for job in sorted(jobs, key=lambda j: j.arrival_ns):
            if job.arrival_ns > env.now:
                yield env.timeout(job.arrival_ns - env.now)
            self.submit(job)

    # -- scheduling core -----------------------------------------------------

    def _schedule(self) -> None:
        """FCFS + first-fit backfill over the current queue."""
        started: list[BatchJob] = []
        head_blocked_nodes: Optional[int] = None
        for job in self.queue:
            if head_blocked_nodes is None:
                if job.nodes <= self.free_nodes:
                    self._start(job)
                    started.append(job)
                else:
                    # Head of queue waits; remember its reservation.
                    head_blocked_nodes = job.nodes
            else:
                # Backfill: start only if it leaves the head's claim alone.
                # (Conservative: no walltime-based reservations.)
                if job.nodes <= self.free_nodes:
                    self._start(job)
                    started.append(job)
        for job in started:
            self.queue.remove(job)

    def _start(self, job: BatchJob) -> None:
        job.started_ns = self.env.now
        self.free_nodes -= job.nodes
        self.used_memory += job.nodes * min(job.memory_per_node, self.node_memory_bytes)
        self.running.append(job)
        self.env.process(self._finish_after(job), name=f"job{job.job_id}")

    def _finish_after(self, job: BatchJob):
        yield self.env.timeout(job.walltime_ns)
        job.finished_ns = self.env.now
        self.running.remove(job)
        self.completed.append(job)
        self.free_nodes += job.nodes
        self.used_memory -= job.nodes * min(job.memory_per_node, self.node_memory_bytes)
        self._schedule()
