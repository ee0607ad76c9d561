"""repro -- a from-scratch Python reproduction of rFaaS (IPDPS 2023).

rFaaS is an RDMA-accelerated Function-as-a-Service platform built around
two ideas: *allocation leases* that remove the centralized scheduler
from the invocation path, and an *RDMA function-dispatch protocol* with
hot (busy-polling) invocations costing only ~300 ns over raw RDMA.

Because nanosecond latencies are unobservable from wall-clock Python,
this reproduction runs on a deterministic discrete-event simulation
calibrated to the paper's measured hardware constants (see DESIGN.md).
Payloads are real bytes and functions are real computations; only their
*durations* are modelled.

Subpackages
-----------
``repro.sim``        discrete-event kernel (virtual nanoseconds)
``repro.rdma``       simulated ibverbs: QPs, CQs, MRs, verbs, fabric
``repro.tcp``        kernel-stack TCP baseline on the same fabric
``repro.cluster``    nodes, SLURM-like batch system, utilization traces
``repro.core``       rFaaS itself: managers, leases, executors, invoker
``repro.baselines``  AWS Lambda / OpenWhisk / Nightcore / FuncX models
``repro.workloads``  echo, thumbnailer, ResNet-style inference, HPC kernels
``repro.hpc``        mini-MPI and OpenMP fork-join models
``repro.analysis``   medians, nonparametric CIs, reporting
"""

__version__ = "1.0.0"
