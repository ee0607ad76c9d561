"""Process-pool fan-out for independent, deterministic simulations.

The evaluation is embarrassingly parallel -- every figure/ablation grid
point is an independent, explicitly seeded DES run -- so this package
ships them to worker processes and reassembles results in grid order,
bit-identical to serial execution (see ``docs/architecture.md``,
"Parallel execution").
"""

from repro.parallel.pool import (
    available_workers,
    fork_available,
    resolve_workers,
    run_specs,
)
from repro.parallel.runspec import (
    FailedPoint,
    RunSpec,
    failure_from_exception,
)

__all__ = [
    "FailedPoint",
    "RunSpec",
    "available_workers",
    "failure_from_exception",
    "fork_available",
    "resolve_workers",
    "run_specs",
]
