"""Parallel-vs-serial determinism: fan-out must not change any result.

The contract (docs/architecture.md, "Parallel execution"): every run is
an independent, explicitly seeded simulation, so executing it in a
worker process -- in any order, on any schedule -- yields bit-identical
simulated nanoseconds, event counts, and latency series.  Wall-clock
fields are the only thing allowed to differ.
"""

import pytest

from repro.experiments.bench import bench_invocation, bench_pingpong
from repro.experiments.common import measure_rfaas_rtts
from repro.experiments.registry import run_experiment
from repro.parallel import RunSpec, fork_available, run_specs

FIG8_KWARGS = {"sizes": (64, 1024), "repetitions": 4}

needs_fork = pytest.mark.skipif(not fork_available(), reason="platform lacks fork")


@needs_fork
def test_fig8_parallel_matches_serial():
    """The fig8 sweep through 2 workers == the same sweep run inline."""
    serial = run_experiment("fig8", **FIG8_KWARGS)
    (parallel,) = run_specs(
        [
            RunSpec(
                "repro.experiments.registry:run_experiment",
                {"experiment_id": "fig8", **FIG8_KWARGS},
                index=0,
                label="fig8",
            )
        ],
        2,
    )
    assert parallel.sizes == serial.sizes
    assert parallel.series == serial.series
    assert parallel.p99 == serial.p99


@needs_fork
def test_sweep_parallel_matches_serial():
    """A payload-size sweep through 2 workers == the same sweep inline."""
    sizes = (64, 1024, 16384)
    serial = [measure_rfaas_rtts(payload_size=size, repetitions=3) for size in sizes]
    fanned = run_specs(
        [
            RunSpec(
                "repro.experiments.common:measure_rfaas_rtts",
                {"payload_size": size, "repetitions": 3},
                index=index,
            )
            for index, size in enumerate(sizes)
        ],
        2,
    )
    for ours, theirs in zip(serial, fanned, strict=True):
        assert ours.stats == theirs.stats  # medians, p99, CIs in ns


@needs_fork
def test_bench_invocation_parallel_matches_serial():
    """Simulated fields of the bench scenario are execution-mode invariant."""
    serial = bench_invocation(repeats=2, parallel=1)
    fanned = bench_invocation(repeats=2, parallel=2)
    for key in ("invocations", "events_processed", "final_now_ns"):
        assert serial[key] == fanned[key]


@needs_fork
def test_bench_pingpong_median_ns_parallel_matches_serial():
    serial = bench_pingpong(repeats=2, parallel=1)
    fanned = bench_pingpong(repeats=2, parallel=2)
    assert serial["median_rtt_ns"] == fanned["median_rtt_ns"]
    assert serial["iterations"] == fanned["iterations"]
