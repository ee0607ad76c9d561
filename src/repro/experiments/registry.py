"""Experiment registry: ids -> harness callables.

``quick`` kwargs shrink sweeps for CI-sized runs; the defaults of each
``run_*`` are the paper-scale parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.experiments.billing import run_billing
from repro.experiments.coldstart import QUICK_KWARGS as COLDSTART_QUICK_KWARGS
from repro.experiments.coldstart import run_coldstart
from repro.experiments.concurrency import run_concurrency
from repro.experiments.control import QUICK_KWARGS as CONTROL_QUICK_KWARGS
from repro.experiments.control import run_control
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11
from repro.experiments.fig12 import run_fig12
from repro.experiments.fig13 import run_fig13
from repro.experiments.leases import run_leases
from repro.experiments.multitenant import QUICK_KWARGS as MULTITENANT_QUICK_KWARGS
from repro.experiments.multitenant import run_multitenant, run_multitenant_scale
from repro.experiments.pipelining import run_pipelining
from repro.experiments.scale import QUICK_KWARGS as SCALE_QUICK_KWARGS
from repro.experiments.scale import run_scale
from repro.experiments.softroce import run_softroce
from repro.experiments.suite import run_suite
from repro.experiments.table1 import run_table1
from repro.experiments.warmpool import run_warmpool


@dataclass(frozen=True)
class Experiment:
    """One reproducible table/figure."""

    experiment_id: str
    description: str
    run: Callable[..., Any]
    quick_kwargs: dict


EXPERIMENTS: dict[str, Experiment] = {
    exp.experiment_id: exp
    for exp in (
        Experiment(
            "fig1",
            "Platform comparison: rFaaS vs Lambda/OpenWhisk/Nightcore",
            run_fig1,
            {"sizes": (1_000, 100_000, 1_000_000), "repetitions": 5},
        ),
        Experiment(
            "fig2",
            "Piz Daint utilization (motivation)",
            run_fig2,
            {"total_nodes": 200, "days": 1.0},
        ),
        Experiment(
            "fig8",
            "Invocation latency vs raw RDMA and TCP",
            run_fig8,
            {"sizes": (2, 128, 1024, 16384), "repetitions": 8},
        ),
        Experiment("fig9", "Cold-start breakdown", run_fig9, {"repetitions": 2}),
        Experiment(
            "fig10",
            "Parallel scalability 1-32 workers",
            run_fig10,
            {"workers": (1, 4, 16), "repetitions": 3},
        ),
        Experiment("fig11", "SeBS thumbnailer + ResNet inference", run_fig11, {"repetitions": 5}),
        Experiment(
            "fig12",
            "Black-Scholes offloading",
            run_fig12,
            {"workers": (1, 4, 16, 32)},
        ),
        Experiment(
            "fig13",
            "MPI GEMM + Jacobi acceleration",
            run_fig13,
            {"ranks": (2, 8), "gemm_n": 2048, "gemm_repetitions": 2, "jacobi_iterations": 200},
        ),
        Experiment("table1", "Requirements matrix checks", run_table1, {}),
        Experiment("billing", "Hot-vs-warm cost ablation", run_billing, {"invocations": 20}),
        Experiment("leases", "Leases vs centralized scheduling ablation", run_leases, {}),
        Experiment(
            "softroce",
            "rFaaS on software RDMA (Sec. III-F modularity ablation)",
            run_softroce,
            {"sizes": (64, 65536), "repetitions": 5},
        ),
        Experiment(
            "multitenant",
            "Multi-tenant scale engine: per-tenant deadlines over the "
            "isolation spectrum (--partitioning pinned|shared|overflow)",
            run_multitenant_scale,
            dict(MULTITENANT_QUICK_KWARGS),
        ),
        Experiment(
            "multitenant-rpc",
            "Three tenant profiles sharing executors (Sec. III-D)",
            run_multitenant,
            {},
        ),
        Experiment(
            "suite",
            "Five real SeBS-style functions: rFaaS vs AWS Lambda",
            run_suite,
            {"repetitions": 4},
        ),
        Experiment(
            "warmpool",
            "Warm container pool bypassing Docker boot (Sec. V-B)",
            run_warmpool,
            {"repetitions": 2},
        ),
        Experiment(
            "concurrency",
            "Latency/throughput under concurrent clients (decentralization)",
            run_concurrency,
            {"client_counts": (1, 8), "calls_per_client": 10},
        ),
        Experiment(
            "pipelining",
            "Per-worker invocation pipelining throughput ablation",
            run_pipelining,
            {"sizes": (1_024, 1_048_576), "depths": (1, 4), "burst": 12},
        ),
        Experiment(
            "scale",
            "Open-loop million-invocation load over a leased warm pool "
            "(--arrival-shape poisson|bursty|diurnal)",
            run_scale,
            dict(SCALE_QUICK_KWARGS),
        ),
        Experiment(
            "control",
            "Cluster-scale lease brokering under executor churn "
            "(--no-churn, --verify against the per-event reference)",
            run_control,
            dict(CONTROL_QUICK_KWARGS),
        ),
        Experiment(
            "coldstart",
            "Cold-start spectrum: pool size x start model x arrival shape "
            "(--pool-policy cold|hybrid, --start-model remote-fork|...)",
            run_coldstart,
            dict(COLDSTART_QUICK_KWARGS),
        ),
    )
}


def experiment_ids() -> list[str]:
    """All registered experiment ids, sorted."""
    return sorted(EXPERIMENTS)


def run_experiment(experiment_id: str, quick: bool = False, **overrides: Any):
    """Run one experiment by id; ``quick=True`` uses CI-sized sweeps."""
    experiment = EXPERIMENTS[experiment_id]
    kwargs = dict(experiment.quick_kwargs) if quick else {}
    kwargs.update(overrides)
    return experiment.run(**kwargs)


@dataclass
class TimedRun:
    """An experiment's result plus the wall-clock seconds it took.

    Timing happens *inside* the process that ran the experiment, so the
    per-experiment numbers stay comparable whether the batch executed
    serially or fanned out across workers.
    """

    experiment_id: str
    wall_s: float
    result: Any


def run_experiment_timed(experiment_id: str, quick: bool = False, **overrides: Any) -> TimedRun:
    """Like :func:`run_experiment`, wrapped with a wall-clock measurement.

    Module-level on purpose: this is the picklable factory that
    ``python -m repro.experiments all --parallel N`` ships to workers.
    """
    started = time.perf_counter()
    result = run_experiment(experiment_id, quick=quick, **overrides)
    return TimedRun(experiment_id, time.perf_counter() - started, result)
