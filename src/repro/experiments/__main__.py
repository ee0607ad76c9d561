"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig8
    python -m repro.experiments fig13 --quick
    python -m repro.experiments all --quick
    python -m repro.experiments all --quick --parallel auto
    python -m repro.experiments bench --json BENCH_PR1.json --label pr1
    python -m repro.experiments bench --quick --parallel 2
    python -m repro.experiments scale --arrival-shape diurnal --quick
    python -m repro.experiments scale --quick --pool-policy cold --profile
    python -m repro.experiments bench --ten-million --json BENCH_PR6.json --label pr6
    python -m repro.experiments control --quick --verify
    python -m repro.experiments control --verify --no-churn
    python -m repro.experiments multitenant --quick --partitioning shared

``--parallel N`` fans independent work out across N worker processes
via :mod:`repro.parallel` (``auto`` or ``0`` = one per usable CPU,
``1`` = serial): for ``all`` each experiment runs in its own worker;
for ``bench`` the repetitions of each hot-loop benchmark run
concurrently (each run is wall-clock-timed inside its own process, so
medians stay comparable) and a multi-experiment batch is timed
serial-vs-parallel.  ``bench`` forks each engine and its referee
through the same pool whatever ``--parallel`` says.  Simulated results
are bit-identical to serial runs; a crashed or raising experiment is
reported and the rest of the batch completes.

``--arrival-shape`` picks the ``scale`` arrival process (``poisson``,
``bursty``, ``diurnal``; see :mod:`repro.experiments.scale`).  Every
``scale`` and ``multitenant`` run is one scenario driven in one
process on the engine its policy calls for; ``--parallel`` fans out
whole experiments, never parts of one.  The per-event referees are
checks, not options: ``control --verify`` and ``coldstart --quick``
replay their runs on them, and ``bench`` records every engine against
its referee.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.reporting import Table
from repro.core.sandbox import SANDBOX_PROFILES
from repro.experiments.registry import EXPERIMENTS, experiment_ids, run_experiment_timed
from repro.parallel import FailedPoint, RunSpec, run_specs


def _batch_specs(
    targets: list[str],
    quick: bool,
    scale_overrides: dict | None = None,
    control_overrides: dict | None = None,
    coldstart_overrides: dict | None = None,
    multitenant_overrides: dict | None = None,
) -> list[RunSpec]:
    specs = []
    for index, target in enumerate(targets):
        kwargs: dict = {"experiment_id": target, "quick": quick}
        if target == "scale" and scale_overrides:
            kwargs.update(scale_overrides)
        if target == "control" and control_overrides:
            kwargs.update(control_overrides)
        if target == "coldstart" and coldstart_overrides:
            kwargs.update(coldstart_overrides)
        if target == "multitenant" and multitenant_overrides:
            kwargs.update(multitenant_overrides)
        specs.append(
            RunSpec(
                factory="repro.experiments.registry:run_experiment_timed",
                kwargs=kwargs,
                index=index,
                label=target,
            )
        )
    return specs


def _parallel_workers(value: str) -> int:
    """Parse ``--parallel``: an integer, or ``auto`` = one per usable CPU."""
    if value.strip().lower() == "auto":
        return 0
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), 'all', 'report', 'bench', or 'list'",
    )
    parser.add_argument(
        "--out",
        default="report.md",
        help="output path for 'report' (default: report.md)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized sweeps instead of paper scale"
    )
    parser.add_argument(
        "--parallel",
        type=_parallel_workers,
        default=1,
        metavar="N",
        help="worker processes for independent runs "
        "('auto' or 0 = one per usable CPU, 1 = serial; default 1)",
    )
    parser.add_argument(
        "--arrival-shape",
        choices=("poisson", "bursty", "diurnal"),
        default="poisson",
        help="for 'scale': arrival process shape (default poisson)",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const=True,
        default=None,
        metavar="FILE",
        help="for 'scale' only (any --pool-policy or --arrival-shape): "
        "wrap the drive loop in cProfile and print the top-25 cumulative "
        "entries; with FILE, also dump pstats to FILE and the text "
        "report to FILE.txt",
    )
    parser.add_argument(
        "--pool-policy",
        choices=("queue", "cold", "hybrid"),
        default=None,
        help="for 'scale'/'coldstart'/'multitenant': what a dry-pool "
        "arrival does -- 'queue' waits FIFO (scale default), 'cold' "
        "spins a sandbox up, 'hybrid' queues until the backlog hits "
        "--hybrid-threshold (coldstart default: cold)",
    )
    parser.add_argument(
        "--partitioning",
        choices=("pinned", "shared", "overflow"),
        default=None,
        help="for 'multitenant': warm-pool partition plan -- 'pinned' "
        "gives every tenant a private weighted partition (strong "
        "isolation, default), 'shared' one oversubscribed tier, "
        "'overflow' half pinned + half shared",
    )
    parser.add_argument(
        "--start-model",
        choices=tuple(sorted(SANDBOX_PROFILES)),
        default=None,
        help="for 'scale'/'coldstart': sandbox profile priced for cold "
        "spin-ups (remote-fork ~1 ms, microvm ~125 ms, bare-metal "
        "~20 ms, docker ~2.7 s)",
    )
    parser.add_argument(
        "--keepalive-ms",
        type=int,
        default=None,
        metavar="MS",
        help="for 'scale'/'coldstart': idle-reclaim keepalive for "
        "cold-started executors in milliseconds (0 = keep forever)",
    )
    parser.add_argument(
        "--hybrid-threshold",
        type=int,
        default=None,
        metavar="N",
        help="for 'scale'/'coldstart': backlog depth at which the "
        "'hybrid' policy stops queueing and goes cold (default 64)",
    )
    parser.add_argument(
        "--churn",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="for 'control': executor churn (deaths/revivals) on "
        "(default) or off (--no-churn)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="for 'control': also replay the calendar on the per-event "
        "ResourceManager reference and fail unless the fingerprints "
        "agree (implied by --quick)",
    )
    parser.add_argument(
        "--ten-million",
        action="store_true",
        help="for 'bench': also run the 10^7-invocation "
        "stress scenario (several minutes; records speedup, "
        "bit-identity, and the RSS guard verdict as 'scale_10m')",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        help="also write each result as DIR/<experiment>.json "
        "(for 'bench': the trajectory FILE to merge into)",
    )
    parser.add_argument(
        "--label",
        default=None,
        help="for 'bench': entry name in the trajectory file (e.g. pr1)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="for 'bench': trajectory file holding the baseline entry "
        "to guard against perf regressions",
    )
    parser.add_argument(
        "--baseline-label",
        default=None,
        help="for 'bench': baseline entry name inside --baseline",
    )
    args = parser.parse_args(argv)

    if args.profile is not None and args.experiment != "scale":
        # A sweep or a batch is many runs and cannot be profiled as one.
        print(
            f"--profile profiles one scale run, not {args.experiment!r}; "
            "profile a single run instead, e.g. the cold driver: "
            "python -m repro.experiments scale --pool-policy cold --profile",
            file=sys.stderr,
        )
        return 2

    if args.experiment == "list":
        width = max(len(key) for key in EXPERIMENTS)
        for key in experiment_ids():
            print(f"{key:<{width}}  {EXPERIMENTS[key].description}")
        return 0

    if args.experiment == "bench":
        from repro.experiments.bench import check_regression, run_bench, show, write_bench

        results = run_bench(
            quick=args.quick, parallel=args.parallel, ten_million=args.ten_million
        )
        show(results)
        if args.json:
            written = write_bench(args.json, results, label=args.label)
            print(f"[wrote {written}]")
        if args.baseline:
            problems = check_regression(results, args.baseline, args.baseline_label)
            if problems:
                for problem in problems:
                    print(f"PERF REGRESSION: {problem}", file=sys.stderr)
                return 1
            print(f"[no perf regression vs {args.baseline_label or 'baseline'}]")
        return 0

    if args.experiment == "report":
        from repro.experiments.report import write_report

        path = write_report(args.out, quick=args.quick)
        print(f"wrote {path}")
        return 0

    batch = args.experiment == "all"
    targets = experiment_ids() if batch else [args.experiment]
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use 'list' to see the available ids", file=sys.stderr)
        return 2

    scale_overrides: dict = {}
    if args.arrival_shape != "poisson":
        scale_overrides["arrival_shape"] = args.arrival_shape
    if args.profile is not None:
        scale_overrides["profile"] = args.profile
    if args.pool_policy is not None:
        scale_overrides["pool_policy"] = args.pool_policy
    if args.start_model is not None:
        scale_overrides["start_model"] = args.start_model
    if args.keepalive_ms is not None:
        scale_overrides["keepalive_ns"] = args.keepalive_ms * 1_000_000
    if args.hybrid_threshold is not None:
        scale_overrides["hybrid_threshold"] = args.hybrid_threshold

    coldstart_overrides: dict = {}
    if args.pool_policy is not None:
        coldstart_overrides["pool_policy"] = args.pool_policy
    if args.start_model is not None:
        coldstart_overrides["start_models"] = (args.start_model,)
    if args.keepalive_ms is not None:
        coldstart_overrides["keepalive_ns"] = args.keepalive_ms * 1_000_000
    if args.hybrid_threshold is not None:
        coldstart_overrides["hybrid_threshold"] = args.hybrid_threshold
    if args.arrival_shape != "poisson":
        coldstart_overrides["arrival_shapes"] = (args.arrival_shape,)

    control_overrides: dict = {}
    if not args.churn:
        control_overrides["churn"] = False
    if args.verify:
        control_overrides["verify"] = True

    multitenant_overrides: dict = {}
    if args.partitioning is not None:
        multitenant_overrides["partitioning"] = args.partitioning
    if args.pool_policy is not None:
        multitenant_overrides["pool_policy"] = args.pool_policy
    if args.start_model is not None:
        multitenant_overrides["start_model"] = args.start_model
    if args.hybrid_threshold is not None:
        multitenant_overrides["hybrid_threshold"] = args.hybrid_threshold

    batch_started = time.perf_counter()
    outcomes = run_specs(
        _batch_specs(
            targets,
            args.quick,
            scale_overrides,
            control_overrides,
            coldstart_overrides,
            multitenant_overrides,
        ),
        args.parallel,
    )
    batch_wall = time.perf_counter() - batch_started

    failures: list[FailedPoint] = []
    timings: list[tuple[str, float]] = []
    for target, outcome in zip(targets, outcomes):
        if isinstance(outcome, FailedPoint):
            failures.append(outcome)
            print(f"[{outcome.summary()}]", file=sys.stderr)
            if outcome.traceback:
                print(outcome.traceback, file=sys.stderr)
            continue
        outcome.result.table().show()
        timings.append((target, outcome.wall_s))
        if args.json:
            from repro.experiments.io import save_result

            written = save_result(outcome.result, f"{args.json}/{target}.json", target)
            print(f"[wrote {written}]")
        print(f"[{target}: {outcome.wall_s:.1f}s wall]")

    if batch:
        summary = Table("Wall-clock per experiment", ["experiment", "wall"])
        for target, wall_s in timings:
            summary.add_row(target, f"{wall_s:.1f}s")
        for failure in failures:
            summary.add_row(failure.label, f"FAILED ({failure.error_type})")
        summary.add_row("total (sum)", f"{sum(w for _, w in timings):.1f}s")
        summary.add_row(f"batch (parallel={args.parallel})", f"{batch_wall:.1f}s")
        summary.show()
    if failures:
        print(f"{len(failures)} experiment(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
