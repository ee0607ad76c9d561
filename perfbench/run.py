"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload hot_invoke --seed 3 --seconds 20 --trace 0

The process sets up the workload ``SETUPS`` times (``setup_s`` is the
import time plus the median set-up), then runs reference-scaled rounds
for ``--seconds`` and prints one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run spends
half its time untraced and half traced (spans on every layer's entry
points) and prints the per-layer metrics instead, after writing the
spans to ``--out``.  Lines before the last are human-readable detail.
See README.md for the workloads, metrics and the layer map.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One thread: numpy's BLAS pool must not start (see reference.host_is_quiet).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Any, Optional  # noqa: E402

import reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Set-ups per run; ``setup_s`` reports their median (plus imports).
SETUPS = 5
#: A run times at least this many rounds, however short ``--seconds``.
MIN_ROUNDS = 5
#: A traced phase also ends once its span log holds this many entries
#: (two per span boundary): it bounds the trace's memory and file size.
MAX_TRACE_LOG = 4_000_000


@dataclass
class Round:
    """One timed round: its raw wall time and the references around it."""

    wall_s: float
    ref_before_s: float
    ref_after_s: float
    ops: int
    failed: int
    #: The reference was timed while another thread or child was alive.
    unguarded: bool
    gc_passes: int
    gauges: dict = field(default_factory=dict)
    #: Span-log positions at the round's start and end (traced runs only).
    log_start: int = 0
    log_end: int = 0

    @property
    def factor(self) -> float:
        """Multiplier from raw to reference-scaled time."""
        return reference.scaled_seconds(1.0, self.ref_before_s, self.ref_after_s)

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.factor


def _gc_passes() -> int:
    return sum(gen["collections"] for gen in gc.get_stats())


def _guarded_reference() -> tuple[float, bool]:
    """Time the reference loop; second item is False if the host was not quiet."""
    quiet = reference.host_is_quiet()
    seconds = reference.time_reference()
    return seconds, quiet and reference.host_is_quiet()


def timed_phase(workload: Any, seconds: float, recorder: Any = None) -> list[Round]:
    """Rounds bracketed by reference timings until *seconds* have passed."""
    rounds: list[Round] = []
    gc.collect()
    ref_before, quiet_before = _guarded_reference()
    deadline = time.perf_counter() + seconds
    while True:
        first = len(recorder) if recorder is not None else 0
        passes = _gc_passes()
        started = time.perf_counter()
        result = workload.run_round()
        wall = time.perf_counter() - started
        passes = _gc_passes() - passes
        last = len(recorder) if recorder is not None else 0
        ref_after, quiet_after = _guarded_reference()
        unguarded = not (quiet_before and quiet_after)
        rounds.append(
            Round(
                wall_s=wall,
                ref_before_s=ref_before,
                ref_after_s=ref_after,
                ops=result.ops,
                failed=result.ops if unguarded else result.failed,
                unguarded=unguarded,
                gc_passes=passes,
                gauges=result.gauges,
                log_start=first,
                log_end=last,
            )
        )
        for error in result.errors[:3]:
            print(f"round {len(rounds)}: {error}", file=sys.stderr)
        if unguarded:
            print(f"round {len(rounds)}: reference timed with another thread or child alive",
                  file=sys.stderr)
        ref_before, quiet_before = ref_after, quiet_after
        if len(rounds) >= MIN_ROUNDS and (
            time.perf_counter() >= deadline
            or (recorder is not None and len(recorder) >= MAX_TRACE_LOG)
        ):
            return rounds


def summarize(rounds: list[Round]) -> dict[str, float]:
    """Median scaled and raw throughput over the rounds that count."""
    good = [r for r in rounds if not r.unguarded] or rounds
    return {
        "ops_per_s": statistics.median(r.ops / r.scaled_s for r in good),
        "raw_ops_per_s": statistics.median(r.ops / r.wall_s for r in good),
        "wall_s_raw": statistics.median(r.wall_s for r in good),
        "ref_ms_p50": 1e3 * statistics.median(r.ref_after_s for r in good),
        "round_ms_p90": 1e3 * _quantile([r.scaled_s for r in good], 0.9),
        "rounds": len(good),
    }


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mb() -> float:
    import resource

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=os.path.join(HERE, "out"), help="where a traced run writes its spans"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        import numpy  # noqa: F401

        import repro.core.deployment  # noqa: F401
        import repro.experiments.scale  # noqa: F401
        import repro.workloads.noop  # noqa: F401
        from repro import perf
    except ImportError as error:
        print(f"perfbench: cannot import the program: {error}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (have {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    if args.trace:
        # Counters cover the whole traced run, set-up included.
        perf.reset()
        perf.enable()
    import_s = time.perf_counter() - _T0

    workload = WORKLOADS[args.workload](args.seed)
    attempted = failed = 0
    setups: list[float] = []
    for _ in range(SETUPS):
        gc.collect()
        started = time.perf_counter()
        result = workload.setup()
        setups.append(time.perf_counter() - started)
        attempted += result.ops
        failed += result.failed
        for error in result.errors[:3]:
            print(f"setup: {error}", file=sys.stderr)
    setup_s = import_s + statistics.median(setups)

    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds = timed_phase(workload, seconds)
    attempted += sum(r.ops for r in rounds)
    failed += sum(r.failed for r in rounds)
    summary = summarize(rounds)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "import_s": import_s,
        "setups_s": setups,
        **summary,
        "rounds_scaled_s": [r.scaled_s for r in rounds],
        "rounds_raw_s": [r.wall_s for r in rounds],
    }

    if args.trace:
        import layers

        traced = layers.traced_run(args.workload, args.seed, seconds, workload, timed_phase)
        attempted += traced.attempted
        failed += traced.failed
        metrics = layers.per_layer_metrics(traced, rounds, summary, failed, attempted)
        path = layers.write_trace(args.out, args.workload, args.seed, traced, metrics)
        detail["trace_file"] = path
        detail["attribution_us_op"] = traced.attribution_us_op
        out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        out = {
            "ops_per_s": {"value": summary["ops_per_s"], "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    detail["failed_frac"] = failed / attempted
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
