"""Steadiness report: run one workload N times and show how much it spreads.

    python3 perfbench/steadiness.py --workload openloop --runs 10 --seconds 20

Each run is a separate ``run.py`` process with its own seed (``--seed0``,
``--seed0 + 1``, ...).  For every end-to-end metric the report prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, (Q3 - Q1) / median; for ``ops_per_s`` it also prints the
spread of the unscaled throughput, so the effect of reference scaling
is visible.  The bounds in ``BENCHMARK.json`` are set from this report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, Q1, Q3, (Q3 - Q1) / median)`` of *values*."""
    if len(values) < 2:
        raise ValueError("need at least two values")
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``run.py`` process; returns (its result line, its detail line)."""
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"run failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def report(results: list[tuple[dict, dict]]) -> dict:
    """Per-metric spread over the runs, plus raw-versus-scaled throughput."""
    out: dict = {"runs": len(results), "failed": sum(r["failed"] for r, _ in results)}
    for name in results[0][0]["metrics"]:
        values = [r["metrics"][name]["value"] for r, _ in results]
        median, q1, q3, rel = spread(values)
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": rel, "values": values}
    raw = [d["raw_ops_per_s"] for _, d in results]
    median, q1, q3, rel = spread(raw)
    out["raw_ops_per_s"] = {"median": median, "q1": q1, "q3": q3, "spread": rel, "values": raw}
    return out


def print_report(workload: str, table: dict) -> None:
    print(f"{workload}: {table['runs']} runs, {table['failed']} failed operations")
    print(f"  {'metric':<16} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8}")
    for name, row in table.items():
        if isinstance(row, dict):
            print(
                f"  {name:<16} {row['median']:>12.4g} {row['q1']:>12.4g} "
                f"{row['q3']:>12.4g} {row['spread']:>8.3f}"
            )
    scaled = table.get("ops_per_s", {}).get("spread")
    raw = table["raw_ops_per_s"]["spread"]
    if scaled is not None:
        print(f"  reference scaling: ops_per_s spread {raw:.3f} raw -> {scaled:.3f} scaled")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--json", help="also write the report here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    results = [
        run_once(args.workload, args.seed0 + i, args.seconds) for i in range(args.runs)
    ]
    table = report(results)
    print_report(args.workload, table)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({args.workload: table}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
