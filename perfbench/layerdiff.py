"""Layer diff: where did a change's saving (or cost) appear?

    python3 perfbench/layerdiff.py BEFORE AFTER

BEFORE and AFTER are traced-run reports (``trace-<workload>.json``, as
written by ``run.py --trace 1``) or directories holding them.  For
every workload present on both sides the diff prints each per-layer
metric whose value changed: before, after, the difference and the
ratio.  Counts are exact, so any change in a count is real; times are
reference-scaled and carry the run-to-run noise of their workload.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Optional


def load(path: str) -> dict[str, dict]:
    """Workload -> report, from one report file or a directory of them."""
    files = sorted(glob.glob(os.path.join(path, "trace-*.json"))) if os.path.isdir(path) else [path]
    if not files:
        raise FileNotFoundError(f"no trace-*.json under {path}")
    reports = {}
    for name in files:
        with open(name) as handle:
            report = json.load(handle)
        reports[report["workload"]] = report
    return reports


def diff(before: dict[str, dict], after: dict[str, dict]) -> dict[str, list[tuple]]:
    """Per workload: ``(metric, unit, before, after, after - before, after / before)``."""
    out: dict[str, list[tuple]] = {}
    for workload in sorted(set(before) & set(after)):
        old = before[workload]["metrics"]
        new = after[workload]["metrics"]
        rows = []
        for metric in sorted(set(old) & set(new)):
            a = old[metric]["value"]
            b = new[metric]["value"]
            if a == b:
                continue
            ratio = b / a if a else float("inf")
            rows.append((metric, new[metric]["unit"], a, b, b - a, ratio))
        out[workload] = rows
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    for workload, rows in diff(before, after).items():
        print(f"{workload}:")
        if not rows:
            print("  (no per-layer metric changed)")
        for metric, unit, a, b, delta, ratio in rows:
            print(f"  {metric:<40} {a:>14.4g} -> {b:>14.4g} {unit:<11} "
                  f"{delta:>+14.4g} ({ratio:.3f}x)")
    only = sorted(set(before) ^ set(after))
    if only:
        print(f"on one side only: {', '.join(only)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
