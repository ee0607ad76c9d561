"""Process-pool execution engine for independent simulation runs.

``run_specs`` fans a list of :class:`RunSpec` out across CPU cores and
reassembles results **in input order**, regardless of completion order.
Guarantees:

* bit-identical to serial execution -- each worker runs one spec from a
  fresh state seeded by the spec's own kwargs, so no cross-run state
  can leak;
* crash capture -- a spec that raises, returns an unpicklable value, or
  takes its worker down (segfault) yields a structured
  :class:`FailedPoint` in its slot instead of hanging the suite;
* automatic serial fallback -- ``max_workers <= 1`` or a platform
  without ``fork`` runs everything inline with the same
  failure-capture semantics;
* :mod:`repro.perf` aggregation -- worker-side counters are snapshotted
  and merged into the parent's counters when perf is enabled.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Optional, Sequence

from repro import perf
from repro.parallel.runspec import RunSpec, failure_from_exception


def available_workers() -> int:
    """CPU cores this process may use (affinity-aware, never < 1).

    Prefers :func:`os.process_cpu_count` (Python 3.13+, the canonical
    "CPUs usable by this process" call); older interpreters fall back
    to the affinity mask it is defined in terms of.
    """
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        return max(1, process_cpu_count() or 1)
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_workers(requested: "int | str | None" = None) -> int:
    """THE ``--parallel`` fallback chain, shared by every dispatch path.

    ``None``, ``0``, negative, ``"auto"``, or ``""`` resolve to one
    worker per usable CPU (:func:`available_workers`); a positive value
    (or its string form) is taken literally.  Anything else raises
    ``ValueError``.  The pool and the bench harness funnel through
    here, so "auto" means exactly one thing.
    """
    if requested is None:
        return available_workers()
    if isinstance(requested, str):
        text = requested.strip().lower()
        if text in ("auto", ""):
            return available_workers()
        requested = int(text)  # raises ValueError on junk
    workers = int(requested)
    if workers <= 0:
        return available_workers()
    return workers


def fork_available() -> bool:
    """Whether the platform supports fork-start workers (Linux/macOS)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _run_one(spec: RunSpec) -> Any:
    """Run one spec in the current process, capturing failure as data."""
    try:
        return spec.call()
    except Exception as exc:
        return failure_from_exception(spec, exc)


def _worker(spec: RunSpec, with_perf: bool) -> tuple[Any, Optional[dict]]:
    """Worker entry point: run one spec, snapshot its perf counters."""
    if not with_perf:
        return _run_one(spec), None
    perf.reset()
    perf.enable()
    try:
        return _run_one(spec), perf.snapshot()
    finally:
        perf.disable()


def run_specs(specs: Sequence[RunSpec], max_workers: Optional[int] = None) -> list[Any]:
    """Execute *specs*, returning one outcome per spec, in input order.

    Each outcome is either the factory's return value or a
    :class:`FailedPoint`.  ``max_workers=None`` or ``0`` uses one worker
    per available core; ``<= 1`` runs serially in-process.  With more
    than one worker every spec runs in a forked process, even a single
    one.
    """
    specs = list(specs)
    if not specs:
        return []
    max_workers = resolve_workers(max_workers)
    if max_workers <= 1 or not fork_available():
        return [_run_one(spec) for spec in specs]

    with_perf = perf.enabled
    results: list[Any] = []
    pool = ProcessPoolExecutor(
        max_workers=min(max_workers, len(specs)),
        mp_context=multiprocessing.get_context("fork"),
    )
    try:
        futures = [pool.submit(_worker, spec, with_perf) for spec in specs]
        broken = False
        for spec, future in zip(specs, futures):
            snapshot = None
            try:
                if broken:
                    raise BrokenProcessPool("pool already broken by an earlier crash")
                outcome, snapshot = future.result()
            except BrokenProcessPool as exc:
                # A worker died hard (segfault, OOM-kill): every not-yet-
                # collected spec fails structurally instead of hanging.
                broken = True
                outcome = failure_from_exception(spec, exc, tb="")
            except Exception as exc:  # e.g. result failed to unpickle
                outcome = failure_from_exception(spec, exc, tb="")
            if snapshot is not None:
                perf.merge(snapshot)
            results.append(outcome)
    finally:
        # Join the executor's manager thread: one left running past this
        # call can race the interpreter's exit hook, which then writes
        # to its closed wake-up pipe ("OSError: [Errno 9] Bad file
        # descriptor" at exit).
        pool.shutdown(wait=True, cancel_futures=True)
    return results
