"""Process-pool execution engine for independent simulation runs.

``run_specs`` fans a list of :class:`RunSpec` out across CPU cores and
reassembles results **in input order**, regardless of completion order.
Guarantees:

* bit-identical to serial execution -- each worker runs one spec from a
  fresh, explicitly seeded state, so no cross-run state can leak;
* crash capture -- a spec that raises, returns an unpicklable value,
  times out, or takes its worker down (segfault) yields a structured
  :class:`FailedPoint` in its slot instead of hanging the suite;
* automatic serial fallback -- ``max_workers <= 1``, a platform without
  ``fork``, or an empty spec list runs everything inline with the same
  failure-capture semantics;
* :mod:`repro.perf` aggregation -- worker-side counters are snapshotted
  and merged into the parent's counters when perf is enabled.

Chunking batches several specs per IPC round trip (``chunksize``); the
per-task timeout then applies to each chunk as submitted.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Optional, Sequence

from repro import perf
from repro.parallel.runspec import FailedPoint, RunSpec, failure_from_exception


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
    ``ValueError``.  The pool, the sweep engine, the bench harness, and
    the CLI all funnel through here so "auto" means exactly one thing.
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


def _worker_chunk(payload: tuple[list[RunSpec], bool]) -> list[tuple[Any, Optional[dict]]]:
    """Worker entry point: run a chunk of specs, snapshot perf per spec."""
    specs, with_perf = payload
    out: list[tuple[Any, Optional[dict]]] = []
    for spec in specs:
        snapshot: Optional[dict] = None
        if with_perf:
            perf.reset()
            perf.enable()
        try:
            outcome = _run_one(spec)
        finally:
            if with_perf:
                snapshot = perf.snapshot()
                perf.disable()
        out.append((outcome, snapshot))
    return out


def _chunked(specs: list[RunSpec], chunksize: int) -> list[list[RunSpec]]:
    size = max(1, int(chunksize))
    return [specs[i : i + size] for i in range(0, len(specs), size)]


def run_specs(
    specs: Sequence[RunSpec],
    max_workers: Optional[int] = None,
    *,
    timeout_s: Optional[float] = None,
    chunksize: int = 1,
    cache: Optional[Any] = None,
) -> list[Any]:
    """Execute *specs*, returning one outcome per spec, in input order.

    Each outcome is either the factory's return value or a
    :class:`FailedPoint`.  ``max_workers=None`` or ``0`` uses one worker
    per available core; ``<= 1`` runs serially in-process (where
    ``timeout_s`` cannot be enforced and is ignored).

    *cache* (a :class:`repro.cache.ResultCache`) short-circuits specs
    whose content key already has a stored result: hits fill their
    result slots without dispatching (merging the stored run's perf
    counters when perf is enabled), only misses run, and successful
    miss results are written back.  :class:`FailedPoint` outcomes and
    uncacheable specs (kwargs without a canonical form) are never
    cached.  ``cache=None`` is byte-for-byte the pre-cache engine: no
    keys are computed, no disk is touched, and each run's RNG draw
    order is exactly what it always was.
    """
    specs = list(specs)
    if not specs:
        return []
    if cache is None:
        return [outcome for outcome, _ in _execute_pairs(specs, max_workers, timeout_s, chunksize)]

    keys = [cache.key_for(spec) for spec in specs]
    results: list[Any] = [None] * len(specs)
    miss_positions: list[int] = []
    for position, key in enumerate(keys):
        if key is not None:
            hit, value, snapshot = cache.lookup(key)
            if hit:
                results[position] = value
                if snapshot and perf.enabled:
                    perf.merge(snapshot)
                continue
        miss_positions.append(position)
    if miss_positions:
        pairs = _execute_pairs(
            [specs[position] for position in miss_positions],
            max_workers,
            timeout_s,
            chunksize,
        )
        for position, (outcome, snapshot) in zip(miss_positions, pairs):
            results[position] = outcome
            if keys[position] is not None and not isinstance(outcome, FailedPoint):
                cache.store(
                    keys[position], outcome, spec=specs[position], perf_snapshot=snapshot
                )
    cache.flush()
    return results


def _execute_pairs(
    specs: list[RunSpec],
    max_workers: Optional[int],
    timeout_s: Optional[float],
    chunksize: int,
) -> list[tuple[Any, Optional[dict]]]:
    """The dispatch engine: (outcome, perf delta) per spec, input order.

    Parallel outcomes carry the worker-side perf snapshot (already
    merged into this process's counters, exactly as before the cache
    existed); serial outcomes carry an in-process counter delta.  The
    snapshot is what the cache persists so later hits can re-merge it.
    """
    max_workers = resolve_workers(max_workers)
    if max_workers <= 1 or not fork_available():
        pairs: list[tuple[Any, Optional[dict]]] = []
        for spec in specs:
            if perf.enabled:
                before = perf.snapshot()
                outcome = _run_one(spec)
                pairs.append((outcome, perf.delta(before, perf.snapshot())))
            else:
                pairs.append((_run_one(spec), None))
        return pairs

    with_perf = perf.enabled
    chunks = _chunked(specs, chunksize)
    results: list[tuple[Any, Optional[dict]]] = [(None, None)] * len(specs)
    context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(
        max_workers=min(max_workers, len(chunks)), mp_context=context
    )
    timed_out = False
    try:
        futures = [pool.submit(_worker_chunk, (chunk, with_perf)) for chunk in chunks]
        position = 0
        broken = False
        for future, chunk in zip(futures, chunks):
            try:
                if broken:
                    raise BrokenProcessPool("pool already broken by an earlier crash")
                outcomes = future.result(timeout=timeout_s)
            except FuturesTimeout:
                timed_out = True
                future.cancel()
                outcomes = [
                    (
                        FailedPoint(
                            index=spec.index,
                            label=spec.name,
                            params=dict(spec.kwargs),
                            error_type="TimeoutError",
                            message=f"no result within {timeout_s}s",
                        ),
                        None,
                    )
                    for spec in chunk
                ]
            except BrokenProcessPool as exc:
                # A worker died hard (segfault, OOM-kill): every not-yet-
                # collected chunk fails structurally instead of hanging.
                broken = True
                outcomes = [
                    (failure_from_exception(spec, exc, tb=""), None) for spec in chunk
                ]
            except Exception as exc:  # e.g. result failed to unpickle
                outcomes = [
                    (failure_from_exception(spec, exc, tb=""), None) for spec in chunk
                ]
            for outcome, snapshot in outcomes:
                if snapshot is not None and perf.enabled:
                    perf.merge(snapshot)
                results[position] = (outcome, snapshot)
                position += 1
    finally:
        # Join the executor's manager thread, unless a chunk timed out:
        # a straggler is abandoned rather than waited on.  A manager
        # thread left running past this call can race the interpreter's
        # exit hook, which then writes to its closed wake-up pipe
        # ("OSError: [Errno 9] Bad file descriptor" at exit).
        pool.shutdown(wait=not timed_out, cancel_futures=True)
    return results
