"""The reference loop and the arithmetic that scales round times by it.

On the host this benchmark was written on (a shared 2-vCPU VM) the
same pure-Python loop runs up to ~1.7x slower in regimes that last
seconds, and CPU time slows together with wall time.  Raw round times
therefore cannot tell two commits apart.  Each timed round
is instead bracketed by two runs of a fixed reference loop, and its
wall time is expressed in units of that loop:

    scaled = wall * R_NOMINAL_S / mean(ref_before, ref_after)

``R_NOMINAL_S`` only fixes the unit (it is the reference time of the
host the bounds were set on); it is a constant so that two commits are
measured on the same scale.  The loop imports nothing from ``repro``,
so no change to the program can make it faster or slower -- except by
leaving a thread or child process running while it is timed, which
:func:`host_is_quiet` detects (the round then counts as failed).
"""

from __future__ import annotations

import heapq
import os
import threading
import time

import numpy as np

#: Reference-loop wall time on the nominal host (2-vCPU VM, CPython
#: 3.11, numpy 2.4): the unit scaled round times are expressed in.
R_NOMINAL_S = 0.030

_NP_SIZE = 1 << 13
_NP_KEYS = (np.arange(_NP_SIZE, dtype=np.int64) * 2_654_435_761) % 1_000_003
_NP_PROBES = np.arange(0, 1_000_003, 997, dtype=np.int64)

#: Pointer-chase table: slot -> next slot, one cycle through all 2^18
#: slots in a scattered order (~10 MB of list and int objects, larger
#: than the CPU's private caches).
_CHASE_SLOTS = 1 << 18
_CHASE_STEPS = 40_000


def _chase_table() -> list:
    order = np.random.default_rng(7).permutation(_CHASE_SLOTS)
    following = np.empty(_CHASE_SLOTS, dtype=np.int64)
    following[order] = np.roll(order, -1)
    return following.tolist()


_CHASE = _chase_table()


class _Slot:
    __slots__ = ("when", "value", "hits")

    def __init__(self, when: int, value: int) -> None:
        self.when = when
        self.value = value
        self.hits = 0


def _pingpong():
    """A generator resumed by ``send``: the shape of a simulator process."""
    total = 0
    while True:
        value = yield total
        total += value & 0xFF


def interpreter_work(rounds: int = 6) -> int:
    """Cache-friendly interpreter work; returns a checksum.

    A heap of timers, ``__slots__`` attribute updates, dict and list
    churn, generator resumes and bytes slicing, plus a small numpy
    sort/searchsorted/cumsum kernel like the scale engine's chunk
    admission.
    """
    checksum = 0
    for r in range(rounds):
        heap: list = []
        table: dict = {}
        slots = [_Slot(i, i * 3) for i in range(256)]
        gen = _pingpong()
        next(gen)
        blob = bytes(range(256)) * 16
        for i in range(2_000):
            slot = slots[i & 255]
            slot.hits += 1
            slot.when += i
            heapq.heappush(heap, (slot.when, i, slot))
            if len(heap) > 64:
                when, _, popped = heapq.heappop(heap)
                checksum += gen.send(when) + popped.value
            key = (i * 31) & 511
            table[key] = table.get(key, 0) + 1
            checksum += len(blob[i & 1023 : (i & 1023) + 64])
        checksum += sum(table.values()) + len(heap)
        keys = np.sort(_NP_KEYS + r)
        checksum += int(np.searchsorted(keys, _NP_PROBES).sum())
        checksum += int(np.cumsum(keys[:1024])[-1])
    return checksum


def memory_chase(steps: int = _CHASE_STEPS) -> int:
    """Dependent loads through scattered objects; returns a checksum."""
    table = _CHASE
    slot = 0
    checksum = 0
    for _ in range(steps):
        slot = table[slot]
        checksum += slot
    return checksum


def reference_loop() -> int:
    """One unit of fixed host work; returns a checksum (never constant-folded).

    About 60% cache-friendly interpreter work and 40% dependent loads
    through memory.  The blend was fitted to round times of all four
    workloads across host-speed regimes: the interpreter part alone
    speeds up more than the workloads when the host gets faster (it
    over-corrected ``hot_invoke`` by ~10%), the memory part alone less.
    """
    return interpreter_work() + memory_chase()


def time_reference() -> float:
    """Wall seconds of one :func:`reference_loop` run."""
    started = time.perf_counter()
    reference_loop()
    return time.perf_counter() - started


def scaled_seconds(wall_s: float, ref_before_s: float, ref_after_s: float) -> float:
    """A round's wall time in units of the reference loop (seconds at
    ``R_NOMINAL_S``): ``wall * R_NOMINAL_S / mean(before, after)``."""
    if wall_s < 0 or ref_before_s <= 0 or ref_after_s <= 0:
        raise ValueError(
            f"bad timings: wall={wall_s!r} refs=({ref_before_s!r}, {ref_after_s!r})"
        )
    return wall_s * R_NOMINAL_S * 2.0 / (ref_before_s + ref_after_s)


def host_is_quiet() -> bool:
    """True when this process runs no other thread and has no live child.

    Checked before every reference timing: a thread or child left
    running by the program would slow the reference and so flatter
    every scaled round.  ``/proc`` sees native threads too (e.g. a BLAS
    pool); elsewhere the Python-level view is the fallback.
    """
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        import multiprocessing

        return threading.active_count() == 1 and not multiprocessing.active_children()
    if len(tasks) != 1:
        return False
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children") as handle:
                if handle.read().strip():
                    return False
        except OSError:
            pass
    return True
