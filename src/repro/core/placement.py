"""Executor placement policies (Sec. III-D round robin), pluggable.

The resource manager's only placement decision is "which spot executor
serves this lease?".  The paper's answer is round-robin first-fit over
the executors with capacity; this module makes that policy a
first-class object with two implementations of the same scan:

* :class:`RoundRobinFirstFit` -- the scalar reference used by the RPC
  manager (:class:`repro.core.resource_manager.ResourceManager`).  It
  preserves the historical scan semantics *exactly* -- same iteration
  order, same round-robin cursor arithmetic, dead records consume a
  scan step but are skipped before any capacity math -- while caching
  the sorted name list (the old code re-sorted every grant, which is
  O(E log E) per lease at cluster scale).
* :class:`BitmaskFirstFit` -- the control-plane kernel's placement
  (:mod:`repro.experiments.control`): uniform executors and requests
  sized in whole cores with memory in proportion, so eligibility is one
  Python-int bitmask per request size and a pick is a lowest-set-bit
  query from the cursor.  Picks, cursor movement and free capacity are
  contractually identical to the scalar policy;
  ``tests/core/test_placement.py`` pins the contract on randomized
  sequences.

Both answer the same question with the same cursor rule: scan
``sorted(names)`` cyclically starting at ``rr_index``; the first
*alive* record satisfying ``(allow_oversubscription or free_cores >=
cores) and free_memory >= memory_bytes`` wins, and the cursor moves to
the winner's successor.  A full fruitless cycle leaves the cursor
untouched.  (:class:`BitmaskFirstFit` never oversubscribes.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.resource_manager import ExecutorRecord


class RoundRobinFirstFit:
    """Scalar round-robin first-fit over a name-keyed record dict."""

    __slots__ = ("rr_index", "_names")

    def __init__(self) -> None:
        self.rr_index = 0
        self._names: Optional[list[str]] = None

    def invalidate(self) -> None:
        """Drop the cached name order (membership changed)."""
        self._names = None

    def _sorted_names(self, executors: dict) -> list[str]:
        names = self._names
        if names is None or len(names) != len(executors):
            names = self._names = sorted(executors)
        return names

    def pick(
        self,
        executors: dict,
        cores: int,
        memory_bytes: int,
        allow_oversubscription: bool = False,
    ) -> Optional["ExecutorRecord"]:
        """First record with capacity at or after the cursor, else None."""
        names = self._sorted_names(executors)
        if not names:
            return None
        size = len(names)
        rr = self.rr_index
        for step in range(size):
            record = executors[names[(rr + step) % size]]
            # Dead records consume a scan step (the cursor arithmetic
            # counts them) but are skipped before any capacity math.
            if not record.alive:
                continue
            fits_cores = allow_oversubscription or record.free_cores >= cores
            if fits_cores and record.free_memory >= memory_bytes:
                self.rr_index = (rr + step + 1) % size
                return record
        return None


class BitmaskFirstFit:
    """Round-robin first-fit over uniform executors, one bitmask per size.

    Every request asks for ``c`` cores and ``c * memory_per_core``
    bytes, so an alive executor fits every size up to its *level*,
    ``min(free cores, free memory // memory_per_core)``.  Bit ``i`` of
    ``masks[c]`` (``c >= 1``) is set while executor ``i`` -- the rank of
    its name in sorted order -- fits size ``c``.  A pick is the lowest
    set bit at or after the cursor, else the lowest overall: the order
    in which :class:`RoundRobinFirstFit` scans its sorted name list,
    with dead executors at level 0.
    """

    __slots__ = ("size", "cores", "memory", "memory_per_core", "max_cores", "free_cores",
                 "free_memory", "alive", "masks", "rr_index", "_level")

    def __init__(
        self, executors: int, cores: int, memory_bytes: int, memory_per_core: int, max_cores: int
    ) -> None:
        self.size = executors
        self.cores = cores
        self.memory = memory_bytes
        self.memory_per_core = memory_per_core
        self.max_cores = max_cores
        self.free_cores = [cores] * executors
        self.free_memory = [memory_bytes] * executors
        self.alive = [True] * executors
        self._level = [0] * executors
        self.masks = [0] * (max_cores + 1)
        self.rr_index = 0
        for index in range(executors):
            self._refit(index)

    def _refit(self, index: int) -> None:
        """Move executor *index* to the masks of the sizes it now fits."""
        level = 0
        if self.alive[index]:
            level = self.free_memory[index] // self.memory_per_core
            cores = self.free_cores[index]
            if cores < level:
                level = cores
            if level > self.max_cores:
                level = self.max_cores
        old = self._level[index]
        if level == old:
            return
        self._level[index] = level
        bit = 1 << index
        masks = self.masks
        low, high = (old, level) if old < level else (level, old)
        for size in range(low + 1, high + 1):
            masks[size] ^= bit

    def place(self, cores: int) -> int:
        """Grant *cores* on the first fitting executor from the cursor.

        Returns its index, or -1 (cursor untouched) when none fits.
        """
        fits = self.masks[cores]
        rr = self.rr_index
        ahead = fits >> rr
        if ahead:
            index = rr + (ahead & -ahead).bit_length() - 1
        elif fits:
            index = (fits & -fits).bit_length() - 1
        else:
            return -1
        self.rr_index = (index + 1) % self.size
        self.free_cores[index] -= cores
        self.free_memory[index] -= cores * self.memory_per_core
        self._refit(index)
        return index

    # -- state transitions mirrored from the RPC manager ------------------

    def reclaim(self, index: int, cores: int) -> None:
        self.free_cores[index] += cores
        self.free_memory[index] += cores * self.memory_per_core
        self._refit(index)

    def kill(self, index: int) -> None:
        """Mark dead.  Capacity stays decremented, exactly like
        ``ResourceManager._declare_dead`` (which clears the lease list
        without returning capacity -- the node is gone)."""
        self.alive[index] = False
        self._refit(index)

    def revive(self, index: int) -> None:
        """Node back with full capacity (its leases all terminated)."""
        self.alive[index] = True
        self.free_cores[index] = self.cores
        self.free_memory[index] = self.memory
        self._refit(index)
