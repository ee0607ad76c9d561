"""Opt-in performance counters for the simulator's own hot loops.

Disabled by default: the fast paths check a single module-level flag
(``perf.enabled``) before touching any counter, so the cost when off is
one dict lookup per instrumented site.  Enable around a measurement:

    from repro import perf

    perf.enable()
    ...  # run a scenario
    stats = perf.snapshot()
    perf.disable()

Counters capture *wall-clock efficiency* facts that simulated results
never show: how many allocations the Timeout pool avoided, and how many
payload bytes moved by reference (``memoryview``) instead of being
copied on the verbs data path.  ``events_per_sec`` is a rate, so it is
computed by the bench harness (events / wall seconds), not here.
"""

from __future__ import annotations

from typing import Any

#: Global gate checked by instrumented fast paths.
enabled = False


class Counters:
    """Accumulators updated by instrumented hot paths while enabled."""

    __slots__ = (
        "bytes_copied",
        "bytes_referenced",
        "alloc_avoided",
        "cold_spinups",
        "cold_reclaims",
        "lease_grants",
        "lease_renewals",
        "lease_steals",
        "dead_nodes",
        "leases_active_peak",
        "fifo_block_arrivals",
        "fifo_step_arrivals",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: Payload bytes materialized (copied) on the RDMA data path.
        self.bytes_copied = 0
        #: Payload bytes passed as zero-copy memoryview references.
        self.bytes_referenced = 0
        #: Object allocations avoided (e.g. recycled pooled timeouts).
        self.alloc_avoided = 0
        #: Sandbox spin-ups fired (cold starts that reached ready).
        self.cold_spinups = 0
        #: Idle-reclaim expiries fired (successful teardowns only).
        self.cold_reclaims = 0
        #: Control-plane leases granted (primary + post-steal re-acquisitions).
        self.lease_grants = 0
        #: Control-plane lease renewals processed.
        self.lease_renewals = 0
        #: Leases terminated by executor death (steals).
        self.lease_steals = 0
        #: Executor deaths applied (churn no-ops excluded).
        self.dead_nodes = 0
        #: Peak concurrently active leases -- a gauge, not a total.
        self.leases_active_peak = 0
        #: FIFO-recurrence arrivals served in vectorized blocks (a
        #: pool's untouched servers included).
        self.fifo_block_arrivals = 0
        #: FIFO-recurrence arrivals stepped one at a time.
        self.fifo_step_arrivals = 0


#: Counters that are sampled gauges (peaks): merged with max, not sum.
_GAUGES = frozenset({"leases_active_peak"})


counters = Counters()


def enable() -> None:
    """Turn counting on (counters keep their current values)."""
    global enabled
    enabled = True


def disable() -> None:
    global enabled
    enabled = False


def reset() -> None:
    """Zero all counters."""
    counters.reset()


def merge(other: dict[str, Any]) -> None:
    """Fold a worker-process snapshot into this process's counters.

    The parallel engine runs instrumented code in worker processes whose
    module-level counters the parent never sees; workers therefore ship
    a :func:`snapshot` back with each result and the parent aggregates
    here, so ``perf`` totals are execution-mode independent.
    """
    for name in Counters.__slots__:
        if name in _GAUGES:
            setattr(counters, name, max(getattr(counters, name), int(other.get(name, 0))))
        else:
            setattr(counters, name, getattr(counters, name) + int(other.get(name, 0)))


def snapshot() -> dict[str, Any]:
    """Current counter values as a plain dict (JSON-friendly)."""
    return {name: getattr(counters, name) for name in Counters.__slots__}


def delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    """Counter movement between two :func:`snapshot` calls."""
    return {name: int(after.get(name, 0)) - int(before.get(name, 0)) for name in after}
