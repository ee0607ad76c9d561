"""Vectorized single-server FIFO replay for manager-side latencies.

The control-plane scenario models the resource manager's CPU as one
FIFO server: every RPC that reaches it (lease requests, renewals,
releases, re-acquisitions after a steal) queues behind the in-flight
one, so renewal storms and post-churn re-acquire bursts show up as
latency tails -- the effect the scenario exists to measure.

Both control drivers (the per-event RPC reference and the vectorized
kernel) produce the *same multiset* of manager events; this module is
the single shared post-pass that turns those logs into latencies, so
the two drivers' statistics agree bit for bit by construction: one
canonical sort, one exact vectorized recurrence, one
:class:`~repro.analysis.streams.StreamingSummary` observation order.

The recurrence for completion times is the classic Lindley unrolling::

    done_i = max(t_i, done_{i-1}) + s_i
           = C_i + max_{j <= i} (t_j - C_{j-1})      with C = cumsum(s)

which vectorizes to one ``cumsum`` plus one ``maximum.accumulate`` --
exact integer arithmetic, no approximation.

:class:`FifoServers` is the same recurrence over ``c`` servers: each
arrival takes the earliest-free server, the per-core finish-time list
of a greedy list scheduler.  It has no closed form, so it walks the
arrivals, but only where they can queue -- the scale engine's
``queue`` policy runs on it instead of walking ~9 events per
invocation, for one stream and for tenants on a shared or pinned pool
(see :mod:`repro.experiments.scale`).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heapreplace
from typing import Any, Optional, Sequence

import numpy as np


def replay_fifo(
    times: np.ndarray, kinds: np.ndarray, keys: np.ndarray, service_ns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Serve the logged events through one FIFO server.

    ``times``/``kinds``/``keys`` are parallel rows (arrival instant,
    event-kind code, disambiguating id); ``service_ns[kind]`` is the
    per-kind service cost.  Rows are first put into the canonical order
    ``(time, kind, key)`` -- the triple is unique for every control
    event class, so the order is total and identical for any two logs
    holding the same multiset of rows.

    Returns ``(order, done)``: the canonical-order permutation and the
    completion instant of each row *in that order*.
    """
    times = np.asarray(times, dtype=np.int64)
    kinds = np.asarray(kinds, dtype=np.int64)
    keys = np.asarray(keys, dtype=np.int64)
    if not (times.shape == kinds.shape == keys.shape) or times.ndim != 1:
        raise ValueError("times/kinds/keys must be equal-length 1-D arrays")
    if times.size == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
    order = np.lexsort((keys, kinds, times))
    t = times[order]
    s = np.asarray(service_ns, dtype=np.int64)[kinds[order]]
    c = np.cumsum(s)
    slack = t - (c - s)  # t_j - C_{j-1}
    done = c + np.maximum.accumulate(slack)
    return order, done


def sojourn_by_kind(
    times: np.ndarray,
    kinds: np.ndarray,
    keys: np.ndarray,
    service_ns: np.ndarray,
    kind_count: int,
) -> list[np.ndarray]:
    """FIFO sojourn times (done - arrival) split per kind.

    Each returned array is in canonical event order, so observing it
    into a :class:`~repro.analysis.streams.StreamingSummary` with one
    ``observe_many`` call is deterministic across drivers.
    """
    order, done = replay_fifo(times, kinds, keys, service_ns)
    sojourn = done - np.asarray(times, dtype=np.int64)[order]
    sorted_kinds = np.asarray(kinds, dtype=np.int64)[order]
    return [sojourn[sorted_kinds == kind] for kind in range(kind_count)]


class FifoServers:
    """Exact ``c``-server FIFO queue, fed one arrival chunk at a time.

    Arrival ``i`` takes the earliest-free server and starts at
    ``max(t_i, free)``.  A server that frees at an arrival's own
    instant serves it without queueing (completions precede arrivals at
    equal times), and equal arrival times are served in index order.
    With one server this is :func:`replay_fifo`'s Lindley pass.

    Arrivals may carry a key (a tenant, say) with a per-key queue cap:
    an arrival that must wait while its key already has ``caps[key]``
    arrivals waiting is rejected -- it takes no server and its start
    reads ``-1``.  Waiters of all keys are still served in index order,
    so the caller's order of equal times is the tie rule.  Without
    *caps* every arrival has key 0 and no cap.

    Only the finish times of servers that have run are kept -- numpy
    blocks while some server is still untouched, one heap afterwards --
    so memory is bounded by the pool size, not by the stream.  Per key,
    ``queued_by`` counts arrivals that had to wait, ``max_backlog_by``
    is the peak number waiting at once and ``rejected_by`` counts
    arrivals turned away at the cap.
    """

    def __init__(self, servers: int, caps: Optional[Sequence[int]] = None) -> None:
        if servers < 1:
            raise ValueError(f"need at least one server, got {servers}")
        keys = 1 if caps is None else len(caps)
        if keys < 1:
            raise ValueError("need at least one key")
        self.untouched = servers
        self._caps = None if caps is None else list(caps)
        self.queued_by = [0] * keys
        self.max_backlog_by = [0] * keys
        self.rejected_by = [0] * keys
        self._blocks: list[np.ndarray] = []
        self._heap: list[int] = []
        #: Per key, start times of the arrivals still waiting
        #: (non-decreasing).
        self._waiting: list[deque[int]] = [deque() for _ in range(keys)]

    @property
    def queued(self) -> int:
        return sum(self.queued_by)

    @property
    def max_backlog(self) -> int:
        return max(self.max_backlog_by)

    def serve(self, times: Any, services: Any, keys: Any = None) -> np.ndarray:
        """Start times of the next chunk of arrivals (``-1``: rejected).

        *times* must be non-decreasing and no earlier than the previous
        chunk's; *services* are the matching service times and *keys*
        the matching keys in ``range(len(caps))`` (default: all 0).
        """
        times = np.asarray(times, dtype=np.int64)
        services = np.asarray(services, dtype=np.int64)
        if times.shape != services.shape or times.ndim != 1:
            raise ValueError("times/services must be equal-length 1-D arrays")
        n = int(times.size)
        if keys is not None:
            keys = np.asarray(keys)
            if keys.shape != times.shape:
                raise ValueError("keys must match times")
            if n and not (0 <= keys.min() and keys.max() < len(self._waiting)):
                raise ValueError(f"keys must lie in [0, {len(self._waiting)})")
        fresh = min(self.untouched, n)
        if fresh:
            self._blocks.append(times[:fresh] + services[:fresh])
            self.untouched -= fresh
            if not self.untouched:
                self._heap = np.concatenate(self._blocks).tolist()
                heapify(self._heap)
                self._blocks = []
        if fresh == n:
            return times
        starts = times.tolist()
        durations = services.tolist()
        heap = self._heap
        caps = self._caps
        keyed = caps is not None
        if keyed:
            if keys is None:
                keys = np.zeros(n, dtype=np.intp)
            tags = keys.tolist()
            waiting_by = self._waiting
            backlog_by = self.max_backlog_by
        waiting = self._waiting[0]
        max_backlog = self.max_backlog_by[0]
        for i in range(fresh, n):
            arrival = starts[i]
            free = heap[0]
            if free <= arrival:
                heapreplace(heap, arrival + durations[i])
                continue
            if keyed:
                # The tail below with per-key waiting lists and a cap
                # check; kept apart because the per-key lookups cost ~20%
                # on a saturated single stream.
                key = tags[i]
                pending = waiting_by[key]
                while pending and pending[0] <= arrival:
                    pending.popleft()
                depth = len(pending)
                if depth >= caps[key]:
                    starts[i] = -1
                    continue
                starts[i] = free
                heapreplace(heap, free + durations[i])
                pending.append(free)
                if depth >= backlog_by[key]:
                    backlog_by[key] = depth + 1
                continue
            starts[i] = free
            heapreplace(heap, free + durations[i])
            while waiting and waiting[0] <= arrival:
                waiting.popleft()
            waiting.append(free)
            if len(waiting) > max_backlog:
                max_backlog = len(waiting)
        result = np.asarray(starts, dtype=np.int64)
        if not keyed:
            self.max_backlog_by[0] = max_backlog
            self.queued_by[0] += int(np.count_nonzero(result > times))
            return result
        for book, hits in ((self.queued_by, result > times), (self.rejected_by, result < 0)):
            for key, count in enumerate(np.bincount(keys[hits], minlength=len(book))):
                book[key] += int(count)
        return result
