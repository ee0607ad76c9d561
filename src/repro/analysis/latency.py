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
canonical sort and one exact vectorized recurrence.  The
:class:`~repro.analysis.streams.StreamingSummary` the latencies feed
does not depend on observation order (integer total, histogram
counts, min and max).

The recurrence for completion times is the classic Lindley unrolling::

    done_i = max(t_i, done_{i-1}) + s_i
           = C_i + max_{j <= i} (t_j - C_{j-1})      with C = cumsum(s)

which vectorizes to one ``cumsum`` plus one ``maximum.accumulate`` --
exact integer arithmetic, no approximation.

:class:`FifoServers` is the same recurrence over ``c`` servers: each
arrival takes the earliest-free server, the per-core finish-time list
of a greedy list scheduler.  It has no closed form, but runs of up to
``c`` arrivals that each take the next free time in sorted order
vectorize exactly, and only short runs are stepped one at a time --
the scale engine's ``queue`` policy runs on it instead of walking ~9
events per invocation, for one stream and for tenants on a shared or
pinned pool (see :mod:`repro.experiments.scale`).
"""

from __future__ import annotations

from collections import deque
from heapq import heapreplace
from typing import Any, Optional, Sequence

import numpy as np

from repro import perf


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
    """FIFO sojourn times (done - arrival) split per kind, each an
    ``int64`` array in canonical event order."""
    order, done = replay_fifo(times, kinds, keys, service_ns)
    sojourn = done - np.asarray(times, dtype=np.int64)[order]
    sorted_kinds = np.asarray(kinds, dtype=np.int64)[order]
    return [sojourn[sorted_kinds == kind] for kind in range(kind_count)]


#: Fewest arrivals a block must hold to pay for its numpy calls; after
#: a shorter one the next arrivals are stepped one at a time.
_MIN_BLOCK = 32


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
    *caps* there is one key and no cap.  A chunk's keys come as one
    grouping: per key, the ascending positions of its arrivals.

    **Blocks.**  While some server is untouched the next arrivals start
    at once and only their finish times are kept, so a pool larger than
    the stream stores nothing else.  Afterwards the ``c`` free times
    are one sorted array ``p``, and the next ``B <= c`` arrivals are
    served as a block: arrival ``j`` takes ``p[j]``, starting at
    ``max(t_j, p[j])`` and finishing at ``f_j``.  The earliest free
    time arrival ``j`` could see is the least of ``p[j:]`` and ``f_0 ..
    f_{j-1}``, which is ``p[j]`` exactly while ``p[j] <= min(f_0 ..
    f_{j-1})``; so the block holds up to the first arrival where that
    fails, and its finishes merge back into ``p``.  That arrival is
    the first free time past the block's earliest finish ``m``, at
    ``p.searchsorted(m, side="right")`` (capped at ``B``): every
    finish is at least the free time it took (``f_k >= p[k]``, services
    being non-negative), so the arrivals up to ``m``'s own, and any
    whose free time does not pass ``m``, see ``p[j] <= m <= min(f_0 ..
    f_{j-1})``, while the next free time does pass an earlier finish.
    A block writes its starts straight into the output and its finishes
    into a scratch array kept across blocks; the merge fills a spare
    pool buffer, which then swaps with ``p``.  After a block of fewer than
    ``_MIN_BLOCK`` arrivals (small pools, wide service spread) a
    stretch of ``L`` arrivals is stepped one at a time on a heap of the
    ``L`` earliest free times -- ``L`` arrivals can take no other --
    the stretch doubling while blocks stay short.

    **Queue caps.**  A key's depth at an arrival is at most its waiters
    pending from earlier chunks plus its earlier arrivals in the chunk,
    so no cap can bind in a chunk where each key's pending waiters plus
    its group's size stay within its cap; such a chunk is served in
    blocks.  Any other chunk is stepped one arrival at a time, checking
    the cap at every waiting arrival.

    **Queue depths.**  Starts are non-decreasing in arrival order, so
    a waiting arrival's depth is the number of earlier same-key
    arrivals that start after it arrives.  One comparison of the
    chunk's starts with its times marks the waiters; per key, they are
    read at the key's positions in the grouping, and one
    ``searchsorted`` over the starts of the key's waiters still pending
    from earlier chunks and the chunk's own gives every depth.  Per
    key, ``queued_by`` counts arrivals that had to wait,
    ``max_backlog_by`` is the peak number waiting at once and
    ``rejected_by`` counts arrivals turned away at the cap, which only
    the one-at-a-time loop does.  Memory is bounded by the pool size
    plus the waiters, not by the stream.
    """

    def __init__(self, servers: int, caps: Optional[Sequence[int]] = None) -> None:
        if servers < 1:
            raise ValueError(f"need at least one server, got {servers}")
        keys = 1 if caps is None else len(caps)
        if keys < 1:
            raise ValueError("need at least one key")
        for key, cap in enumerate(caps or ()):
            if cap < 0:
                raise ValueError(f"key {key} has a negative queue cap ({cap})")
        self.untouched = servers
        self._caps = None if caps is None else list(caps)
        self.queued_by = [0] * keys
        self.max_backlog_by = [0] * keys
        self.rejected_by = [0] * keys
        #: Finish times of the servers run so far, while some is untouched.
        self._blocks: list[np.ndarray] = []
        #: Sorted free times of all servers, once every server has run,
        #: and the buffer the next merge fills.
        self._pool = self._spare = np.empty(0, dtype=np.int64)
        #: Block scratch: the finishes of a block's arrivals.
        self._finish = np.empty(0, dtype=np.int64)
        #: Per key, start times (non-decreasing) of the arrivals still
        #: waiting at the last arrival.
        self._pending = [np.empty(0, dtype=np.int64) for _ in range(keys)]
        self._last = -(1 << 63)

    @property
    def queued(self) -> int:
        return sum(self.queued_by)

    @property
    def max_backlog(self) -> int:
        return max(self.max_backlog_by)

    def serve(self, times: Any, services: Any, groups: Any = None) -> np.ndarray:
        """Start times of the next chunk of arrivals (``-1``: rejected).

        *times* must be non-decreasing and no earlier than the previous
        chunk's, and *services*, the matching service times, must be
        non-negative (``ValueError`` otherwise).  *groups* holds, per
        key in ``range(len(caps))``, the ascending positions of that
        key's arrivals in the chunk, every position in exactly one
        group; a pool with one key takes ``None``: every arrival is key
        0.
        """
        times = np.asarray(times, dtype=np.int64)
        services = np.asarray(services, dtype=np.int64)
        if times.shape != services.shape or times.ndim != 1:
            raise ValueError("times/services must be equal-length 1-D arrays")
        n = int(times.size)
        if groups is None:
            if len(self._pending) > 1:
                raise ValueError(f"a pool with {len(self._pending)} keys needs groups")
        else:
            groups = [np.asarray(group, dtype=np.intp) for group in groups]
            _check_groups(groups, len(self._pending), n)
        if n:
            if bool((times[1:] < times[:-1]).any()):
                raise ValueError("arrival times must be non-decreasing")
            if services.min() < 0:
                raise ValueError("service times must be non-negative")
            if times[0] < self._last:
                raise ValueError(
                    f"chunk starts at {int(times[0])}, before the previous "
                    f"chunk's last arrival at {self._last}"
                )
            self._last = int(times[-1])
        fresh = min(self.untouched, n)
        if fresh:
            self._blocks.append(times[:fresh] + services[:fresh])
            self.untouched -= fresh
            if not self.untouched:
                self._pool = np.sort(np.concatenate(self._blocks))
                self._spare = np.empty_like(self._pool)
                self._blocks = []
        stepped = 0
        if fresh == n:
            starts = times
        else:
            starts = times.copy()
            caps = self._caps
            sizes = [n] if groups is None else [group.size for group in groups]
            if caps is not None and any(
                pending.size + size > cap
                for pending, size, cap in zip(self._pending, sizes, caps)
            ):
                # A depth reaches at most pending + size - 1: only here
                # can some cap bind.
                keys = np.zeros(n, dtype=np.intp)
                for key, group in enumerate(groups or ()):
                    keys[group] = key
                self._serve_capped(times[fresh:], services[fresh:], keys[fresh:], starts[fresh:])
                stepped = n - fresh
            else:
                stepped = self._serve_blocks(times[fresh:], services[fresh:], starts[fresh:])
            self._book(times, starts, groups)
        if perf.enabled:
            perf.counters.fifo_block_arrivals += n - stepped
            perf.counters.fifo_step_arrivals += stepped
        return starts

    def _serve_blocks(self, times: np.ndarray, services: np.ndarray, starts: np.ndarray) -> int:
        """Serve arrivals on the sorted pool in blocks, filling *starts*.

        Returns how many arrivals were stepped one at a time.
        """
        pool, spare = self._pool, self._spare
        servers = pool.size
        n = times.size
        largest = min(servers, n)  # no block is longer
        if self._finish.size < largest:
            self._finish = np.empty(largest, dtype=np.int64)
        finishes = self._finish
        i = stepped = 0
        probe = servers
        stretch = _MIN_BLOCK
        while i < n:
            size = min(probe, n - i)
            if size >= _MIN_BLOCK:
                start = np.maximum(times[i : i + size], pool[:size], out=starts[i : i + size])
                finish = np.add(start, services[i : i + size], out=finishes[:size])
                # The first arrival an earlier finish in the block beats
                # to a server ends the block: the first free time past
                # the block's earliest finish.
                held = min(size, int(pool.searchsorted(finish.min(), side="right")))
                pool, spare = _merge_head(pool, spare, finish[:held])
                i += held
                # Probe about as far as the last block reached.
                probe = min(servers, 2 * held + _MIN_BLOCK)
                if held >= _MIN_BLOCK:
                    stretch = _MIN_BLOCK
                    continue
            end = min(n, i + stretch)
            pool, spare = _step(pool, spare, times[i:end], services[i:end], starts[i:end])
            stepped += end - i
            i = end
            stretch *= 2
            probe = servers
        self._pool, self._spare = pool, spare
        return stepped

    def _serve_capped(
        self, times: np.ndarray, services: np.ndarray, keys: np.ndarray, starts: np.ndarray
    ) -> None:
        """One arrival at a time, checking each waiting arrival's cap.

        Fills *starts* (``-1``: rejected), as :func:`_step` does, and
        counts the rejected; the depths are booked afterwards, as for
        blocks.
        """
        caps, rejected = self._caps, self.rejected_by
        waiting_by = [deque(pending.tolist()) for pending in self._pending]
        heap = self._pool[: times.size].tolist()  # as in _step
        out = []
        for arrival, service, key in zip(times.tolist(), services.tolist(), keys.tolist()):
            free = heap[0]
            if free <= arrival:
                heapreplace(heap, arrival + service)
                out.append(arrival)
                continue
            pending = waiting_by[key]
            while pending and pending[0] <= arrival:
                pending.popleft()
            if len(pending) >= caps[key]:
                rejected[key] += 1
                out.append(-1)
                continue
            heapreplace(heap, free + service)
            pending.append(free)
            out.append(free)
        starts[:] = out
        self._pool, self._spare = _merge_head(
            self._pool, self._spare, np.array(heap, dtype=np.int64)
        )

    def _book(self, times: np.ndarray, starts: np.ndarray, groups: Optional[list]) -> None:
        """Book each key's waiters, read at its positions in *groups*
        (``None``: every arrival is key 0), and keep those still waiting
        at the chunk's last arrival."""
        # Arrivals that took an untouched server, or were rejected
        # (start -1), never waited.
        waited = starts > times
        for key, pending in enumerate(self._pending):
            if groups is None:
                at = np.flatnonzero(waited)
            else:
                at = groups[key][waited[groups[key]]]
            if not (at.size or pending.size):
                continue
            # Only arrivals that waited are ever waiting when a later
            # one arrives.  Waiter i's earlier same-key waiters number
            # pending + i; those that started by t_i are the carried
            # starts <= t_i (later waiters start no earlier than i,
            # after t_i).
            begun = starts[at]
            self.queued_by[key] += int(at.size)
            carried = np.concatenate((pending, begun)) if pending.size else begun
            if at.size:
                depth = np.arange(pending.size, carried.size) - np.searchsorted(
                    carried, times[at], side="right"
                )
                peak = int(depth.max()) + 1
                if peak > self.max_backlog_by[key]:
                    self.max_backlog_by[key] = peak
            self._pending[key] = carried[
                np.searchsorted(carried, self._last, side="right") :
            ].copy()


def _step(
    pool: np.ndarray,
    spare: np.ndarray,
    times: np.ndarray,
    services: np.ndarray,
    starts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Serve arrivals one at a time, filling *starts*; returns the new
    pool and spare, as :func:`_merge_head` does.

    ``n`` arrivals take at most ``n`` free times, each the earliest
    left, so a heap of the sorted pool's first ``n`` serves them.
    """
    heap = pool[: times.size].tolist()  # sorted, hence a valid heap
    out = []
    for arrival, service in zip(times.tolist(), services.tolist()):
        free = heap[0]
        if free < arrival:
            free = arrival
        heapreplace(heap, free + service)
        out.append(free)
    starts[:] = out
    return _merge_head(pool, spare, np.array(heap, dtype=np.int64))


def _merge_head(
    pool: np.ndarray, spare: np.ndarray, head: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted pool with its first ``len(head)`` free times replaced
    by *head* (sorted in place), built in *spare*; returns it and the
    old pool, the next spare."""
    head.sort()
    rest = pool.size - head.size
    spare[:rest] = pool[head.size :]
    spare[rest:] = head
    # Two sorted runs: the stable sort merges them.
    spare.sort(kind="stable")
    return spare, pool


def _check_groups(groups: list, keys: int, n: int) -> None:
    """``ValueError`` unless *groups* holds *keys* ascending position
    arrays in ``[0, n)`` that place each of the *n* arrivals once."""
    if len(groups) != keys:
        raise ValueError(f"groups must hold one position array per key, {keys} here")
    for group in groups:
        if group.size and not (
            0 <= group[0] and group[-1] < n and bool((group[1:] > group[:-1]).all())
        ):
            raise ValueError(f"each group must list ascending positions in [0, {n})")
    # n positions in all that leave none out place each exactly once.
    placed = np.zeros(n, dtype=bool)
    for group in groups:
        placed[group] = True
    if sum(group.size for group in groups) != n or not placed.all():
        raise ValueError(f"groups must place each of the chunk's {n} arrivals once")
