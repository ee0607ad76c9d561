"""Hierarchical timer-wheel scheduler: the million-event fast path.

:class:`WheelEnvironment` replaces the single binary heap of
:class:`~repro.sim.core.Environment` with a two-level timer wheel plus
the original heap kept as far-future overflow:

* **Level 0** -- ``2**slot_bits`` slots of ``2**granularity_bits`` ns
  each (defaults: 4096 slots x 256 ns ~ a 1.05 ms horizon).  Scheduling
  an event is one ``list.append`` into the slot of its deadline --- no
  heap sift through a million pending entries.
* **Level 1** -- ``2**window_bits`` buckets, each covering one full
  level-0 span (default 1024 x 1.05 ms ~ 1.07 s).  A bucket cascades
  into level-0 slots exactly once, when the cursor enters its window.
* **Overflow heap** -- anything beyond the level-1 horizon (and any
  priority/irregular event far in the future) lands in the same
  ``heapq`` the base class uses, so pathological schedules degrade to
  the old behaviour instead of breaking.

The dominant fixed-delay timeouts of this codebase -- network hops,
poll intervals, retry backoffs (microseconds, level 0) and service
times and lease renewals (milliseconds, level 1) -- are all O(1)
appends here.

Ordering invariant
------------------
Event ordering is **bit-identical** to the heap scheduler: pops come in
ascending ``(when, priority, eid)`` order with the same monotonically
increasing ``eid`` tiebreak.  Every structure stores the same 4-tuples
the heap does; a slot is sorted (C timsort) once, when its turn comes,
and every pop compares the active slot's head against the spill and
overflow heads, so an entry can never jump the global order no matter
which structure it sits in.  ``tests/sim/test_wheel.py`` fuzzes this
equivalence against the heap scheduler across 50+ seeds.

Where entries live
------------------
``active``
    The sorted bucket currently being drained (cursor's slot), walked
    by index -- popping is O(1).
``spill``
    A small heap for events scheduled *into the active slot or earlier*
    (e.g. zero-delay wakeups) after the slot was sorted.  Always
    strictly earlier than every level-0/level-1 entry.
``slots0[i]`` / ``slots1[j]``
    Unsorted append-only buckets.  Two entries can share a physical
    bucket only if they share the same absolute slot/window number
    (the horizons guarantee it), so no lap-counting is needed.
``overflow``
    ``self._queue`` -- the inherited heap.

When the wheel runs completely dry the cursor re-anchors itself to the
current time on the next insert, so a schedule that went far-future
(overflow only) does not degrade every later insert to the heap.

Adaptive granularity (``granularity_bits="auto"``)
--------------------------------------------------
A fixed slot width must be hand-tuned per regime (256 ns suits the
microsecond RDMA harnesses, ~65 us the scale engine's millisecond
leases).  In auto mode the wheel watches counters its hot paths touch
anyway -- events drained, empty-slot probes, cascades, overflow inserts
-- and every ``_ADAPT_WINDOW`` drained events checks them against an
occupancy band.  Out of band, it *re-anchors*: at a quiescent cursor
boundary (active bucket drained, spill empty -- exactly ``_refill``'s
precondition) every pending entry is re-filed under a granularity
sized from the pending-deadline horizon.  Entries are geometry-free
``(when, priority, eid, event)`` tuples, so re-anchoring can never
change the pop order; the fuzz tests force re-anchors mid-workload and
still require bit-identical firing sequences.

Batch admission (``schedule_batch``)
------------------------------------
Pre-generated arrival chunks (:mod:`repro.sim.arrivals`) are admitted
in one vectorized pass: ``searchsorted`` splits the sorted deadlines
into spill/level-0/level-1/overflow segments and equal-slot runs land
with one ``extend`` per bucket, replacing ~2^16 per-event Python calls
per chunk.  Entry ids are allocated in sequence order and each batch
shares a single callbacks tuple, so results are identical to per-event
admission of the same stream while the admission cost all but
disappears from the profile.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from itertools import islice, repeat
from typing import Any, Optional, Union

import numpy as np

from repro import perf
from repro.sim.core import Environment, EmptySchedule, StopSimulation, _TIMEOUT_POOL_MAX
from repro.sim.events import NORMAL, BatchEvent, Event, Timeout

#: Priority used by ``run(until=<int>)`` stop markers (matches the base
#: class, which the ordering-equivalence tests rely on).
_STOP_PRIORITY = 1 << 30

#: Level-0 slot width used until the first adaptation when
#: ``granularity_bits="auto"`` (the wheel's all-round default).
_AUTO_INITIAL_BITS = 8
#: Ceiling for both auto-chosen and config-supplied granularities:
#: 2**40 ns slots (~18 min) is already absurdly coarse for this
#: simulator's nanosecond clock.
MAX_GRANULARITY_BITS = 40
#: Drained events between occupancy-band evaluations.
_ADAPT_WINDOW = 1 << 15
#: Back-off ceiling when the band says "bad" but no better geometry
#: exists (e.g. genuinely bimodal deadlines): evaluations get rarer
#: instead of burning O(pending) scans forever.
_ADAPT_WINDOW_MAX = 1 << 22
#: Too-coarse signal: average sort-on-drain bucket above this.
_ADAPT_BUCKET_MAX = 1 << 12
#: Too-sparse signal: more than this many empty-slot probes per
#: drained event.
_ADAPT_PROBE_FACTOR = 4
#: Fraction of :meth:`sample_occupancy` calls that actually compute and
#: publish (count-based decimation; the rest return ``None``), so
#: callers can sample on hot paths without measurable cost.
_SAMPLE_DECIMATION = 64
#: Buckets at least this large are sorted via ``numpy.lexsort`` over
#: extracted ``(when, priority, eid)`` key arrays instead of
#: ``list.sort`` tuple comparisons (the sort-on-drain satellite).
_REFILL_ARGSORT_MIN = 1024


def validate_granularity_bits(value: Union[int, str]) -> Union[int, str]:
    """Validate a user-facing ``granularity_bits`` setting.

    Accepts ``"auto"`` (adaptive) or an int in ``[1, 40]``; anything
    else raises ``ValueError`` here, at the config/CLI boundary, rather
    than failing deep inside the wheel geometry.  (The wheel *class*
    still accepts ``granularity_bits=0`` directly -- 1 ns slots are a
    legitimate geometry for unit tests -- but no real scenario wants
    them, so the config surface starts at 1.)
    """
    if value == "auto":
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"granularity_bits must be 'auto' or an integer, got {value!r}"
        )
    if not 1 <= value <= MAX_GRANULARITY_BITS:
        raise ValueError(
            f"granularity_bits must be in [1, {MAX_GRANULARITY_BITS}] "
            f"(or 'auto'), got {value}"
        )
    return value


class WheelEnvironment(Environment):
    """Drop-in :class:`Environment` with a hierarchical timer wheel.

    Identical simulated results, different wall-clock complexity:
    scheduling is O(1) instead of O(log n) in the number of pending
    events, which is what makes million-invocation open-loop runs
    (~10^5..10^6 concurrently pending timers) routinely benchmarkable.
    See :mod:`repro.experiments.scale`.
    """

    __slots__ = (
        "_gbits",
        "_sbits0",
        "_mask0",
        "_smask0",
        "_mask1",
        "_slots0",
        "_slots1",
        "_cursor",
        "_active",
        "_ai",
        "_spill",
        "_l0_count",
        "_l1_count",
        "cascades",
        "overflow_inserts",
        "_adaptive",
        "_adapt_window",
        "_adapt_drained",
        "_adapt_refills",
        "_adapt_probes",
        "_adapt_cascaded",
        "_adapt_overflow_mark",
        "reanchors",
        "_sample_tick",
        "occupancy_samples",
    )

    def __init__(
        self,
        initial_time: int = 0,
        granularity_bits: Union[int, str] = 8,
        slot_bits: int = 12,
        window_bits: int = 10,
    ) -> None:
        super().__init__(initial_time)
        adaptive = granularity_bits == "auto"
        if adaptive:
            granularity_bits = _AUTO_INITIAL_BITS
        if (
            not isinstance(granularity_bits, int)
            or granularity_bits < 0
            or slot_bits < 1
            or window_bits < 1
        ):
            raise ValueError("wheel geometry bits must be positive")
        self._adaptive = adaptive
        self._adapt_window = _ADAPT_WINDOW
        self._adapt_drained = 0
        self._adapt_refills = 0
        self._adapt_probes = 0
        self._adapt_cascaded = 0
        self._adapt_overflow_mark = 0
        #: Granularity re-anchors performed by the adaptive controller.
        self.reanchors = 0
        self._sample_tick = 0
        #: sample_occupancy() calls that actually computed (not gated).
        self.occupancy_samples = 0
        self._gbits = granularity_bits
        self._sbits0 = slot_bits
        self._mask0 = (1 << slot_bits) - 1
        #: ``cursor & _smask0 == 0`` marks a level-1 window boundary.
        self._smask0 = self._mask0
        self._mask1 = (1 << window_bits) - 1
        self._slots0: list[list[tuple]] = [[] for _ in range(1 << slot_bits)]
        self._slots1: list[list[tuple]] = [[] for _ in range(1 << window_bits)]
        #: Absolute level-0 slot number of the slot being drained.
        self._cursor = initial_time >> granularity_bits
        self._active: list[tuple] = []
        self._ai = 0
        self._spill: list[tuple] = []
        self._l0_count = 0
        self._l1_count = 0
        #: Level-1 buckets cascaded into level 0 (lifetime).
        self.cascades = 0
        #: Entries that bypassed the wheel into the overflow heap.
        self.overflow_inserts = 0

    # -- scheduling ----------------------------------------------------

    def _insert(self, entry: tuple) -> None:
        """File *entry* into spill/level-0/level-1/overflow by deadline."""
        s0 = entry[0] >> self._gbits
        for _ in range(2):
            d0 = s0 - self._cursor
            if d0 <= 0:
                # Active slot or earlier (>= now by construction): the
                # spill heap merges with the sorted active bucket at pop.
                heappush(self._spill, entry)
                return
            if d0 <= self._mask0:
                self._slots0[s0 & self._mask0].append(entry)
                self._l0_count += 1
                return
            d1 = (s0 >> self._sbits0) - (self._cursor >> self._sbits0)
            if d1 <= self._mask1:
                self._slots1[(s0 >> self._sbits0) & self._mask1].append(entry)
                self._l1_count += 1
                return
            if (
                self._l0_count
                or self._l1_count
                or self._spill
                or self._ai < len(self._active)
                or self._cursor >= self._now >> self._gbits
            ):
                break
            # Wheel completely dry and the cursor far in the past
            # (overflow pops advance time without moving it): re-anchor
            # to now and classify once more.
            self._cursor = self._now >> self._gbits
        self.overflow_inserts += 1
        heappush(self._queue, entry)

    def schedule(self, event: Event, delay: int = 0, priority: int = NORMAL) -> None:
        """Queue *event* to be processed *delay* ns from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._insert((self._now + int(delay), priority, next(self._eid), event))

    def schedule_timeout(self, event: Event, delay: int) -> None:
        """Fast-path scheduling of pre-validated NORMAL-priority events.

        The two dominant destinations -- a level-0 slot ahead of the
        cursor, or the spill heap for same-slot-or-earlier deadlines --
        are classified inline; everything else (level 1, overflow,
        re-anchoring) falls through to :meth:`_insert`.  Both paths
        build identical entry tuples, so ordering is unaffected.
        """
        when = self._now + delay
        s0 = when >> self._gbits
        d0 = s0 - self._cursor
        if d0 > 0:
            if d0 <= self._mask0:
                self._slots0[s0 & self._mask0].append(
                    (when, NORMAL, next(self._eid), event)
                )
                self._l0_count += 1
                return
            self._insert((when, NORMAL, next(self._eid), event))
            return
        heappush(self._spill, (when, NORMAL, next(self._eid), event))

    def schedule_batch(self, times: Any, callback: Any, priority: int = NORMAL) -> list[Event]:
        """Vectorized batch admission: bucket-sort a whole chunk at once.

        Same contract as the base class (non-decreasing absolute
        *times*, all ``>= now``; one shared-callback :class:`BatchEvent`
        per deadline, eids in sequence order), but instead of ~2^16
        per-event Python calls the chunk is classified in one numpy
        pass: ``searchsorted`` against the cursor finds the
        spill/level-0/level-1/overflow segment boundaries (the slot
        numbers are sorted because the times are), and contiguous
        equal-slot runs land in their buckets with one ``extend`` each.
        Pop order is identical to per-event admission of the same
        sequence because the entry tuples are.
        """
        arr = np.asarray(times, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError(f"batch times must be 1-D, got shape {arr.shape}")
        n = int(arr.size)
        if not n:
            return []
        now = self._now
        if int(arr[0]) < now:
            raise ValueError(f"batch deadline {int(arr[0])} is in the past (now={now})")
        if n > 1 and bool((arr[1:] < arr[:-1]).any()):
            raise ValueError("batch deadlines must be non-decreasing")
        # Dry wheel + stale cursor: re-anchor first (mirrors _insert) so
        # an overflow-only past does not leak the chunk to the heap.
        if (
            self._cursor < now >> self._gbits
            and not (self._l0_count or self._l1_count or self._spill)
            and self._ai >= len(self._active)
        ):
            self._cursor = now >> self._gbits
        gbits = self._gbits
        sbits0 = self._sbits0
        cursor = self._cursor
        s0 = arr >> gbits
        shared = callback if callback.__class__ is tuple else (callback,)
        events = [BatchEvent(self, shared) for _ in range(n)]
        entries = list(zip(arr.tolist(), repeat(priority), islice(self._eid, n), events))
        # Segment boundaries over the sorted slot numbers:
        # s0 <= cursor                  -> spill
        # cursor < s0 <= cursor + mask0 -> level 0
        # within the level-1 horizon    -> level 1
        # beyond                        -> overflow heap
        i_spill = int(np.searchsorted(s0, cursor, side="right"))
        i_l0 = int(np.searchsorted(s0, cursor + self._mask0, side="right"))
        horizon_end = (((cursor >> sbits0) + self._mask1) + 1) << sbits0
        i_l1 = int(np.searchsorted(s0, horizon_end, side="left"))
        if i_spill:
            spill = self._spill
            for k in range(i_spill):
                heappush(spill, entries[k])
        if i_l0 > i_spill:
            seg = s0[i_spill:i_l0]
            slots0, mask0 = self._slots0, self._mask0
            starts = [0, *(np.flatnonzero(seg[1:] != seg[:-1]) + 1).tolist(), i_l0 - i_spill]
            for a, b in zip(starts, starts[1:]):
                slots0[int(seg[a]) & mask0].extend(entries[i_spill + a : i_spill + b])
            self._l0_count += i_l0 - i_spill
        if i_l1 > i_l0:
            seg = s0[i_l0:i_l1] >> sbits0
            slots1, mask1 = self._slots1, self._mask1
            starts = [0, *(np.flatnonzero(seg[1:] != seg[:-1]) + 1).tolist(), i_l1 - i_l0]
            for a, b in zip(starts, starts[1:]):
                slots1[int(seg[a]) & mask1].extend(entries[i_l0 + a : i_l0 + b])
            self._l1_count += i_l1 - i_l0
        if i_l1 < n:
            queue = self._queue
            for k in range(i_l1, n):
                heappush(queue, entries[k])
            self.overflow_inserts += n - i_l1
        return events

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Pooled timeout (see base class), scheduled through the wheel."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            if type(delay) is not int:
                delay = int(delay)
            event: Timeout = pool.pop()
            event.callbacks = []
            event._delay = delay
            event._value = value
            self.schedule_timeout(event, delay)
            return event
        return Timeout(self, delay, value)

    # -- dequeue -------------------------------------------------------

    def _cascade(self, window: int) -> None:
        """Scatter level-1 *window*'s bucket into level-0 slots."""
        index = window & self._mask1
        bucket = self._slots1[index]
        if not bucket:
            return
        self._slots1[index] = []
        self._l1_count -= len(bucket)
        self._l0_count += len(bucket)
        self.cascades += 1
        if self._adaptive:
            self._adapt_cascaded += len(bucket)
        gbits, mask0, slots0 = self._gbits, self._mask0, self._slots0
        for entry in bucket:
            slots0[(entry[0] >> gbits) & mask0].append(entry)

    def _refill(self) -> None:
        """Advance the cursor to the next occupied slot and sort it.

        Precondition: the active bucket is exhausted, the spill heap is
        empty and ``_l0_count + _l1_count > 0`` (so the scan provably
        terminates).  Cascades level-1 buckets at each window boundary
        it crosses; when level 0 is empty it jumps window-to-window
        instead of probing all 4096 slots.
        """
        c = self._cursor
        slots0, mask0, smask0 = self._slots0, self._mask0, self._smask0
        sbits0 = self._sbits0
        probes = 0
        while True:
            c += 1
            probes += 1
            if not c & smask0:
                self._cascade(c >> sbits0)
            bucket = slots0[c & mask0]
            if bucket:
                break
            if not self._l0_count:
                # Nothing in level 0: skip straight to the last slot of
                # this window so the next increment cascades the next one.
                c |= smask0
        self._cursor = c
        slots0[c & mask0] = []
        self._l0_count -= len(bucket)
        if len(bucket) >= _REFILL_ARGSORT_MIN:
            # Sort-on-drain via numpy for big buckets: lexsort over
            # extracted key columns beats list.sort's per-element tuple
            # comparisons well before 1k entries.  The eid column makes
            # the key total (eids are unique), so the Event objects
            # themselves are never compared; sorting on `when` alone
            # (even stably) would be wrong -- after a re-anchor a
            # bucket's insertion order is not (priority, eid) order.
            nb = len(bucket)
            when = np.fromiter((e[0] for e in bucket), np.int64, nb)
            prio = np.fromiter((e[1] for e in bucket), np.int64, nb)
            eid = np.fromiter((e[2] for e in bucket), np.int64, nb)
            order = np.lexsort((eid, prio, when))
            bucket = [bucket[i] for i in order.tolist()]
        else:
            bucket.sort()
        self._active = bucket
        self._ai = 0
        if self._adaptive:
            self._adapt_drained += len(bucket)
            self._adapt_refills += 1
            self._adapt_probes += probes

    def _pop(self) -> tuple:
        """Remove and return the globally minimal ``(when, prio, eid,
        event)`` entry; raises ``IndexError`` when nothing is pending."""
        while True:
            active = self._active
            ai = self._ai
            if ai < len(active):
                entry = active[ai]
                spill = self._spill
                if spill and spill[0] < entry:
                    entry = spill[0]
                    overflow = self._queue
                    if overflow and overflow[0] < entry:
                        return heappop(overflow)
                    return heappop(spill)
                overflow = self._queue
                if overflow and overflow[0] < entry:
                    return heappop(overflow)
                self._ai = ai + 1
                # Drop the bucket's reference so the Timeout free list's
                # getrefcount guard sees the same counts as the heap path.
                active[ai] = None
                return entry
            spill = self._spill
            if spill:
                # Spill entries precede everything in level 0/1.
                entry = spill[0]
                overflow = self._queue
                if overflow and overflow[0] < entry:
                    return heappop(overflow)
                return heappop(spill)
            if not (self._l0_count or self._l1_count):
                return heappop(self._queue)
            if self._adaptive and self._adapt_drained >= self._adapt_window:
                # Quiescent cursor boundary (active drained, spill
                # empty): the only point where re-filing every pending
                # entry under a new granularity is safe and cheap to
                # reason about.  Loop back afterwards -- a re-anchor
                # may have moved everything into spill or overflow.
                self._maybe_reanchor()
                continue
            self._refill()

    # -- adaptive granularity ------------------------------------------

    def _maybe_reanchor(self) -> None:
        """Evaluate the occupancy band; re-anchor geometry if out of band.

        The band is judged from counters the hot paths already touch:
        *too fine* when most drained events took an extra hop (level-1
        cascade or overflow insert) because deadlines outlive level 0;
        *too sparse* when the cursor walks many empty slots per event;
        *too coarse* when the average sort-on-drain bucket is huge.
        Preconditions match :meth:`_refill`: active bucket exhausted and
        spill empty, so every pending entry has ``when >= now`` and
        reclassifies exactly as a fresh wheel would file it.
        """
        drained = self._adapt_drained
        refills = self._adapt_refills
        probes = self._adapt_probes
        cascaded = self._adapt_cascaded
        overflowed = self.overflow_inserts - self._adapt_overflow_mark
        self._adapt_drained = 0
        self._adapt_refills = 0
        self._adapt_probes = 0
        self._adapt_cascaded = 0
        self._adapt_overflow_mark = self.overflow_inserts
        too_fine = (cascaded + overflowed) * 2 > drained
        too_sparse = probes > drained * _ADAPT_PROBE_FACTOR
        too_coarse = bool(refills) and drained > refills * _ADAPT_BUCKET_MAX
        if not (too_fine or too_sparse or too_coarse):
            self._adapt_window = _ADAPT_WINDOW
            return
        target = self._target_bits()
        if target == self._gbits:
            # Out of band but no better single granularity exists (e.g.
            # genuinely bimodal deadlines): back off exponentially so
            # the O(pending) target scan stays amortized away.
            self._adapt_window = min(self._adapt_window * 2, _ADAPT_WINDOW_MAX)
            return
        self._reanchor(target)
        self._adapt_window = _ADAPT_WINDOW

    def _target_bits(self) -> int:
        """Granularity fitting the *current* pending-deadline horizon.

        Sizes slots so the bulk (90th percentile) of pending horizons
        fits inside level 0, but never finer than the mean spacing
        between deadlines -- the two failure modes the band detects.
        """
        whens: list[int] = []
        extend = whens.extend
        if self._l0_count:
            for bucket in self._slots0:
                if bucket:
                    extend(entry[0] for entry in bucket)
        if self._l1_count:
            for bucket in self._slots1:
                if bucket:
                    extend(entry[0] for entry in bucket)
        extend(entry[0] for entry in self._queue)
        if not whens:
            return self._gbits
        horizons = np.asarray(whens, dtype=np.int64) - self._now
        span = int(np.quantile(horizons, 0.90))
        if span < 1:
            span = 1
        g_span = span.bit_length() - self._sbits0
        spacing = span // len(whens)
        g_density = spacing.bit_length()
        target = max(g_span, g_density, 0)
        return min(target, MAX_GRANULARITY_BITS)

    def _reanchor(self, bits: int) -> None:
        """Re-anchor the wheel at granularity *bits*, preserving order.

        Entries are geometry-independent ``(when, priority, eid, event)``
        tuples, so re-filing them under new slot boundaries cannot
        change the pop order -- only which O(1) structure serves them.
        The overflow heap is drained too, so entries that overflowed
        only because the old geometry was too fine migrate back into
        the wheel.  ``_queue`` and ``_spill`` are mutated in place,
        never rebound: the inlined run loop holds local references.
        """
        entries: list[tuple] = []
        extend = entries.extend
        slots0 = self._slots0
        for index in range(len(slots0)):
            if slots0[index]:
                extend(slots0[index])
                slots0[index] = []
        slots1 = self._slots1
        for index in range(len(slots1)):
            if slots1[index]:
                extend(slots1[index])
                slots1[index] = []
        extend(self._queue)
        self._queue.clear()
        self._l0_count = 0
        self._l1_count = 0
        self._gbits = bits
        self._cursor = self._now >> bits
        overflow_mark = self.overflow_inserts
        insert = self._insert
        for entry in entries:
            insert(entry)
        # Re-filing is not a new scheduling decision: keep the lifetime
        # overflow counter meaning "entries scheduled beyond the horizon".
        self.overflow_inserts = overflow_mark
        self._adapt_overflow_mark = overflow_mark
        self.reanchors += 1
        if perf.enabled:
            perf.counters.wheel_reanchors += 1

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or ``None`` if none.

        O(pending) -- it scans the wheel without draining it.  Fine for
        the occasional caller; the run loop never uses it.
        """
        best: Optional[tuple] = None
        if self._ai < len(self._active):
            best = self._active[self._ai]
        for heap in (self._spill, self._queue):
            if heap and (best is None or heap[0] < best):
                best = heap[0]
        if self._l0_count:
            for bucket in self._slots0:
                for entry in bucket:
                    if best is None or entry < best:
                        best = entry
        if self._l1_count:
            for bucket in self._slots1:
                for entry in bucket:
                    if best is None or entry < best:
                        best = entry
        return best[0] if best is not None else None

    def pending_events(self) -> int:
        """Total events currently scheduled (all structures)."""
        return (
            len(self._active)
            - self._ai
            + len(self._spill)
            + self._l0_count
            + self._l1_count
            + len(self._queue)
        )

    def occupancy(self) -> dict[str, int]:
        """Wheel-vs-heap residency right now, plus lifetime counters.

        ``wheel`` counts entries the O(1) paths own (active + spill +
        both levels); ``heap`` is the overflow residue.  The scale
        bench samples this and publishes the peaks through
        :mod:`repro.perf` (``wheel_entries`` / ``heap_entries``).
        """
        wheel = len(self._active) - self._ai + len(self._spill)
        return {
            "wheel": wheel + self._l0_count + self._l1_count,
            "active": len(self._active) - self._ai,
            "spill": len(self._spill),
            "level0": self._l0_count,
            "level1": self._l1_count,
            "heap": len(self._queue),
            "cascades": self.cascades,
            "overflow_inserts": self.overflow_inserts,
            "reanchors": self.reanchors,
            "granularity_bits": self._gbits,
        }

    def sample_occupancy(self, force: bool = False) -> Optional[dict[str, int]]:
        """Decimated :meth:`occupancy`, also published to :mod:`repro.perf`.

        Only every ``_SAMPLE_DECIMATION``-th call (or a ``force=True``
        one) computes anything; the rest bump one counter and return
        ``None``.  Callers on hot paths -- the scale drivers sample per
        completion batch -- therefore pay a fixed two-attribute cost
        per call, well under 1% of event throughput, while peaks still
        get tracked.  While counting is enabled,
        ``perf.counters.wheel_entries`` / ``heap_entries`` track the
        *peak* sampled residency and the cascade/overflow/re-anchor
        lifetime totals are brought up to date.
        """
        tick = self._sample_tick + 1
        self._sample_tick = tick
        if not force and tick % _SAMPLE_DECIMATION:
            return None
        self.occupancy_samples += 1
        occupancy = self.occupancy()
        if perf.enabled:
            counters = perf.counters
            if occupancy["wheel"] > counters.wheel_entries:
                counters.wheel_entries = occupancy["wheel"]
            if occupancy["heap"] > counters.heap_entries:
                counters.heap_entries = occupancy["heap"]
            counters.wheel_cascades = max(counters.wheel_cascades, self.cascades)
            counters.wheel_overflow_inserts = max(
                counters.wheel_overflow_inserts, self.overflow_inserts
            )
        return occupancy

    # -- event loop ----------------------------------------------------

    def step(self) -> None:
        """Process exactly one event (same semantics as the base class)."""
        try:
            when, _prio, _eid, event = self._pop()
        except IndexError:
            raise EmptySchedule("no more events") from None
        self._now = when
        self.events_processed += 1

        callbacks = event.callbacks
        assert callbacks is not None
        if callbacks.__class__ is tuple:
            # Persistent dispatch descriptor (see BatchEvent): exactly
            # one callback, never detached.
            callbacks[0](event)
        else:
            event.callbacks = None
            for callback in callbacks:
                callback(event)

        if not event._ok and not event._defused:
            exc = event._value
            if isinstance(exc, BaseException):
                raise exc
            raise RuntimeError(f"event failed with non-exception {exc!r}")

        if (
            event.__class__ is Timeout
            and event._ok
            and not event._defused
            and len(self._timeout_pool) < _TIMEOUT_POOL_MAX
            and sys.getrefcount(event) == 2
        ):
            self._timeout_pool.append(event)  # type: ignore[arg-type]
            self._timeout_pool_appends += 1

    def run(self, until: Union[None, int, Event] = None) -> Any:
        """Run the simulation (same contract as the base class)."""
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    return until.value
                until.callbacks.append(StopSimulation.callback)
            else:
                at = int(until)
                if at < self._now:
                    raise ValueError(f"until={at} is in the past (now={self._now})")
                stop = Event(self)
                stop._ok = True
                stop._value = None
                self._insert((at, _STOP_PRIORITY, next(self._eid), stop))
                stop.callbacks.append(StopSimulation.callback)

        # Inlined loop mirroring Environment.run; only the dequeue
        # differs.  The common case of _pop -- next entry comes from the
        # sorted active bucket -- is inlined here because a method call
        # per event is measurable at millions of events; spill and
        # overflow are bound once (heappush/heappop mutate them in
        # place, only _active changes identity, at refill).
        #
        # `active`/`ai` are carried as locals across iterations and only
        # written back to self before the slow-path _pop() (nothing a
        # callback can do rebinds _active or advances _ai: inserts at or
        # before the cursor go to the spill heap, refill/re-anchor only
        # run inside _pop).  A callback reading self._ai mid-walk -- the
        # dry-wheel guards in _insert/schedule_batch, or an occupancy
        # sample -- sees a value that lags by at most one bucket; both
        # readers treat that conservatively (the guards skip an optional
        # cursor re-anchor and file via the overflow heap, which pops in
        # the same global order).
        pop = self._pop
        spill = self._spill
        overflow = self._queue
        pool = self._timeout_pool
        getrefcount = sys.getrefcount
        timeout_cls = Timeout
        processed = 0
        pooled = 0
        active = self._active
        ai = self._ai
        # The active bucket's length is fixed for the whole walk
        # (drained entries are overwritten with None, never removed;
        # callbacks cannot touch the bucket -- it was unlinked from
        # _slots0 at refill), so it is cached instead of re-measured
        # every event.
        alen = len(active)
        try:
            while True:
                if ai < alen:
                    entry = active[ai]
                    if spill and spill[0] < entry:
                        head = spill[0]
                        if overflow and overflow[0] < head:
                            entry = heappop(overflow)
                        else:
                            entry = heappop(spill)
                    elif overflow and overflow[0] < entry:
                        entry = heappop(overflow)
                    else:
                        active[ai] = None
                        ai += 1
                else:
                    self._ai = ai
                    try:
                        entry = pop()
                    except IndexError:
                        if isinstance(until, Event) and not until.triggered:
                            raise RuntimeError(
                                "simulation ran out of events before the awaited event triggered"
                            ) from None
                        return None
                    active = self._active
                    ai = self._ai
                    alen = len(active)
                event_when = entry[0]
                event = entry[3]
                # Drop the tuple so the pool's getrefcount guard sees
                # the same counts as the heap loop (which unpacks and
                # releases its entry before the check).
                entry = None
                self._now = event_when
                processed += 1

                callbacks = event.callbacks
                if callbacks.__class__ is tuple:
                    # Persistent dispatch descriptor (see BatchEvent):
                    # exactly one callback, never detached -- a re-armed
                    # lease timer keeps its descriptor across millions
                    # of schedulings with zero callback-slot traffic.
                    callbacks[0](event)
                else:
                    event.callbacks = None
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)

                if not event._ok and not event._defused:
                    exc = event._value
                    if isinstance(exc, BaseException):
                        raise exc
                    raise RuntimeError(f"event failed with non-exception {exc!r}")

                # `callbacks is None` pre-filters pooling: a re-armed
                # lease timeout has fresh callbacks (and a wheel entry
                # reference), so the common re-arm case exits on one
                # load instead of reaching getrefcount.
                if (
                    event.callbacks is None
                    and event.__class__ is timeout_cls
                    and event._ok
                    and not event._defused
                    and len(pool) < _TIMEOUT_POOL_MAX
                    and getrefcount(event) == 2
                ):
                    pool.append(event)
                    pooled += 1
        except StopSimulation as stop:
            return stop.args[0]
        finally:
            self._ai = ai
            self.events_processed += processed
            self._timeout_pool_appends += pooled

    def __repr__(self) -> str:
        return f"<WheelEnvironment t={self._now}ns queued={self.pending_events()}>"


#: Registry used by :func:`new_environment`.
SCHEDULERS = ("heap", "wheel")


def new_environment(scheduler: Optional[str] = None, initial_time: int = 0, **kwargs: Any):
    """Build an :class:`Environment` with the requested scheduler.

    ``scheduler`` is ``"heap"`` (the binary-heap baseline, default),
    ``"wheel"`` (hierarchical timer wheel) or ``None`` for the default.
    Extra keyword arguments configure the wheel geometry.
    """
    scheduler = scheduler or "heap"
    if scheduler == "heap":
        if kwargs:
            raise ValueError(f"heap scheduler takes no options, got {sorted(kwargs)}")
        return Environment(initial_time)
    if scheduler == "wheel":
        return WheelEnvironment(initial_time, **kwargs)
    raise ValueError(f"unknown scheduler {scheduler!r} (use one of {SCHEDULERS})")
