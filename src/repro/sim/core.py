"""The event loop: scheduling queue and virtual clock.

Fast-path notes
---------------
The kernel is the innermost loop of every experiment in this repo, so
it trades a little generality for per-event cost:

* ``run()`` inlines the event-processing loop instead of calling
  :meth:`step` per event (the method-call and exception-frame overhead
  is measurable at millions of events); :meth:`step` remains the
  single-event API and behaves identically.
* Processed :class:`Timeout` instances are recycled through a free
  list (``timeout()`` pops from the pool instead of allocating) -- but
  only when ``sys.getrefcount`` proves nobody else still holds the
  object, so user code that keeps a timeout around and inspects
  ``.value`` later is never handed a reincarnated event.
* Cancellation is lazy: an interrupted process merely unsubscribes its
  callback; the abandoned timeout stays in the heap, is processed as a
  no-op at its original deadline, and is then recycled.  No heap
  surgery, O(1) per cancellation.

None of this changes simulated results: scheduling order, tie-breaking
and virtual timestamps are bit-identical to the straightforward loop.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from itertools import count, islice, repeat
from typing import Any, Iterable, Optional, Union

from repro.sim.events import NORMAL, AllOf, AnyOf, BatchEvent, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

#: Upper bound on the Timeout free list; beyond this, processed
#: timeouts are simply dropped for the GC.
_TIMEOUT_POOL_MAX = 1_024


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` at an event."""

    @classmethod
    def callback(cls, event: Event) -> None:
        if event._ok:
            raise cls(event._value)
        # Propagate the failure out of run().
        event._defused = True
        exc = event._value
        raise exc


class EmptySchedule(Exception):
    """The event queue ran dry."""


class Environment:
    """Execution environment: virtual clock plus a priority event queue.

    Time is integer nanoseconds.  Determinism: ties at equal (time,
    priority) break on insertion order via a monotonically increasing
    sequence number, so runs are exactly reproducible.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_active_process",
        "events_processed",
        "_timeout_pool",
        "_timeout_pool_appends",
    )

    def __init__(self, initial_time: int = 0) -> None:
        self._now = int(initial_time)
        self._queue: list[tuple[int, int, int, Event]] = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: Total events processed (cheap instrumentation).
        self.events_processed = 0
        #: Free list of processed, unreferenced Timeout objects.
        self._timeout_pool: list[Timeout] = []
        #: Total timeouts ever recycled into the pool.
        self._timeout_pool_appends = 0

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def timeout_pool_hits(self) -> int:
        """Allocations avoided by recycling pooled timeouts.

        Derived (appends minus what is still pooled) so the hot
        ``timeout()`` path needs no per-call counter update.
        """
        return self._timeout_pool_appends - len(self._timeout_pool)

    # -- scheduling ----------------------------------------------------

    def schedule(self, event: Event, delay: int = 0, priority: int = NORMAL) -> None:
        """Queue *event* to be processed *delay* ns from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heappush(self._queue, (self._now + int(delay), priority, next(self._eid), event))

    def schedule_timeout(self, event: Event, delay: int) -> None:
        """Fast-path scheduling for pre-validated, NORMAL-priority events.

        Skips the negative-delay check and priority plumbing of
        :meth:`schedule`; the caller guarantees ``delay >= 0`` (the
        :class:`Timeout` constructor and :meth:`timeout` already do).
        Scheduling order is identical to :meth:`schedule`.
        """
        heappush(self._queue, (self._now + delay, NORMAL, next(self._eid), event))

    def schedule_batch(self, times: Any, callback: Any, priority: int = NORMAL) -> list[Event]:
        """Admit a whole chunk of events at *priority* in one call.

        *times* is a non-decreasing sequence of absolute deadlines (a
        ``numpy.int64`` array straight from :mod:`repro.sim.arrivals`,
        or any int sequence), each ``>= now``.  One :class:`BatchEvent`
        is created per deadline, all sharing a single ``(callback,)``
        tuple, and entry ids are allocated in sequence order -- so the
        resulting pop order is exactly what per-event
        ``schedule_timeout`` calls in the same order would produce.
        Returns the admitted events, in deadline order.
        """
        if getattr(times, "ndim", 1) != 1:
            raise ValueError(f"batch times must be 1-D, got shape {times.shape}")
        whens = times.tolist() if hasattr(times, "tolist") else [int(t) for t in times]
        if not whens:
            return []
        now = self._now
        if whens[0] < now:
            raise ValueError(f"batch deadline {whens[0]} is in the past (now={now})")
        if any(b < a for a, b in zip(whens, whens[1:])):
            raise ValueError("batch deadlines must be non-decreasing")
        shared = (callback,)
        events = [BatchEvent(self, shared) for _ in whens]
        eids = islice(self._eid, len(whens))
        queue = self._queue
        if queue:
            push = heappush
            for entry in zip(whens, repeat(priority), eids, events):
                push(queue, entry)
        else:
            # A list sorted ascending satisfies the heap invariant
            # directly (parent index < child index), so an empty queue
            # takes the whole chunk as one extend.
            queue.extend(zip(whens, repeat(priority), eids, events))
        return events

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or ``None`` if none."""
        return self._queue[0][0] if self._queue else None

    def step(self) -> None:
        """Process exactly one event."""
        try:
            when, _prio, _eid, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no more events") from None
        if when < self._now:  # pragma: no cover - guarded by schedule()
            raise RuntimeError("time went backwards")
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

        # Recycle the timeout when provably unreferenced: the only two
        # references left are our local and getrefcount's argument.
        # The _ok/_defused guard keeps the pool invariant that recycled
        # timeouts need no state reset beyond callbacks/delay/value.
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
        """Run the simulation.

        ``until`` may be:

        * ``None`` -- run until the queue is empty;
        * an ``int`` -- run until virtual time reaches that value;
        * an :class:`Event` -- run until the event is processed and
          return its value (re-raising its exception on failure).
        """
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    # Already processed.
                    return until.value
                until.callbacks.append(StopSimulation.callback)
            else:
                at = int(until)
                if at < self._now:
                    raise ValueError(f"until={at} is in the past (now={self._now})")
                stop = Event(self)
                stop._ok = True
                stop._value = None
                # Priority below URGENT/NORMAL ordering: use a large
                # priority so all events at `at` run first.
                heappush(self._queue, (at, 1 << 30, next(self._eid), stop))
                stop.callbacks.append(StopSimulation.callback)

        # Inlined event loop: identical semantics to step()-in-a-loop,
        # with the heap, pool and counters bound to locals.
        queue = self._queue
        pool = self._timeout_pool
        pop = heappop
        getrefcount = sys.getrefcount
        timeout_cls = Timeout
        processed = 0
        pooled = 0
        try:
            while True:
                try:
                    when, _prio, _eid, event = pop(queue)
                except IndexError:
                    if isinstance(until, Event) and not until.triggered:
                        raise RuntimeError(
                            "simulation ran out of events before the awaited event triggered"
                        ) from None
                    return None
                self._now = when
                processed += 1

                callbacks = event.callbacks
                if callbacks.__class__ is tuple:
                    # Persistent dispatch descriptor (see BatchEvent):
                    # exactly one callback, never detached -- a re-armed
                    # event keeps its descriptor across schedulings.
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

                if (
                    event.__class__ is timeout_cls
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
            self.events_processed += processed
            self._timeout_pool_appends += pooled

    # -- factories ------------------------------------------------------

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Spawn a new process from *generator*."""
        return Process(self, generator, name=name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event triggering *delay* ns from now.

        Pops a recycled instance off the free list when one is
        available (see the module docstring) instead of allocating.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            if type(delay) is not int:
                delay = int(delay)
            event: Timeout = pool.pop()
            # _ok is True and _defused False by the recycle guard in
            # run()/step(), so only callbacks/delay/value need resetting.
            event.callbacks = []
            event._delay = delay
            event._value = value
            heappush(self._queue, (self._now + delay, NORMAL, next(self._eid), event))
            return event
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def __repr__(self) -> str:
        return f"<Environment t={self._now}ns queued={len(self._queue)}>"
