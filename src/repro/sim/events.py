"""Events: the awaitable occurrences processes ``yield`` on.

The lifecycle mirrors the classic SimPy design: an event starts
*untriggered*, becomes *triggered* once it has a value (or an exception)
and is sitting in the environment's queue, and becomes *processed* once
the environment has invoked its callbacks.  Failures propagate into any
process that yields on the event; an unhandled failure crashes the
simulation at ``Environment.step`` unless it was *defused* by a handler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

#: Sentinel: the event has no value yet.
PENDING = object()

#: Scheduling priorities (lower runs first at equal time).
URGENT = 0
NORMAL = 1


class Event:
    """A single occurrence inside an :class:`Environment`.

    Processes suspend on events by yielding them; when the event is
    processed the process resumes with the event's value (or has the
    failure exception thrown into it).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with the event once it is processed.  Set to
        #: ``None`` afterwards, which is also how "processed" is encoded.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: A failed event whose exception was delivered to *someone* is
        #: defused; undefused failures abort the simulation.
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise AttributeError("value of event is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is PENDING:
            raise AttributeError("value of event is not yet available")
        return self._value

    @property
    def defused(self) -> bool:
        return self._defused

    def defuse(self) -> None:
        """Mark a failed event as handled so it will not crash the run."""
        self._defused = True

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure carrying *exception*."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def fire(self, value: Any = None, ok: bool = True) -> None:
        """Trigger *and process* the event now, without scheduling it.

        For a state machine that finishes at one of its own events:
        whoever waits on this event resumes inside that event's
        processing, exactly as if it had waited on it directly, so the
        schedule gains no event.  ``ok=False`` delivers *value* (an
        exception) as a failure.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = ok
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state (ok/value) of *event*.

        Used as a callback to chain events together.
        """
        if self.triggered:
            return
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run *callback(event)* once the event is processed.

        If the event was already processed the callback runs immediately.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers *delay* nanoseconds after creation.

    Timeouts dominate event volume, so :meth:`Environment.timeout`
    recycles processed instances through a free list instead of
    constructing a new one per call whenever that is provably safe
    (no outstanding references).
    """

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self._delay = int(delay)
        self._ok = True
        self._value = value
        env.schedule_timeout(self, self._delay)

    @property
    def delay(self) -> int:
        return self._delay

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay}>"


class BatchEvent(Event):
    """A pre-triggered event: the cheapest schedulable event.

    The constructor is five slot stores, and many events can share one
    callbacks tuple.

    A *tuple* in ``callbacks`` is a persistent dispatch descriptor: it
    must hold exactly one callable, and the event loop invokes it
    without detaching it, so a handler that re-schedules the same event
    (the scale kernel re-arms lease timers millions of times) skips
    both the detach store and the re-attach store.  Consequently
    ``processed`` is not meaningful for tuple-dispatch events; use
    ``triggered`` (value-based), which is True from construction.  A
    list in ``callbacks`` keeps the ordinary one-shot detach contract.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", callbacks: Any, value: Any = None) -> None:
        self.env = env
        self.callbacks = callbacks
        self._value = value
        self._ok = True
        self._defused = False


def _run_step(event: "Step") -> None:
    event.step()


def _skip(event: Event) -> None:
    pass


#: Dispatch descriptors shared by every :class:`Step` / no-op event;
#: ``Environment.run`` recognises both by identity.
STEP = (_run_step,)
SKIP = (_skip,)


class Step(BatchEvent):
    """A re-armable callback event: the next step of a state machine.

    :class:`BatchEvent`'s persistent one-callback tuple plus a ``step``
    pointer.  A state machine keeps one of these, points ``step`` at
    the zero-argument callable that continues it, and schedules the
    same object again (``schedule_timeout``/``schedule``) wherever a
    generator process would have yielded a fresh event -- no
    :class:`Process`, generator resume or per-wait allocation.

    A Step sits in the queue at most once at a time, which a state
    machine guarantees by waiting on one thing at a time.  A machine
    that replaces a process schedules that process's start and end
    events with :meth:`start` and :meth:`end`.
    """

    __slots__ = ("step",)

    def __init__(self, env: "Environment", step: Optional[Callable[[], None]] = None) -> None:
        super().__init__(env, STEP)
        self.step = step

    def start(self) -> None:
        """Schedule this Step now as a process's start: an URGENT event."""
        self.env.schedule(self, priority=URGENT)

    def end(self) -> None:
        """Schedule a process's end: the environment's no-op, now."""
        self.env.schedule_timeout(self.env.noop, 0)

    def abandon(self) -> None:
        """Cancel the state machine lazily, as an interrupt cancels a wait.

        Whatever it waits on stays scheduled (or armed) and fires as a
        no-op, like the abandoned timeout of an interrupted process.
        """
        self.step = _abandoned

    def join(self, done: Event):
        """Generator: the value this machine resolves *done* with.

        How a generator caller waits on a state machine: it resumes
        inside the event that fires *done* (:meth:`Event.fire`), and a
        wait that ends early -- an interrupt, or the caller closed --
        abandons the machine.
        """
        try:
            return (yield done)
        except BaseException:
            self.abandon()
            raise


def _abandoned() -> None:
    """The pending step of an abandoned state machine."""


class ConditionValue:
    """Ordered mapping from source events to their values.

    Returned by :class:`AllOf` / :class:`AnyOf`; supports both mapping
    access keyed by the original events and ``.values()`` in trigger
    order, which is what most call sites use.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(repr(event))
        return event._value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __len__(self) -> int:
        return len(self.events)

    def keys(self) -> list[Event]:
        return list(self.events)

    def values(self) -> list[Any]:
        return [e._value for e in self.events]

    def todict(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Composite event over a set of sub-events.

    *evaluate* decides, given (events, number_processed), whether the
    condition holds.  Failure of any sub-event fails the condition.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("all events must share one environment")

        # Immediately evaluate in case the condition is trivially met
        # (e.g. AllOf over an empty list).
        if self._evaluate(self._events, 0):
            self.succeed(self._build_value())
            return

        for event in self._events:
            event.add_callback(self._check)

    def _build_value(self) -> ConditionValue:
        value = ConditionValue()
        for event in self._events:
            if event.processed and event._ok:
                value.events.append(event)
        return value

    def _check(self, event: Event) -> None:
        if self.triggered:
            # Late arrivals after the condition resolved: a failure must
            # still be defused by whoever handles it downstream; mark it
            # handled because the condition consumed it.
            if not event._ok:
                event.defuse()
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._build_value())


class AllOf(Condition):
    """Triggers once *all* sub-events have triggered successfully."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, lambda evts, count: count >= len(evts), events)


class AnyOf(Condition):
    """Triggers once *any* sub-event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        events = list(events)
        if not events:
            raise ValueError("AnyOf over no events would never trigger")
        super().__init__(env, lambda evts, count: count >= 1, events)
