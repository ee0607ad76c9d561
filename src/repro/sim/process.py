"""Generator-based simulated processes.

A process wraps a Python generator.  Each ``yield <event>`` suspends the
process until the event is processed; the event's value becomes the
result of the yield expression, and a failed event has its exception
thrown into the generator at the yield point.  A process is itself an
event that triggers when the generator returns (value = return value) or
raises (failure).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import PENDING, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment

ProcessGenerator = Generator[Event, Any, Any]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        return self.args[0]


class _Initialize(Event):
    """Immediate, urgent event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks = [process._resume_cb]
        env.schedule(self, priority=URGENT)


class _Interruption(Event):
    """Immediate, urgent event delivering an :class:`Interrupt`."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        if process.triggered:
            raise RuntimeError("cannot interrupt a terminated process")
        if process is process.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.process = process
        self.callbacks = [self._deliver]
        process.env.schedule(self, priority=URGENT)

    def _deliver(self, event: Event) -> None:
        process = self.process
        if process.triggered:
            return  # terminated in the meantime; drop the interrupt
        # Unsubscribe from whatever the process was waiting on so the
        # original event does not also resume it later.  Cancellation is
        # lazy: an abandoned Timeout stays in the heap, is processed as
        # a no-op at its deadline, and is then recycled into the pool.
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume_cb)
            except ValueError:
                pass
        process._resume(self)


class Process(Event):
    """A running simulated activity.

    Yields inside the wrapped generator suspend on events.  The process
    triggers when the generator finishes.
    """

    __slots__ = ("_generator", "_gen_send", "_target", "name", "_resume_cb")

    def __init__(self, env: "Environment", generator: ProcessGenerator, name: Optional[str] = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        # Bind the resume callback and the generator's send once;
        # creating a fresh bound method per suspension is measurable
        # at millions of events.
        self._gen_send = generator.send
        self._resume_cb = self._resume
        self._target: Optional[Event] = _Initialize(env, self)
        self.name = name or getattr(generator, "__name__", "process")

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        _Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_target = self._gen_send(event._value)
                else:
                    # The exception is being delivered; it is handled as
                    # far as the kernel is concerned.
                    event._defused = True
                    exc = event._value
                    if isinstance(exc, BaseException):
                        next_target = self._generator.throw(exc)
                    else:  # pragma: no cover - defensive
                        next_target = self._generator.throw(RuntimeError(repr(exc)))
            except StopIteration as stop:
                env._active_process = None
                self._target = None
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                return
            except BaseException as error:
                env._active_process = None
                self._target = None
                self._ok = False
                self._value = error
                env.schedule(self)
                return

            if not isinstance(next_target, Event):
                env._active_process = None
                bad = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_target!r}"
                )
                try:
                    self._generator.throw(bad)
                except StopIteration as stop:
                    self._target = None
                    self._ok = True
                    self._value = stop.value
                    env.schedule(self)
                    return
                except BaseException as error:
                    self._target = None
                    self._ok = False
                    self._value = error
                    env.schedule(self)
                    return
                # Generator swallowed the error and yielded again -- loop.
                event = _nullevent(env)
                continue

            if next_target.callbacks is not None:
                # Event not yet processed: subscribe and suspend.
                next_target.callbacks.append(self._resume_cb)
                self._target = next_target
                env._active_process = None
                return
            # Already-processed event: resume immediately with its value.
            event = next_target

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name} ({state})>"


def _nullevent(env: "Environment") -> Event:
    event = Event(env)
    event._ok = True
    event._value = None
    return event
