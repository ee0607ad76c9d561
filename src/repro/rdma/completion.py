"""Completion queues and the two ways of consuming them.

rFaaS's hot/warm split is exactly the choice between these consumers:

* ``busy_poll`` -- the thread spins on the CQ; noticing a CQE costs
  ``poll_detect_ns`` (45 ns) but occupies the core the whole time.
* ``blocking_wait`` -- the thread sleeps on a completion channel; the
  NIC raises an interrupt, costing ``blocking_notify_ns`` (~4.34 us)
  extra latency but no CPU while idle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.rdma.constants import WCOpcode, WCStatus
from repro.sim.events import Event, Step

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Environment


@dataclass(slots=True)
class WorkCompletion:
    """One CQE (``ibv_wc``)."""

    wr_id: int
    opcode: WCOpcode
    status: WCStatus = WCStatus.SUCCESS
    byte_len: int = 0
    imm_data: Optional[int] = None
    qp_num: int = 0
    #: Virtual time the completion entered the CQ.
    timestamp: int = 0

    @property
    def ok(self) -> bool:
        return self.status is WCStatus.SUCCESS


class CQOverflow(Exception):
    """The CQ filled up: on hardware this is a fatal async event."""


class CompletionQueue:
    """A bounded queue of :class:`WorkCompletion` entries."""

    def __init__(self, env: "Environment", depth: int = 4_096, name: str = "cq") -> None:
        self.env = env
        self.depth = depth
        self.name = name
        self._entries: deque[WorkCompletion] = deque()
        self._waiters: list["Event"] = []
        self.completions_pushed = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, wc: WorkCompletion) -> None:
        """NIC-side: deposit a completion and wake any waiter."""
        entries = self._entries
        if len(entries) >= self.depth:
            raise CQOverflow(f"{self.name}: CQ depth {self.depth} exceeded")
        wc.timestamp = self.env._now
        entries.append(wc)
        self.completions_pushed += 1
        if not self._waiters:
            return
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            if isinstance(event, Step):
                # A callback waiter (see arm): re-armable, so never
                # "triggered"; wake it exactly as succeed() would.
                self.env.schedule_timeout(event, 0)
            elif not event.triggered:
                event.succeed()

    def poll(self, max_entries: int = 16) -> list[WorkCompletion]:
        """Non-blocking: drain up to *max_entries* CQEs (may be empty)."""
        entries = self._entries
        if len(entries) <= max_entries:
            out = list(entries)
            entries.clear()
            return out
        popleft = entries.popleft
        return [popleft() for _ in range(max_entries)]

    def arrival_event(self) -> "Event":
        """Event fired at the next push (or immediately if non-empty).

        Public so consumers can race it against a timeout -- the hot
        worker loop races it against the hot->warm rollback timer.
        """
        event = self.env.event()
        if self._entries:
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def arm(self, step: Step) -> None:
        """Callback form of :meth:`arrival_event` for a state machine.

        Schedules *step* at the next push, or right away if entries are
        already waiting -- the same event, at the same point in the
        schedule, that :meth:`arrival_event` would produce.
        """
        if self._entries:
            self.env.schedule_timeout(step, 0)
        else:
            self._waiters.append(step)

    # -- consumer styles -----------------------------------------------

    def busy_poll(self, max_entries: int = 16):
        """Generator: spin until at least one CQE is available.

        Usage inside a process: ``wcs = yield from cq.busy_poll()``.
        Latency: poll_detect_ns after the CQE lands.  A thin wrapper
        over :class:`CQWait`: the caller resumes once, at the poll that
        finds the CQEs.
        """
        return (yield from self._wait(self.nic.model.poll_detect_ns, max_entries))

    def blocking_wait(self, max_entries: int = 16):
        """Generator: sleep on the completion channel until a CQE lands.

        Latency: blocking_notify_ns (interrupt + wakeup) after the CQE.
        """
        return (yield from self._wait(self.nic.model.blocking_notify_ns, max_entries))

    def _wait(self, detect_ns: int, max_entries: int):
        done = Event(self.env)
        wait = CQWait(self, done.fire, detect_ns, max_entries)
        wait.wait()
        return (yield from wait.join(done))

    # The owning NIC injects itself here at creation so the consumer
    # helpers can reach the latency model.
    nic: Any = None

    def __repr__(self) -> str:
        return f"<CompletionQueue {self.name} pending={len(self._entries)}>"


class CQWait(Step):
    """``busy_poll``/``blocking_wait`` as a re-armable callback wait.

    :meth:`wait` waits for the CQ to be non-empty (:meth:`CompletionQueue.arm`),
    charges ``detect_ns`` (the poll-detect or blocking-notify latency),
    polls, and hands the CQEs to ``deliver`` -- or waits again if a
    competing consumer drained the CQ first.  It schedules exactly the
    events the generator loop schedules, and ``deliver`` runs inside
    the detect timeout that would resume that generator.  Besides the
    generators above it serves every RPC receive, the invoker's
    completion loop and the worker's warm wait.
    """

    __slots__ = ("cq", "deliver", "detect_ns", "max_entries")

    def __init__(
        self,
        cq: CompletionQueue,
        deliver: Callable[[list[WorkCompletion]], None],
        detect_ns: int,
        max_entries: int = 16,
    ) -> None:
        super().__init__(cq.env)
        self.cq = cq
        self.deliver = deliver
        self.detect_ns = detect_ns
        self.max_entries = max_entries

    def wait(self) -> None:
        if self.cq._entries:
            self._detect()
            return
        self.step = self._detect
        self.cq.arm(self)

    def _detect(self) -> None:
        self.step = self._polled
        self.env.schedule_timeout(self, self.detect_ns)

    def _polled(self) -> None:
        wcs = self.cq.poll(self.max_entries)
        if wcs:
            # Drop the bound-method self-reference: a finished one-shot
            # wait is then freed by refcounting, not by the collector.
            self.step = None
            self.deliver(wcs)
        else:
            self.wait()
