"""Span tracing of the program's layers, from outside the program.

The traced run wraps the public entry points of each layer (class
methods and module functions under ``repro``) with span recorders for
its duration and restores them afterwards; nothing under ``src/`` is
edited.  Wrap before the deployment or scenario is built: the program
binds some methods once at construction time.

A span is ``(name, start, end, parent, op)``; spans nest on the call
stack (the simulator is single-threaded), the span open when another
starts is its parent, and ``op`` is the benchmark's operation counter
when the span started.  Generator entry points -- simulator processes
and the ``yield from`` helpers they call -- record one span per
*resume*, not per call, since their work happens across many resumes.
Spans are kept in compact in-memory arrays and written out once, when
the run ends.

Self time is a span's duration minus the time its child spans cover;
summed over every span of a round it equals the time covered by the
round's root spans, and the rest of the round's wall time is the
explicit *unattributed* remainder (the benchmark's own client code and
the gaps between spans).
"""

from __future__ import annotations

import importlib
import inspect
import mmap
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

import numpy as np

_now = time.perf_counter_ns

#: Layer of a span or of generator code: the longest matching prefix of
#: its ``repro`` module path.  Order matters only for readability.
LAYERS = (
    ("sim.wheel", "sim.wheel"),
    ("sim.arrivals", "sim.arrivals"),
    ("sim", "sim"),
    ("rdma.queue_pair", "rdma.queue_pair"),
    ("rdma.completion", "rdma.completion"),
    ("rdma.fabric", "rdma.fabric"),
    ("rdma.memory", "rdma.memory"),
    ("rdma.cm", "rdma.cm"),
    ("rdma", "rdma.other"),
    ("core.invoker", "core.invoker"),
    ("core.worker", "core.worker"),
    ("core.rpc", "core.rpc"),
    ("core.resource_manager", "core.resource_manager"),
    ("core.placement", "core.resource_manager"),
    ("core.executor", "core.executor"),
    ("core", "core.other"),
    ("workloads", "workloads"),
    ("experiments.scale", "experiments.scale"),
    ("analysis.streams", "analysis.streams"),
    ("", "repro.other"),
)

UNATTRIBUTED = "unattributed"


def layer_of(module: str) -> str:
    """Layer of a ``repro``-relative dotted module path."""
    for prefix, layer in LAYERS:
        if module == prefix or module.startswith(prefix + ".") or not prefix:
            return layer
    return UNATTRIBUTED  # pragma: no cover - the empty prefix matches all


def module_of_code(code: Any) -> Optional[str]:
    """``repro``-relative module of a code object, or None outside ``repro``."""
    path = code.co_filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0 or not path.endswith(".py"):
        return None
    module = path[at + len(marker) : -3].replace("/", ".")
    return module[: -len(".__init__")] if module.endswith(".__init__") else module


class SpanRecorder:
    """An append-only event log of span enters and exits, plus counters.

    Recording writes two int64 entries per boundary -- ``(name id, t)``
    on enter, ``(EXIT, t)`` on exit, ``(OP, id)`` when the benchmark
    starts a new operation -- and :meth:`arrays` rebuilds the spans
    (with parents from the nesting) once, after the run.  ``len()`` is
    the log position, which the benchmark records at round boundaries.

    The log is an anonymous memory mapping, not a growing heap buffer:
    a buffer reallocated on the malloc heap can pin the heap top and so
    change whether the program's large buffers are recycled or freshly
    page-faulted, which would make traced rounds unlike untraced ones.
    """

    EXIT = -1
    OP = -2
    #: Log entries reserved (virtual memory; pages are touched as used).
    CAPACITY = 16 << 20

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._map = mmap.mmap(-1, 8 * self.CAPACITY)
        self.buf = memoryview(self._map).cast("q")
        #: Entries written so far.
        self.n = 0
        #: Calls per generator entry point (spans count resumes, not calls).
        self.calls: dict[str, int] = defaultdict(int)
        #: Free-form event counters (e.g. polls that returned a completion).
        self.counters: dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return self.n

    def write(self, code: int, value: int) -> None:
        """Append one ``(code, value)`` entry (the wrappers inline this)."""
        i = self.n
        self.n = i + 2
        self.buf[i] = code
        self.buf[i + 1] = value

    def mark_op(self, op: int) -> None:
        """Spans entered from now on belong to operation *op*."""
        self.write(self.OP, op)

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as numpy arrays, in enter order.

        ``name`` indexes :attr:`names`; ``parent`` is the index of the
        enclosing span or -1; ``op`` the operation id; ``pos`` is the
        log position of the enter entry (compare with ``len()``
        snapshots to select a round).  Vectorized per nesting depth:
        a span at depth d ends at the first exit after it that returns
        to depth d, and its parent is the last span entered at depth
        d - 1 before it.
        """
        log = np.frombuffer(self._map, dtype=np.int64, count=self.n)
        codes, values = log[0::2], log[1::2]
        is_enter = codes >= 0
        is_exit = codes == self.EXIT
        depth_after = np.cumsum(is_enter.astype(np.int64) - is_exit)
        if depth_after.size and (depth_after[-1] != 0 or depth_after.min() < 0):
            raise RuntimeError("unbalanced span log: spans still open or closed twice")
        enters = np.flatnonzero(is_enter)
        depth = depth_after[enters] - 1
        exits = np.flatnonzero(is_exit)
        exit_depth = depth_after[exits]
        parent = np.full(len(enters), -1, dtype=np.int64)
        end = np.zeros(len(enters), dtype=np.int64)
        for d in range(int(depth.max()) + 1 if len(enters) else 0):
            mine = np.flatnonzero(depth == d)
            closes = exits[exit_depth == d]
            end[mine] = values[closes[np.searchsorted(closes, enters[mine])]]
            if d:
                outer = np.flatnonzero(depth == d - 1)
                parent[mine] = outer[np.searchsorted(enters[outer], enters[mine]) - 1]
        marks = np.flatnonzero(codes == self.OP)
        last = np.searchsorted(marks, enters) - 1
        op = np.where(last >= 0, values[marks[np.maximum(last, 0)]], 0) if len(marks) else 0
        return {
            "name": codes[enters].astype(np.int32),
            "parent": parent,
            "op": np.broadcast_to(op, enters.shape).astype(np.int64),
            "start": values[enters].copy(),
            "end": end,
            "pos": enters * 2,
        }


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (they ran one after another on
    the same stack), so their durations simply add up.
    """
    duration = (end - start).astype(np.int64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered.astype(np.int64)


class _TracedGen:
    """A generator proxy that records one span per resume of *gen*."""

    __slots__ = ("_gen", "_nid", "_rec", "__name__")

    def __init__(self, gen: Any, nid: int, rec: SpanRecorder, name: str) -> None:
        self._gen = gen
        self._nid = nid
        self._rec = rec
        self.__name__ = name

    def __iter__(self) -> "_TracedGen":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        rec = self._rec
        rec.write(self._nid, _now())
        try:
            return self._gen.send(value)
        finally:
            rec.write(SpanRecorder.EXIT, _now())

    def throw(self, *args: Any) -> Any:
        rec = self._rec
        rec.write(self._nid, _now())
        try:
            return self._gen.throw(*args)
        finally:
            rec.write(SpanRecorder.EXIT, _now())

    def close(self) -> None:
        self._gen.close()


#: (module, attribute path, span name) of every wrapped entry point.
#: Span names start with their layer's module path (see ``LAYERS``).
ENTRY_POINTS = (
    # sim: the event loop and the API every other layer calls.
    ("repro.sim.core", "Environment.run", "sim.core.run"),
    ("repro.sim.core", "Environment.timeout", "sim.core.timeout"),
    ("repro.sim.core", "Environment.event", "sim.core.event"),
    ("repro.sim.core", "Environment.process", "sim.core.process"),
    ("repro.sim.core", "Environment.schedule", "sim.core.schedule"),
    ("repro.sim.events", "Event.succeed", "sim.events.succeed"),
    ("repro.sim.events", "Event.fail", "sim.events.fail"),
    ("repro.sim.resources", "Store.put", "sim.resources.put"),
    ("repro.sim.resources", "Store.get", "sim.resources.get"),
    # sim.wheel: scheduling structures the scale kernels drive.
    ("repro.sim.wheel", "WheelEnvironment.run", "sim.wheel.run"),
    ("repro.sim.wheel", "WheelEnvironment.schedule_batch", "sim.wheel.batch"),
    ("repro.sim.wheel", "WheelEnvironment.schedule_timeout", "sim.wheel.schedule_timeout"),
    ("repro.sim.wheel", "WheelEnvironment._pop", "sim.wheel.pop"),
    ("repro.sim.wheel", "LeaseLane.admit", "sim.wheel.lane.admit"),
    ("repro.sim.wheel", "LeaseLane.admit_cohort", "sim.wheel.lane.admit"),
    ("repro.sim.wheel", "LeaseLane.admit_block", "sim.wheel.lane.admit"),
    ("repro.sim.wheel", "LeaseLane.drain", "sim.wheel.lane.drain"),
    # sim.arrivals
    ("repro.sim.arrivals", "_poisson_times", "sim.arrivals.gen"),
    ("repro.sim.arrivals", "_bursty_times", "sim.arrivals.gen"),
    ("repro.sim.arrivals", "_diurnal_times", "sim.arrivals.gen"),
    ("repro.sim.arrivals", "merge_tenant_streams", "sim.arrivals.merge"),
    # rdma
    ("repro.rdma.queue_pair", "QueuePair.post_send", "rdma.queue_pair.post"),
    ("repro.rdma.queue_pair", "QueuePair.post_recv", "rdma.queue_pair.post"),
    ("repro.rdma.completion", "CompletionQueue.poll", "rdma.completion.poll"),
    ("repro.rdma.completion", "CompletionQueue.push", "rdma.completion.push"),
    ("repro.rdma.completion", "CompletionQueue.arrival_event", "rdma.completion.arrival_event"),
    ("repro.rdma.completion", "CompletionQueue.busy_poll", "rdma.completion.busy_poll"),
    ("repro.rdma.completion", "CompletionQueue.blocking_wait", "rdma.completion.blocking_wait"),
    ("repro.rdma.fabric", "Fabric.transfer_path", "rdma.fabric.transfer"),
    ("repro.rdma.memory", "HostMemory.alloc", "rdma.memory.alloc"),
    ("repro.rdma.memory", "ProtectionDomain.register", "rdma.memory.register"),
    ("repro.rdma.memory", "MemoryRegion.write", "rdma.memory.write"),
    ("repro.rdma.memory", "MemoryRegion.read", "rdma.memory.read"),
    ("repro.rdma.memory", "MemoryRegion.view", "rdma.memory.view"),
    ("repro.rdma.cm", "ConnectionManager.connect", "rdma.cm.connect"),
    ("repro.rdma.cm", "ConnectionListener.accept", "rdma.cm.accept"),
    ("repro.rdma.device", "NIC.create_qp", "rdma.device.create_qp"),
    ("repro.rdma.device", "NIC.create_cq", "rdma.device.create_cq"),
    # core: client, worker, control plane.
    ("repro.core.invoker", "Invoker.submit", "core.invoker.submit"),
    ("repro.core.invoker", "Invoker.allocate", "core.invoker.allocate"),
    ("repro.core.invoker", "Invoker.deallocate", "core.invoker.deallocate"),
    ("repro.core.worker", "Worker.__init__", "core.worker.init"),
    ("repro.core.worker", "Worker._handle", "core.worker.handle"),
    ("repro.core.rpc", "RpcConnection.call", "core.rpc.call"),
    ("repro.core.rpc", "RpcConnection.notify", "core.rpc.notify"),
    ("repro.core.rpc", "rpc_connect", "core.rpc.connect"),
    ("repro.core.resource_manager", "ResourceManager._handle_rpc", "core.resource_manager.handle"),
    ("repro.core.resource_manager", "ResourceManager.grant_lease", "core.resource_manager.grant"),
    ("repro.core.executor", "SpotExecutor._handle_rpc", "core.executor.handle"),
    ("repro.core.executor", "SpotExecutor.register_with", "core.executor.register"),
    ("repro.core.deployment", "Deployment.build", "core.deployment.build"),
    # the user function
    ("repro.core.functions", "FunctionSpec.execute", "workloads.fn"),
    # scale engine
    ("repro.experiments.scale", "run_scale", "experiments.scale.round"),
    ("repro.experiments.scale", "run_tenant_scale", "experiments.scale.round"),
    ("repro.experiments.scale", "_ShardDriver.drive", "experiments.scale.drive"),
    ("repro.experiments.scale", "_TenantDriver.drive", "experiments.scale.drive"),
    ("repro.analysis.streams", "StreamingSummary.observe_many", "analysis.streams.flush"),
    ("repro.analysis.streams", "KeyedStreamingSummary.observe_many", "analysis.streams.flush"),
    ("repro.analysis.streams", "StreamingSummary.summarize", "analysis.streams.finalize"),
    ("repro.analysis.streams", "KeyedStreamingSummary.summarize", "analysis.streams.finalize"),
)


def span_layer(name: str) -> str:
    """Layer of a span name (``workloads.fn`` -> ``workloads``)."""
    if name.startswith("proc:"):
        return name[len("proc:") :]
    return layer_of(name)


class Tracer:
    """Installs span recorders on :data:`ENTRY_POINTS`; :meth:`close` restores them."""

    def __init__(self, rec: Optional[SpanRecorder] = None) -> None:
        self.rec = rec if rec is not None else SpanRecorder()
        self._saved: list[tuple[Any, str, Any]] = []
        self._installed = False
        #: Entry points not found in the program (see :meth:`install`).
        self.missing: list[str] = []

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every entry point that exists.

        One the program no longer has (renamed or deleted by a later
        change) is listed in :attr:`missing` and skipped, so the traced
        run still works; metrics fed only by it then read 0.
        """
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        for module_name, path, span in ENTRY_POINTS:
            *outer, attr = path.split(".")
            try:
                module = importlib.import_module(module_name)
                owner: Any = module
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            if isinstance(original, (classmethod, staticmethod)):
                wrapped: Any = type(original)(self._wrap(original.__func__, span))
            else:
                wrapped = self._wrap(original, span)
            self._set(owner, attr, wrapped)
            if not outer:
                # Module functions imported by name elsewhere in repro.
                for other in list(sys.modules.values()):
                    name = getattr(other, "__name__", "")
                    if other is not module and name.startswith("repro.") and (
                        other.__dict__.get(attr) is original
                    ):
                        self._set(other, attr, wrapped)
        self._install_process_hook()
        return self

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def close(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._installed = False

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn: Callable, span: str) -> Callable:
        rec = self.rec
        nid = rec.name_id(span)
        buf = rec.buf
        exit_code = SpanRecorder.EXIT
        if inspect.isgeneratorfunction(fn):
            label = fn.__name__
            calls = rec.calls

            def traced_gen(*args: Any, **kwargs: Any) -> _TracedGen:
                calls[span] += 1
                return _TracedGen(fn(*args, **kwargs), nid, rec, label)

            traced_gen.__wrapped__ = fn  # type: ignore[attr-defined]
            return traced_gen
        counters = rec.counters
        if span == "rdma.completion.poll":

            def traced_poll(*args: Any, **kwargs: Any) -> Any:
                rec.write(nid, _now())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec.write(exit_code, _now())
                if out:
                    counters["rdma.completion.poll_hits"] += 1
                return out

            return traced_poll
        if span == "rdma.memory.alloc":

            def traced_alloc(memory: Any, size: int, *args: Any, **kwargs: Any) -> Any:
                if not kwargs.get("virtual", False):
                    counters["rdma.memory.alloc_bytes"] += size
                rec.write(nid, _now())
                try:
                    return fn(memory, size, *args, **kwargs)
                finally:
                    rec.write(exit_code, _now())

            return traced_alloc

        def traced(*args: Any, **kwargs: Any) -> Any:
            # rec.write inlined: this wrapper runs on every call of
            # every entry point.
            i = rec.n
            rec.n = i + 2
            buf[i] = nid
            buf[i + 1] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                i = rec.n
                rec.n = i + 2
                buf[i] = exit_code
                buf[i + 1] = _now()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _install_process_hook(self) -> None:
        """Time every simulator-process resume under its generator's layer.

        ``Process`` binds ``generator.send`` once at construction; the
        hook replaces that binding with a recorder, so each resume is a
        span named ``proc:<layer>`` (the layer of the outermost
        generator's code; the benchmark's own processes are
        ``proc:unattributed``).
        """
        from repro.sim.process import Process

        rec = self.rec
        buf = rec.buf
        exit_code = SpanRecorder.EXIT
        original_init = Process.__dict__["__init__"]

        def init(process: Any, env: Any, generator: Any, *args: Any, **kwargs: Any) -> None:
            original_init(process, env, generator, *args, **kwargs)
            send = getattr(process, "_gen_send", None)
            if send is None:
                return  # a Process without the bound-send slot: leave it untimed
            if isinstance(generator, _TracedGen):
                code = getattr(generator._gen, "gi_code", None)
            else:
                code = getattr(generator, "gi_code", None)
            module = module_of_code(code) if code is not None else None
            span = "proc:" + (layer_of(module) if module is not None else UNATTRIBUTED)
            nid = rec.name_id(span)

            def traced_send(value: Any) -> Any:
                i = rec.n
                rec.n = i + 2
                buf[i] = nid
                buf[i + 1] = _now()
                try:
                    return send(value)
                finally:
                    i = rec.n
                    rec.n = i + 2
                    buf[i] = exit_code
                    buf[i + 1] = _now()

            process._gen_send = traced_send

        self._set(Process, "__init__", init)


def round_spans(arrays: dict[str, np.ndarray], first: int, last: int) -> slice:
    """The spans entered between log positions *first* and *last*."""
    pos = arrays["pos"]
    return slice(int(np.searchsorted(pos, first)), int(np.searchsorted(pos, last)))


def self_by_name(arrays: dict[str, np.ndarray], names: list[str], sel: slice) -> dict[str, int]:
    """Self nanoseconds per span name over the spans *sel* of one round.

    Spans of a round have their parents inside the round (or none), so
    the slice is self-contained.
    """
    if sel.stop <= sel.start:
        return {}
    parent = arrays["parent"][sel]
    parent = np.where(parent >= 0, parent - sel.start, -1)
    own = self_times(arrays["start"][sel], arrays["end"][sel], parent)
    totals = np.bincount(arrays["name"][sel], weights=own, minlength=len(names))
    return {name: int(totals[i]) for i, name in enumerate(names) if totals[i]}


def count_by_name(arrays: dict[str, np.ndarray], names: list[str], sel: slice) -> dict[str, int]:
    """Spans per name over *sel* (resumes, for generator entry points)."""
    totals = np.bincount(arrays["name"][sel], minlength=len(names))
    return {name: int(totals[i]) for i, name in enumerate(names) if totals[i]}


def by_layer(per_name: dict[str, float]) -> dict[str, float]:
    """Fold per-span-name values into their layers."""
    out: dict[str, float] = defaultdict(float)
    for name, value in per_name.items():
        out[span_layer(name)] += value
    return dict(out)


def root_time(arrays: dict[str, np.ndarray], sel: slice) -> int:
    """Nanoseconds covered by the root spans among *sel*."""
    roots = arrays["parent"][sel] < 0
    return int((arrays["end"][sel][roots] - arrays["start"][sel][roots]).sum())
