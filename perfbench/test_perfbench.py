"""Tests of the benchmark's own code (not of the program it measures).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import os

# Before numpy loads: its BLAS pool would count as live threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layerdiff  # noqa: E402
import reference  # noqa: E402
import steadiness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import SpanRecorder, Tracer, self_times  # noqa: E402


# -- reference scaling ------------------------------------------------------


def test_scaled_seconds_uses_mean_of_bracketing_references():
    nominal = reference.R_NOMINAL_S
    # Host twice as slow as nominal on both sides: the round halves.
    assert reference.scaled_seconds(1.0, 2 * nominal, 2 * nominal) == pytest.approx(0.5)
    # Mean, not either side alone.
    assert reference.scaled_seconds(3.0, nominal, 2 * nominal) == pytest.approx(2.0)
    assert reference.scaled_seconds(0.0, nominal, nominal) == 0.0


@pytest.mark.parametrize("bad", [(-1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -2.0)])
def test_scaled_seconds_rejects_bad_timings(bad):
    with pytest.raises(ValueError):
        reference.scaled_seconds(*bad)


def test_reference_loop_is_deterministic():
    assert reference.reference_loop() == reference.reference_loop()


def test_memory_chase_walks_one_cycle_through_every_slot():
    table = reference._CHASE
    seen, slot = set(), 0
    for _ in range(len(table)):
        seen.add(slot)
        slot = table[slot]
    assert slot == 0 and len(seen) == len(table)


def _quiet_within(seconds: float) -> bool:
    """The OS reaps an exited thread or child a little after join/wait."""
    deadline = time.monotonic() + seconds
    while not reference.host_is_quiet():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_guard_sees_a_live_thread():
    assert reference.host_is_quiet()
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait, args=(10,))
    worker.start()
    try:
        assert not reference.host_is_quiet()
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert _quiet_within(5.0)


def test_guard_sees_a_live_child_process():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(10)"])
    try:
        assert not reference.host_is_quiet()
    finally:
        child.kill()
        child.wait(timeout=10)
    assert _quiet_within(5.0)


# -- spans and self time ----------------------------------------------------


class FakeClock:
    """Replaces ``tracing._now``: each reading advances time by *step* ns."""

    def __init__(self, step: int = 10) -> None:
        self.t = 0
        self.step = step

    def __call__(self) -> int:
        self.t += self.step
        return self.t


def test_self_time_subtracts_nested_children():
    # parent [0, 100) with children [10, 30) and [40, 90); the second
    # child has its own child [50, 60).
    start = np.array([0, 10, 40, 50])
    end = np.array([100, 30, 90, 60])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [30, 20, 40, 10]


def test_recorder_rebuilds_nesting_from_the_log():
    rec = SpanRecorder()
    a, b = rec.name_id("a"), rec.name_id("b")
    for code, value in ((a, 0), (b, 10), (SpanRecorder.EXIT, 30)):
        rec.write(code, value)
    rec.mark_op(7)
    for code, value in ((b, 40), (SpanRecorder.EXIT, 90), (SpanRecorder.EXIT, 100)):
        rec.write(code, value)
    arrays = rec.arrays()
    assert arrays["name"].tolist() == [a, b, b]
    assert arrays["parent"].tolist() == [-1, 0, 0]
    assert arrays["op"].tolist() == [0, 0, 7]
    sel = tracing.round_spans(arrays, 0, len(rec))
    assert tracing.self_by_name(arrays, rec.names, sel) == {"a": 30, "b": 70}
    assert tracing.root_time(arrays, sel) == 100


def _stack_walk(entries):
    """The obvious sequential rebuild, kept as the reference."""
    spans, stack, op = [], [], 0
    for pos, (code, value) in enumerate(entries):
        if code == SpanRecorder.EXIT:
            spans[stack.pop()][3] = value
        elif code == SpanRecorder.OP:
            op = value
        else:
            spans.append([code, stack[-1] if stack else -1, value, None, op, 2 * pos])
            stack.append(len(spans) - 1)
    return spans


def test_vectorized_rebuild_matches_a_stack_walk():
    rng = np.random.default_rng(3)
    rec = SpanRecorder()
    entries, depth, t = [], 0, 0
    for _ in range(5_000):
        t += int(rng.integers(1, 50))
        roll = rng.random()
        if roll < 0.05:
            entries.append((SpanRecorder.OP, int(rng.integers(0, 100))))
        elif depth and roll < 0.5:
            entries.append((SpanRecorder.EXIT, t))
            depth -= 1
        else:
            entries.append((int(rng.integers(0, 7)), t))
            depth += 1
    for _ in range(depth):
        t += 1
        entries.append((SpanRecorder.EXIT, t))
    for code, value in entries:
        rec.write(code, value)
    arrays = rec.arrays()
    rebuilt = list(zip(*(arrays[k].tolist() for k in ("name", "parent", "start", "end", "op", "pos"))))
    assert rebuilt == [tuple(span) for span in _stack_walk(entries)]


def test_unbalanced_log_is_an_error():
    rec = SpanRecorder()
    rec.write(rec.name_id("a"), 0)
    with pytest.raises(RuntimeError):
        rec.arrays()


def test_generator_time_is_attributed_per_resume(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing, "_now", clock)
    rec = SpanRecorder()
    tracer = Tracer(rec)

    def body():
        received = yield "first"
        yield received * 2

    traced = tracer._wrap(body, "sim.test")
    gen = traced()
    assert next(gen) == "first"
    clock.t += 1000  # time between resumes belongs to nobody
    assert gen.send(21) == 42
    with pytest.raises(StopIteration):
        gen.send(None)
    arrays = rec.arrays()
    assert len(arrays["name"]) == 3  # one span per resume
    durations = (arrays["end"] - arrays["start"]).tolist()
    assert durations == [10, 10, 10]
    assert rec.calls["sim.test"] == 1


def test_generator_proxy_under_yield_from_nests_spans(monkeypatch):
    monkeypatch.setattr(tracing, "_now", FakeClock())
    rec = SpanRecorder()
    tracer = Tracer(rec)

    def inner():
        value = yield 1
        return value + 1

    traced_inner = tracer._wrap(inner, "rdma.inner")

    def outer():
        result = yield from traced_inner()
        yield result

    traced_outer = tracer._wrap(outer, "core.outer")
    gen = traced_outer()
    assert next(gen) == 1
    assert gen.send(5) == 6
    arrays = rec.arrays()
    names = [rec.names[n] for n in arrays["name"]]
    assert names == ["core.outer", "rdma.inner", "core.outer", "rdma.inner"]
    assert arrays["parent"].tolist() == [-1, 0, -1, 2]


def test_tracer_restores_every_attribute():
    import importlib

    before = {}
    for module_name, path, _ in tracing.ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        before[(module_name, path)] = (owner, attr, owner.__dict__[attr])
    from repro.sim.process import Process

    process_init = Process.__dict__["__init__"]
    with Tracer():
        changed = [key for key, (owner, attr, fn) in before.items() if owner.__dict__[attr] is fn]
        assert not changed
    for owner, attr, fn in before.values():
        assert owner.__dict__[attr] is fn
    assert Process.__dict__["__init__"] is process_init


def test_missing_entry_point_is_skipped(monkeypatch):
    monkeypatch.setattr(
        tracing, "ENTRY_POINTS", (*tracing.ENTRY_POINTS, ("repro.sim.core", "Gone.method", "sim.gone"))
    )
    with Tracer() as tracer:
        assert tracer.missing == ["repro.sim.core:Gone.method"]


def test_layer_map():
    assert tracing.layer_of("sim.core") == "sim"
    assert tracing.layer_of("sim.wheel") == "sim.wheel"
    assert tracing.layer_of("core.placement") == "core.resource_manager"
    assert tracing.layer_of("rdma.device") == "rdma.other"
    assert tracing.span_layer("proc:core.worker") == "core.worker"
    assert tracing.span_layer("workloads.fn") == "workloads"


# -- fingerprints and failure accounting ------------------------------------


def test_fingerprint_mismatch_fails_every_operation():
    result = workloads.RoundResult(ops=10, fingerprint={"events": 5, "rtt": [1, 2]})
    workloads.check_fingerprint(result, {"events": 5, "rtt": [1, 2]}, "same")
    assert result.failed == 0
    workloads.check_fingerprint(result, {"events": 5, "rtt": [1, 3]}, "perturbed")
    assert result.failed == 10
    assert "rtt" in result.errors[0]


def test_missing_reference_is_a_failure():
    result = workloads.RoundResult(ops=3, fingerprint={"events": 1})
    workloads.check_fingerprint(result, None, "absent")
    assert result.failed == 3


def _perturbed(name: str) -> dict:
    refs = workloads.load_references()
    refs[name]["round"]["events"] += 1
    return refs


@pytest.mark.parametrize("name", ["hot_invoke", "lease_cycle"])
def test_perturbed_committed_fingerprint_is_counted(name):
    honest = workloads.WORKLOADS[name](workloads.DEFAULT_SEED).setup()
    assert honest.failed == 0, honest.errors
    perturbed = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, _perturbed(name)).setup()
    assert perturbed.failed == perturbed.ops > 0


def test_traced_run_simulates_the_committed_fingerprints():
    """Tracing times calls; it must not change a single simulated output."""
    with Tracer() as tracer:
        results = {
            name: cls(workloads.DEFAULT_SEED).setup() for name, cls in workloads.WORKLOADS.items()
        }
    for name, result in results.items():
        assert result.failed == 0, (name, result.errors)
    assert len(tracer.rec) > 0


def test_held_out_seed_passes_the_invariants():
    lease = workloads.LeaseCycle(987_654)
    lease.setup()
    assert lease.run_round().failed == 0
    hot = workloads.HotInvoke(987_654)
    hot.setup()
    assert hot.run_round().failed == 0


# -- reports -------------------------------------------------------------------


def test_steadiness_spread_uses_quartiles():
    median, q1, q3, rel = steadiness.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (median, q1, q3) == (3.0, 1.5, 4.5)
    assert rel == pytest.approx(1.0)


def test_layer_diff_reports_changed_metrics(tmp_path):
    def report(value):
        return {"workload": "hot_invoke", "metrics": {
            "sim.events_op": {"value": value, "unit": "count"},
            "host.rounds": {"value": 9.0, "unit": "count"},
        }}

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "trace-hot_invoke.json").write_text(json.dumps(report(25.0)))
    (tmp_path / "b" / "trace-hot_invoke.json").write_text(json.dumps(report(20.0)))
    rows = layerdiff.diff(layerdiff.load(str(tmp_path / "a")), layerdiff.load(str(tmp_path / "b")))
    assert rows == {"hot_invoke": [("sim.events_op", "count", 25.0, 20.0, -5.0, 0.8)]}


def test_run_without_program_source_fails_cleanly(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot_invoke", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
