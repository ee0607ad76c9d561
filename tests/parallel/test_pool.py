"""Engine correctness: RunSpec round-trips, ordering, failures, perf merge."""

import pickle
import threading

import pytest

from repro import perf
from repro.parallel import (
    FailedPoint,
    RunSpec,
    available_workers,
    resolve_workers,
    run_specs,
)
from repro.sim.rng import RngStreams, derive_seed
from tests.parallel import factories


def test_runspec_resolve_and_call():
    spec = RunSpec("tests.parallel.factories:double", {"x": 21})
    assert spec.resolve() is factories.double
    assert spec.call() == 42


def test_runspec_is_picklable():
    spec = RunSpec("tests.parallel.factories:combine", {"x": 1, "y": 2, "seed": 7})
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    assert clone.call() == (1, 2, 7)


def test_runspec_bad_path_rejected():
    with pytest.raises(ValueError):
        RunSpec("no-colon-here", {}).resolve()
    with pytest.raises(ModuleNotFoundError):
        RunSpec("no.such.module:fn", {}).resolve()


def test_derive_seed_matches_spawn_chain():
    root = 1234
    assert derive_seed(root, "a") == RngStreams(root).spawn("a").root_seed
    assert (
        derive_seed(root, "a", "b")
        == RngStreams(root).spawn("a").spawn("b").root_seed
    )
    assert RngStreams(root).spawn_seed("a") == derive_seed(root, "a")
    assert derive_seed(root, "a") != derive_seed(root, "b")


@pytest.mark.parametrize("workers", [1, 2])
def test_run_specs_preserves_input_order(workers):
    specs = [
        RunSpec("tests.parallel.factories:double", {"x": x}, index=i)
        for i, x in enumerate([5, 3, 8, 1])
    ]
    assert run_specs(specs, workers) == [10, 6, 16, 2]


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_spec_becomes_failed_point_and_rest_completes(workers):
    specs = [
        RunSpec(
            "tests.parallel.factories:boom_for",
            {"x": x, "bad": 2},
            index=i,
            label=f"pt{x}",
        )
        for i, x in enumerate([1, 2, 3])
    ]
    results = run_specs(specs, workers)
    assert results[0] == 10
    assert results[2] == 30
    failed = results[1]
    assert isinstance(failed, FailedPoint)
    assert failed.error_type == "ValueError"
    assert "bad point 2" in failed.message
    assert "Traceback" in failed.traceback and "boom" in failed.traceback
    assert failed.params == {"x": 2, "bad": 2}
    assert not failed  # falsy, so .filter(bool)-style cleanup works


def test_unpicklable_result_becomes_failed_point_and_rest_completes():
    specs = [
        RunSpec("tests.parallel.factories:unpicklable", index=0, label="lock"),
        RunSpec("tests.parallel.factories:double", {"x": 4}, index=1),
    ]
    results = run_specs(specs, 2)
    assert isinstance(results[0], FailedPoint) and results[0].label == "lock"
    assert results[1] == 8


def test_dead_worker_fails_every_uncollected_spec():
    specs = [
        RunSpec("tests.parallel.factories:die", index=0, label="dies"),
        RunSpec("tests.parallel.factories:double", {"x": 4}, index=1, label="after"),
    ]
    results = run_specs(specs, 2)
    assert [type(r) for r in results] == [FailedPoint, FailedPoint]
    assert results[0].error_type == results[1].error_type == "BrokenProcessPool"


def _manager_threads():
    return {
        thread
        for thread in threading.enumerate()
        if type(thread).__name__ == "_ExecutorManagerThread" and thread.is_alive()
    }


def test_pool_manager_thread_joined_on_return():
    """A clean run leaves no executor manager thread behind: one that
    outlives run_specs can write to its closed wake-up pipe at exit."""
    before = _manager_threads()
    specs = [RunSpec("tests.parallel.factories:double", {"x": x}, index=x) for x in range(4)]
    assert run_specs(specs, 2) == [0, 2, 4, 6]
    assert _manager_threads() - before == set()


def test_parallel_runs_in_separate_processes():
    import os

    specs = [RunSpec("tests.parallel.factories:worker_pid", index=i) for i in range(2)]
    pids = run_specs(specs, 2)
    assert all(isinstance(pid, int) for pid in pids)
    assert os.getpid() not in pids


def test_perf_counters_merge_across_workers():
    serial_hits = factories.count_pooled_timeouts()
    assert serial_hits > 0

    perf.reset()
    perf.enable()
    try:
        run_specs(
            [
                RunSpec("tests.parallel.factories:count_pooled_timeouts", index=i)
                for i in range(3)
            ],
            2,
        )
        merged = perf.snapshot()
    finally:
        perf.disable()
        perf.reset()
    assert merged["alloc_avoided"] == 3 * serial_hits


def test_empty_specs():
    assert run_specs([], 4) == []


def test_available_workers_positive():
    assert available_workers() >= 1


def test_resolve_workers_fallback_chain():
    """One shared 'auto' chain for the pool, sweeps, bench, and CLI."""
    auto = available_workers()
    for requested in (None, 0, -1, "auto", "AUTO", "", "  auto "):
        assert resolve_workers(requested) == auto
    assert resolve_workers(1) == 1
    assert resolve_workers(7) == 7
    assert resolve_workers("7") == 7
    with pytest.raises(ValueError):
        resolve_workers("seven")
