"""Timer-wheel scheduler: bit-identical ordering vs the heap baseline.

The contract under test (docstring of :mod:`repro.sim.wheel`): the
wheel is a drop-in replacement whose pops come in exactly the heap's
``(when, priority, eid)`` order.  The fuzz tests drive identical random
workloads through both schedulers -- with a deliberately tiny wheel
geometry so spill, cascade, window-jump and overflow paths all trigger
-- and require the firing sequences to match exactly.
"""

import itertools
import random

import pytest

from repro.core.config import RFaaSConfig
from repro.core.deployment import Deployment
from repro.experiments.common import measure_rfaas_rtts
from repro.sim.core import Environment
from repro.sim.events import NORMAL, Event
from repro.sim.wheel import (
    _REFILL_ARGSORT_MIN,
    SCHEDULERS,
    WheelEnvironment,
    new_environment,
)
from repro.workloads.noop import noop_package

#: Tiny geometry: level-0 horizon 32 slots x 16 ns = 512 ns, level-1
#: horizon 16 windows ~ 8.2 us.  Random delays up to ~200 us constantly
#: cross every structure boundary.
TINY_WHEEL = {"granularity_bits": 4, "slot_bits": 5, "window_bits": 4}

FUZZ_SEEDS = range(60)


def _random_delay(rng):
    r = rng.random()
    if r < 0.15:
        return 0  # spill: lands at/behind the active slot
    if r < 0.55:
        return rng.randrange(1, 400)  # mostly level 0
    if r < 0.85:
        return rng.randrange(400, 8_000)  # level 1
    return rng.randrange(8_000, 200_000)  # overflow heap


def _run_workload(env, seed, initial=48, max_events=1_500):
    """Random self-extending timeout cascade; returns the firing record.

    The RNG is consumed in firing order, so two schedulers produce the
    same draws iff they fire events in the same order -- any ordering
    divergence snowballs into a different record.
    """
    rng = random.Random(seed)
    serial = itertools.count()
    fired = []

    def callback(event):
        fired.append((env.now, event._value))
        if len(fired) < max_events and rng.random() < 0.6:
            child = env.timeout(_random_delay(rng), next(serial))
            child.callbacks.append(callback)
            if rng.random() < 0.3:
                twin = env.timeout(_random_delay(rng), next(serial))
                twin.callbacks.append(callback)

    for _ in range(initial):
        timeout = env.timeout(_random_delay(rng), next(serial))
        timeout.callbacks.append(callback)
    env.run()
    return fired


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_wheel_matches_heap(seed):
    heap_fired = _run_workload(Environment(), seed)
    wheel_fired = _run_workload(WheelEnvironment(**TINY_WHEEL), seed)
    assert wheel_fired == heap_fired
    assert len(heap_fired) > 100  # the workload actually ran


@pytest.mark.parametrize("seed", range(10))
def test_fuzz_default_geometry_matches_heap(seed):
    heap_fired = _run_workload(Environment(), seed)
    wheel_fired = _run_workload(WheelEnvironment(), seed)
    assert wheel_fired == heap_fired


def test_pop_order_is_globally_sorted():
    """Raw pops come in ascending (when, priority, eid) regardless of
    which internal structure an entry landed in."""
    env = WheelEnvironment(**TINY_WHEEL)
    rng = random.Random(7)
    expected = []
    for index in range(500):
        event = Event(env)
        event._ok = True
        event._value = index
        delay = _random_delay(rng)
        priority = rng.choice((NORMAL, NORMAL, NORMAL, 5))
        env.schedule(event, delay, priority)
        # eid equals insertion index here (fresh env, no other inserts).
        expected.append((delay, priority, index))
    expected.sort()
    got = []
    while env.pending_events():
        _when, _prio, _eid, event = env._pop()
        got.append(event._value)
    assert got == [index for _, _, index in expected]


def test_overflow_beyond_horizon_lands_in_heap():
    env = WheelEnvironment(**TINY_WHEEL)
    horizon_ns = 1 << (4 + 5 + 4)  # granularity * slots * windows
    env.timeout(horizon_ns * 50)
    occupancy = env.occupancy()
    assert occupancy["heap"] == 1
    assert occupancy["wheel"] == 0
    assert env.overflow_inserts == 1


def test_cascade_counts_level1_windows():
    env = WheelEnvironment(**TINY_WHEEL)
    fired = []
    for index in range(8):
        timeout = env.timeout(600 + index * 700, index)  # past level 0
        timeout.callbacks.append(lambda ev: fired.append(ev._value))
    assert env.occupancy()["level1"] == 8
    env.run()
    assert fired == list(range(8))
    assert env.cascades > 0


def test_window_jump_skips_empty_level0():
    """A single far level-1 entry is reached without slot-by-slot scans
    (indirectly: the run terminates and fires in order)."""
    env = WheelEnvironment(granularity_bits=0, slot_bits=2, window_bits=8)
    fired = []
    timeout = env.timeout(3 * 4 + 1, "far")  # a few windows out
    timeout.callbacks.append(lambda ev: fired.append(ev._value))
    env.run()
    assert fired == ["far"]
    assert env.now == 13


def test_cursor_reanchors_after_overflow_only_schedule():
    env = WheelEnvironment(granularity_bits=0, slot_bits=2, window_bits=2)
    env.timeout(1_000)  # beyond the 16 ns horizon: overflow heap
    env.run()
    assert env.now == 1_000
    assert env.overflow_inserts == 1
    # The wheel was dry and the cursor stale; a near-future insert must
    # re-anchor into level 0 instead of leaking to the heap forever.
    env.timeout(2)
    occupancy = env.occupancy()
    assert occupancy["level0"] == 1
    assert env.overflow_inserts == 1


def test_spill_takes_zero_delay_wakeups():
    env = WheelEnvironment(**TINY_WHEEL)
    event = Event(env)
    event._ok = True
    env.schedule_timeout(event, 0)
    assert env.occupancy()["spill"] == 1


def test_run_until_time_matches_heap():
    def drive(env):
        fired = []
        for index in range(20):
            timeout = env.timeout(index * 7, index)
            timeout.callbacks.append(lambda ev: fired.append(ev._value))
        env.run(until=70)
        return fired, env.now

    assert drive(WheelEnvironment(**TINY_WHEEL)) == drive(Environment())


def test_run_until_event_and_processes():
    env = WheelEnvironment(**TINY_WHEEL)

    def proc():
        yield env.timeout(100)
        yield env.timeout(5_000)
        return "done"

    assert env.run(until=env.process(proc())) == "done"
    assert env.now == 5_100


def test_step_processes_single_event():
    env = WheelEnvironment(**TINY_WHEEL)
    env.timeout(3)
    env.timeout(9)
    env.step()
    assert env.now == 3
    assert env.pending_events() == 1


def test_peek_scans_all_structures():
    env = WheelEnvironment(**TINY_WHEEL)
    assert env.peek() is None
    env.timeout(100_000)  # overflow
    assert env.peek() == 100_000
    env.timeout(1_000)  # level 1
    assert env.peek() == 1_000
    env.timeout(17)  # level 0
    assert env.peek() == 17
    event = Event(env)
    event._ok = True
    env.schedule_timeout(event, 0)  # spill
    assert env.peek() == 0


def test_timeout_pool_recycles_through_wheel():
    env = WheelEnvironment(**TINY_WHEEL)

    def proc():
        for _ in range(50):
            yield env.timeout(10)

    env.process(proc())
    env.run()
    assert env.timeout_pool_hits > 0


def test_new_environment_registry():
    assert SCHEDULERS == ("heap", "wheel")
    assert type(new_environment()) is Environment
    assert type(new_environment("heap")) is Environment
    assert isinstance(new_environment("wheel", granularity_bits=4), WheelEnvironment)
    with pytest.raises(ValueError):
        new_environment("heap", granularity_bits=4)
    with pytest.raises(ValueError):
        new_environment("fibheap")
    with pytest.raises(ValueError):
        WheelEnvironment(slot_bits=0)


def test_negative_delay_rejected():
    env = WheelEnvironment(**TINY_WHEEL)
    with pytest.raises(ValueError):
        env.timeout(-1)
    with pytest.raises(ValueError):
        env.schedule(Event(env), -5)


# -- full-stack equivalence: the paper harnesses, heap vs wheel --------


def _invocation_run(scheduler):
    dep = Deployment.build(
        executors=1, clients=1, config=RFaaSConfig(scheduler=scheduler)
    )
    dep.settle()
    invoker = dep.new_invoker()
    package = noop_package()

    def driver():
        yield from invoker.allocate(package, workers=1)
        in_buf = invoker.alloc_input(1024)
        in_buf.write(bytes(1024))
        out_buf = invoker.alloc_output(1024)
        rtts = []
        for _ in range(25):
            future = invoker.submit("echo", in_buf, 1024, out_buf)
            result = yield future.wait()
            rtts.append(result.rtt_ns)
        return rtts

    rtts = dep.run(driver())
    return rtts, dep.env.now, dep.env.events_processed


def test_invocation_pipeline_identical_across_schedulers():
    assert _invocation_run("heap") == _invocation_run("wheel")


def test_fig8_measurement_identical_across_schedulers():
    runs = {
        scheduler: measure_rfaas_rtts(
            128,
            mode="hot",
            repetitions=6,
            config=RFaaSConfig(scheduler=scheduler),
        )
        for scheduler in SCHEDULERS
    }
    assert runs["heap"].stats == runs["wheel"].stats


# -- the argsort refill ------------------------------------------------


def test_large_bucket_refill_matches_heap_order():
    """A bucket past _REFILL_ARGSORT_MIN sorts via lexsort; pop order
    must stay bit-identical to the heap, ties included."""
    n = _REFILL_ARGSORT_MIN + 300
    rng = random.Random(42)
    # Many duplicate timestamps inside one coarse slot to stress ties.
    delays = [rng.randrange(1, 50) * 1000 for _ in range(n)]
    orders = []
    for cls in (Environment, WheelEnvironment):
        env = cls() if cls is Environment else cls(granularity_bits=20)
        fired = []

        def on_fire(event):
            fired.append((env.now, event._value))

        for i, delay in enumerate(delays):
            timeout = env.timeout(delay, i)
            timeout.callbacks.append(on_fire)
        env.run()
        orders.append(fired)
    assert orders[0] == orders[1]
