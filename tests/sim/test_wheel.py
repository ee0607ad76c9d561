"""Event-calendar pop order under random self-extending timeout cascades.

This module once held the hierarchical timer wheel to the heap's pop
order.  The wheel is deleted (CHANGES.md records why); its cascade fuzz
keeps its test ids and now holds the heap ``Environment`` to the
contract the two shared, on its own: every scheduled timeout fires
exactly once, in ascending ``(when, eid)`` order, and the inlined
``run()`` loop fires the same sequence as ``step()`` called one event
at a time.  Children are scheduled from inside callbacks, so most
timeouts come off the recycled-timeout free list: a timeout handed out
while still pending would overwrite a serial and show up as a lost or
doubled one.
"""

import itertools
import random

import pytest

from repro.sim.core import Environment

FUZZ_SEEDS = range(60)


def _random_delay(rng):
    r = rng.random()
    if r < 0.15:
        return 0  # fires at the current instant, after every earlier entry
    if r < 0.55:
        return rng.randrange(1, 400)
    if r < 0.85:
        return rng.randrange(400, 8_000)
    return rng.randrange(8_000, 200_000)


def _run_workload(drive, seed, initial=48, max_events=1_500):
    """Random self-extending timeout cascade, driven by ``drive(env)``.

    Returns the firing record ``[(now, serial)]`` and the number of
    timeouts scheduled.  Serials are handed out in scheduling order,
    which is entry-id order on a fresh environment.  The RNG is consumed
    in firing order, so two drivers produce the same draws iff they
    fire events in the same order.
    """
    env = Environment()
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
    drive(env)
    return fired, next(serial)


def _step_until_empty(env):
    while env.peek() is not None:
        env.step()


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_wheel_matches_heap(seed):
    fired, scheduled = _run_workload(Environment.run, seed)
    assert len(fired) > 100  # the workload actually ran
    # Sorted and complete: each pop was the least pending (when, eid).
    assert fired == sorted(fired)
    assert sorted(value for _, value in fired) == list(range(scheduled))
    assert _run_workload(_step_until_empty, seed) == (fired, scheduled)
