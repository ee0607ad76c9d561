"""``Environment.schedule_batch``: edge cases and per-event equivalence.

Empty chunks, single elements, all-equal timestamps, chunks landing
exactly at ``now``, chunks in the past and non-1-D inputs, plus the
admission contract: a batch must pop exactly like per-event admission
of the same deadline stream.
"""

import random

import numpy as np
import pytest

from repro.sim.core import Environment
from repro.sim.events import BatchEvent


def _fire_all(env, times):
    fired = []

    def on_fire(event):
        fired.append(env.now)

    events = env.schedule_batch(times, on_fire)
    env.run()
    return events, fired


def test_empty_chunk_is_a_noop():
    env = Environment()
    events = env.schedule_batch(np.empty(0, dtype=np.int64), lambda e: None)
    assert events == []
    assert env.peek() is None
    # No entry ids consumed: the next event is still id 0.
    assert next(env._eid) == 0


def test_single_element_chunk():
    env = Environment()
    events, fired = _fire_all(env, np.array([1_234], dtype=np.int64))
    assert len(events) == 1
    assert fired == [1_234]
    assert env.now == 1_234


def test_all_equal_timestamps_fire_in_admission_order():
    env = Environment()
    order = []

    def make(tag):
        def on_fire(event):
            order.append(tag)

        return on_fire

    times = np.full(8, 5_000, dtype=np.int64)
    for k in range(8):
        env.schedule_batch(times[k : k + 1], make(k))
    env.run()
    assert order == list(range(8))


def test_chunk_exactly_at_now_fires_immediately():
    env = Environment()
    # Advance the clock first, then admit a chunk entirely at `now`.
    env.timeout(700)
    env.run()
    assert env.now == 700
    events, fired = _fire_all(env, np.array([700, 700, 700], dtype=np.int64))
    assert fired == [700, 700, 700]


def test_chunk_in_the_past_rejected():
    env = Environment()
    env.timeout(1_000)
    env.run()
    with pytest.raises(ValueError, match="past"):
        env.schedule_batch(np.array([999], dtype=np.int64), lambda e: None)
    # A chunk whose *first* element is fine but that decreases is also out.
    with pytest.raises(ValueError, match="non-decreasing"):
        env.schedule_batch(np.array([2_000, 1_500], dtype=np.int64), lambda e: None)


def test_non_1d_chunk_rejected():
    env = Environment()
    with pytest.raises(ValueError, match="1-D"):
        env.schedule_batch(np.array([[1, 2], [3, 4]], dtype=np.int64), lambda e: None)


def test_batch_validation_rejects_bad_streams():
    env = Environment()
    env._now = 1_000
    with pytest.raises(ValueError, match="past"):
        env.schedule_batch(np.asarray([500, 1_500], dtype=np.int64), lambda e: None)
    with pytest.raises(ValueError, match="non-decreasing"):
        env.schedule_batch(np.asarray([2_000, 1_500], dtype=np.int64), lambda e: None)
    # A rejected chunk admits nothing.
    assert env.peek() is None
    assert env.schedule_batch(np.asarray([], dtype=np.int64), lambda e: None) == []


# -- batch admission == per-event admission ----------------------------


def _drain_admitted(times, batch):
    """Admit *times* (batch or per-event), run, return the firing record.

    Per-event admission uses the same shared-descriptor BatchEvent and
    the same eid-per-deadline order ``schedule_batch`` allocates.
    """
    env = Environment()
    fired = []

    def callback(event):
        fired.append((env.now, event._value))

    if batch:
        events = env.schedule_batch(np.asarray(times, dtype=np.int64), callback)
    else:
        shared = (callback,)
        events = []
        for when in times:
            event = BatchEvent(env, shared)
            env.schedule_timeout(event, when - env.now)
            events.append(event)
    for index, event in enumerate(events):
        event._value = index
    env.run()
    return fired


@pytest.mark.parametrize("seed", range(8))
def test_batch_admission_identical_to_per_event(seed):
    rng = random.Random(seed)
    # Duplicates and a heavy tail.
    times = sorted(rng.randrange(1, 400_000) for _ in range(600))
    per_event = _drain_admitted(times, batch=False)
    assert len(per_event) == len(times)
    assert _drain_admitted(times, batch=True) == per_event
