"""ColdLane: the spin-up calendar under the ordering contract.

The lane holds dry-pool spin-ups (ready/arrival/service int64 cells);
fires must come out in global ``(when, eid)`` order through
out-of-order admissions (fallback heap), the generic event loop's
merge against the wheel, and the keepalive-0 whole-backlog slab
(``drain_spinups_all``).
"""

import pytest

from repro.sim.wheel import _LANE_SCALAR_SLAB, WheelEnvironment


class Recorder:
    """Callback sink recording every fire the lane delivers."""

    def __init__(self):
        self.readies = []  # (when, arrival, service) scalar fires
        self.slabs = []  # (when_a, arrival_a, service_a) tuples

    def on_ready(self, when, arrival, service):
        self.readies.append((when, arrival, service))

    def on_ready_slab(self, when_a, arrival_a, service_a):
        self.slabs.append(
            (when_a.tolist(), arrival_a.tolist(), service_a.tolist())
        )

    @property
    def all_ready_whens(self):
        out = [w for w, _, _ in self.readies]
        for when_a, _, _ in self.slabs:
            out.extend(when_a)
        return out


def _lane():
    env = WheelEnvironment()
    rec = Recorder()
    lane = env.attach_cold_lane(rec.on_ready, rec.on_ready_slab)
    return env, lane, rec


def _fire_to_empty(lane):
    while lane.fire_one() is not None:
        pass


def test_spinups_fire_in_admission_order():
    env, lane, rec = _lane()
    for ready in (10, 20, 30, 40):
        lane.admit(ready, ready - 5, 100)
    _fire_to_empty(lane)
    assert [w for w, _, _ in rec.readies] == [10, 20, 30, 40]
    assert len(lane) == 0


def test_behind_floor_admission_diverts_to_heap_and_still_orders():
    env, lane, rec = _lane()
    lane.admit(100, 90, 7)
    lane.admit(40, 30, 5)  # behind the floor: fallback heap
    lane.admit(150, 140, 9)
    assert lane.head_key()[0] == 40
    _fire_to_empty(lane)
    assert rec.readies == [(40, 30, 5), (100, 90, 7), (150, 140, 9)]


def test_generic_run_merges_lane_with_wheel_in_key_order():
    # Spin-ups and ordinary timeouts interleave by (when, eid): at
    # when=20 the timeout was scheduled first, so it fires first.
    env, lane, rec = _lane()
    order = []
    lane.on_ready = lambda w, a, s: order.append(("spin", w, env.now))
    for delay in (5, 20, 35):
        env.timeout(delay).callbacks.append(lambda ev: order.append(("wheel", env.now)))
    lane.admit(10, 0, 1)
    lane.admit(20, 0, 1)
    lane.admit(30, 0, 1)
    assert env.peek() == 5
    assert env.pending_events() == 6
    env.run()
    assert order == [
        ("wheel", 5),
        ("spin", 10, 10),
        ("wheel", 20),
        ("spin", 20, 20),
        ("spin", 30, 30),
        ("wheel", 35),
    ]
    assert env.events_processed == 6
    assert env.pending_events() == 0


def test_drain_spinups_all_slabs_everything_including_future():
    env, lane, rec = _lane()
    n = 3 * _LANE_SCALAR_SLAB
    for t in range(n):
        lane.admit(1000 + t, t, 50)
    fired = lane.drain_spinups_all()
    assert fired == n
    assert len(lane) == 0
    # Whole backlog in one vectorized run: no scalar fires.
    assert rec.readies == []
    assert rec.all_ready_whens == [1000 + t for t in range(n)]
    stats = lane.stats()
    assert stats["cold_slabs"] == 1
    assert stats["cold_max_slab"] == n
    assert stats["cold_scalar_fires"] == 0
    assert stats["cold_spinups"] == n


def test_drain_spinups_all_small_runs_go_scalar():
    env, lane, rec = _lane()
    for t in range(5):
        lane.admit(10 + t, t, 1)
    assert lane.drain_spinups_all() == 5
    assert len(rec.readies) == 5
    assert rec.slabs == []


def test_drain_spinups_all_refuses_out_of_order_entries():
    env, lane, rec = _lane()
    lane.admit(50, 50, 1)
    lane.admit(10, 10, 1)  # behind the floor: fallback heap
    with pytest.raises(RuntimeError, match="fallback heap"):
        lane.drain_spinups_all()


def test_stats_keys_complete():
    env, lane, rec = _lane()
    assert set(lane.stats()) == {
        "cold_entries",
        "cold_entries_peak",
        "cold_slabs",
        "cold_max_slab",
        "cold_scalar_fires",
        "cold_spinups",
        "cold_generations",
    }
    lane.admit(10, 10, 1)
    assert lane.stats()["cold_entries"] == 1
    assert lane.stats()["cold_entries_peak"] == 1


def test_attach_twice_raises():
    env, lane, rec = _lane()
    with pytest.raises(RuntimeError, match="already attached"):
        env.attach_cold_lane()
