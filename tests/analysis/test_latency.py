"""FIFO replay post-pass and c-server recurrence (repro.analysis.latency)."""

import heapq
from collections import deque

import numpy as np
import pytest

from repro.analysis.latency import FifoServers, replay_fifo, sojourn_by_kind


def naive_fifo(times, kinds, keys, service_ns):
    rows = sorted(zip(times, kinds, keys))
    done, free_at = [], 0
    for t, kind, _key in rows:
        start = max(t, free_at)
        free_at = start + service_ns[kind]
        done.append(free_at)
    return rows, done


def random_log(rng, n=500, kind_count=4):
    times = np.sort(rng.integers(0, 10_000, size=n)).astype(np.int64)
    kinds = rng.integers(0, kind_count, size=n).astype(np.int64)
    # Unique (time, kind, key) triples via distinct keys.
    keys = rng.permutation(n).astype(np.int64)
    return times, kinds, keys


def test_matches_naive_loop():
    rng = np.random.default_rng(11)
    service = np.array([100, 5, 70, 2000], dtype=np.int64)
    times, kinds, keys = random_log(rng)
    order, done = replay_fifo(times, kinds, keys, service)
    _rows, naive_done = naive_fifo(times.tolist(), kinds.tolist(), keys.tolist(), service)
    assert done.tolist() == naive_done
    # Canonical order is (time, kind, key) lexicographic.
    triples = list(zip(times[order], kinds[order], keys[order]))
    assert triples == sorted(triples)


def test_idle_server_serves_at_arrival():
    times = np.array([0, 1_000_000], dtype=np.int64)
    kinds = np.array([0, 0], dtype=np.int64)
    keys = np.array([0, 1], dtype=np.int64)
    service = np.array([10], dtype=np.int64)
    _order, done = replay_fifo(times, kinds, keys, service)
    assert done.tolist() == [10, 1_000_010]


def test_burst_queues_behind_in_flight():
    times = np.zeros(5, dtype=np.int64)
    kinds = np.zeros(5, dtype=np.int64)
    keys = np.arange(5, dtype=np.int64)
    service = np.array([7], dtype=np.int64)
    _order, done = replay_fifo(times, kinds, keys, service)
    assert done.tolist() == [7, 14, 21, 28, 35]


def test_sojourn_by_kind_partitions_all_rows():
    rng = np.random.default_rng(5)
    service = np.array([100, 5, 70, 2000], dtype=np.int64)
    times, kinds, keys = random_log(rng, n=300)
    per_kind = sojourn_by_kind(times, kinds, keys, service, 4)
    assert sum(len(p) for p in per_kind) == 300
    for kind, part in enumerate(per_kind):
        assert len(part) == int(np.count_nonzero(kinds == kind))
        # Sojourn is at least the service time.
        if part.size:
            assert part.min() >= service[kind]


def test_empty_log():
    empty = np.empty(0, dtype=np.int64)
    order, done = replay_fifo(empty, empty, empty, np.array([1], dtype=np.int64))
    assert order.size == 0 and done.size == 0
    parts = sojourn_by_kind(empty, empty, empty, np.array([1], dtype=np.int64), 3)
    assert [p.size for p in parts] == [0, 0, 0]


def test_shape_validation():
    with pytest.raises(ValueError):
        replay_fifo(
            np.array([1, 2], dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int64),
        )


# -- FifoServers: the c-server recurrence ------------------------------


def _serve(servers, times, services, chunk=None):
    pool = FifoServers(servers)
    times = np.asarray(times, dtype=np.int64)
    services = np.asarray(services, dtype=np.int64)
    step = chunk or max(1, times.size)
    starts = [
        pool.serve(times[i : i + step], services[i : i + step])
        for i in range(0, max(1, times.size), step)
    ]
    return np.concatenate(starts).tolist(), pool


def event_walk(servers, times, services):
    """The scale engine's FSM, one event at a time: completions fire
    before arrivals at equal times, a dry pool queues FIFO."""
    events = [(t, 1, i) for i, t in enumerate(times)]  # (when, prio, seq)
    heapq.heapify(events)
    seq = len(times)
    free, backlog = servers, deque()
    starts = [None] * len(times)
    queued = max_backlog = 0

    def begin(i, now):
        nonlocal seq
        starts[i] = now
        heapq.heappush(events, (now + services[i], 0, seq))
        seq += 1

    while events:
        now, prio, i = heapq.heappop(events)
        if prio == 1:
            if free:
                free -= 1
                begin(i, now)
            else:
                backlog.append(i)
                queued += 1
                max_backlog = max(max_backlog, len(backlog))
        elif backlog:
            begin(backlog.popleft(), now)
        else:
            free += 1
    return starts, queued, max_backlog


def test_arrival_at_a_completion_instant_is_not_queued():
    starts, pool = _serve(1, [0, 10, 10], [10, 5, 5])
    # The server frees at 10, exactly when arrival 1 lands: no wait.
    assert starts == [0, 10, 15]
    assert pool.queued == 1  # only arrival 2 waited
    assert pool.max_backlog == 1


def test_equal_arrival_times_are_served_in_index_order():
    starts, pool = _serve(2, [0, 0, 0, 0], [5, 3, 4, 1])
    # Index 2 takes the first server to free (index 1's, at 3), index 3
    # the next one (index 0's, at 5).
    assert starts == [0, 0, 3, 5]
    assert pool.queued == 2
    assert pool.max_backlog == 2


def test_one_server_reproduces_replay_fifo():
    rng = np.random.default_rng(3)
    n = 400
    times = np.sort(rng.integers(0, 20_000, size=n)).astype(np.int64)
    services = rng.integers(1, 120, size=n).astype(np.int64)
    # One kind per row carries a per-row service; index order breaks
    # time ties, as in the recurrence.
    _order, done = replay_fifo(times, np.arange(n), np.zeros(n), services)
    starts, _pool = _serve(1, times, services)
    assert (np.asarray(starts) + services).tolist() == done.tolist()


def test_saturated_queue_counts_and_backlog():
    times = [0, 1, 2, 3, 12, 13]
    starts, pool = _serve(2, times, [10] * 6)
    assert starts == [0, 1, 10, 11, 20, 21]
    assert pool.queued == 4
    # At t=12 the arrivals queued at 2 and 3 have started (at 10, 11):
    # the backlog never holds more than two at once.
    assert pool.max_backlog == 2


@pytest.mark.parametrize("servers", [1, 3, 16])
@pytest.mark.parametrize("chunk", [None, 7])
def test_matches_event_walk(servers, chunk):
    rng = np.random.default_rng(servers)
    n = 600
    # Coarse times and services: many arrival/completion ties.
    times = np.sort(rng.integers(0, 400, size=n)).astype(np.int64)
    services = rng.integers(1, 30, size=n).astype(np.int64)
    starts, pool = _serve(servers, times, services, chunk)
    ref_starts, ref_queued, ref_backlog = event_walk(
        servers, times.tolist(), services.tolist()
    )
    assert starts == ref_starts
    assert (pool.queued, pool.max_backlog) == (ref_queued, ref_backlog)
    assert pool.queued > 0


def test_fifo_servers_empty_input():
    pool = FifoServers(4)
    starts = pool.serve(np.empty(0, dtype=np.int64), [])
    assert starts.size == 0
    assert (pool.queued, pool.max_backlog, pool.untouched) == (0, 0, 4)


def test_fifo_servers_validation():
    with pytest.raises(ValueError):
        FifoServers(0)
    with pytest.raises(ValueError):
        FifoServers(2).serve([1, 2], [1])
