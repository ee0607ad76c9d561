"""FIFO replay post-pass and c-server recurrence (repro.analysis.latency)."""

import heapq
from collections import deque

import numpy as np
import pytest

from repro import perf
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


def _groups(keys, count):
    """Per key in ``range(count)``, the ascending positions of its arrivals."""
    return [np.flatnonzero(keys == key) for key in range(count)]


def _serve(servers, times, services, chunk=None, keys=None, caps=None):
    pool = FifoServers(servers, caps)
    times = np.asarray(times, dtype=np.int64)
    services = np.asarray(services, dtype=np.int64)
    step = chunk or max(1, times.size)
    starts = [
        pool.serve(
            times[i : i + step],
            services[i : i + step],
            None if keys is None else _groups(np.asarray(keys[i : i + step]), len(caps)),
        )
        for i in range(0, max(1, times.size), step)
    ]
    return np.concatenate(starts).tolist(), pool


def event_walk(servers, times, services, keys=None, caps=None):
    """The scale engine's FSM, one event at a time: completions fire
    before arrivals at equal times, a dry pool queues FIFO.

    Each key queues in its own FIFO; an arrival that finds its key's
    FIFO at ``caps[key]`` is rejected (start ``-1``), and a completion
    serves the oldest waiter across keys, the lowest key on ties.
    Returns the starts and the per-key queued, peak backlog and
    rejected counts.
    """
    n = len(times)
    keys = [0] * n if keys is None else keys
    caps = [n] if caps is None else caps
    events = [(t, 1, i) for i, t in enumerate(times)]  # (when, prio, seq)
    heapq.heapify(events)
    seq = n
    free = servers
    backlogs = [deque() for _ in caps]
    starts = [None] * n
    queued, max_backlog, rejected = [0] * len(caps), [0] * len(caps), [0] * len(caps)

    def begin(i, now):
        nonlocal seq
        starts[i] = now
        heapq.heappush(events, (now + services[i], 0, seq))
        seq += 1

    while events:
        now, prio, i = heapq.heappop(events)
        if prio == 1:
            key = keys[i]
            if free:
                free -= 1
                begin(i, now)
            elif len(backlogs[key]) >= caps[key]:
                starts[i] = -1
                rejected[key] += 1
            else:
                backlogs[key].append(i)
                queued[key] += 1
                max_backlog[key] = max(max_backlog[key], len(backlogs[key]))
            continue
        heads = [(times[backlog[0]], key) for key, backlog in enumerate(backlogs) if backlog]
        if heads:
            begin(backlogs[min(heads)[1]].popleft(), now)
        else:
            free += 1
    return starts, queued, max_backlog, rejected


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
    ref_starts, ref_queued, ref_backlog, _ = event_walk(
        servers, times.tolist(), services.tolist()
    )
    assert starts == ref_starts
    assert (pool.queued, pool.max_backlog) == (ref_queued[0], ref_backlog[0])
    assert pool.queued > 0


@pytest.mark.parametrize("servers", [1, 3, 16])
@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize(
    "caps", [(5,), (600, 600, 600), (1, 3, 16)], ids=["one-key", "uncapped", "capped"]
)
def test_keyed_matches_event_walk(servers, chunk, caps):
    rng = np.random.default_rng(servers)
    n = 600
    times = rng.integers(0, 400, size=n).astype(np.int64)
    services = rng.integers(1, 30, size=n).astype(np.int64)
    keys = rng.integers(0, len(caps), size=n)
    # The merged tenant calendar's order: equal times by ascending key.
    order = np.lexsort((keys, times))
    times, keys = times[order], keys[order]
    starts, pool = _serve(
        servers, times, services, chunk, None if len(caps) == 1 else keys, caps
    )
    ref_starts, ref_queued, ref_backlog, ref_rejected = event_walk(
        servers, times.tolist(), services.tolist(), keys.tolist(), list(caps)
    )
    assert starts == ref_starts
    assert pool.queued_by == ref_queued
    assert pool.max_backlog_by == ref_backlog
    assert pool.rejected_by == ref_rejected
    assert pool.queued > 0
    # A cap of n can never bind; every smaller one here does.
    assert (sum(ref_rejected) > 0) == (min(caps) < n)


def test_fifo_servers_empty_input():
    pool = FifoServers(4)
    starts = pool.serve(np.empty(0, dtype=np.int64), [])
    assert starts.size == 0
    assert (pool.queued, pool.max_backlog, pool.untouched) == (0, 0, 4)


@pytest.mark.parametrize("servers", [256, 1_536])
@pytest.mark.parametrize("chunk", [None, 7, 1_000])
@pytest.mark.parametrize(
    "caps", [None, (8_000,) * 3, (4, 40, 400)], ids=["unkeyed", "uncapped", "capped"]
)
def test_large_pools_match_event_walk(servers, chunk, caps):
    """Pools large enough for the block path, overloaded twofold with
    wide log-normal services so that blocks truncate and fall back to
    stepping; coarse times make arrival and completion ties common.
    Services are drawn from 1, then from 0 with a fifth of them taking
    no time, so that finishes tie the free times they took."""
    for least in (1, 0):
        rng = np.random.default_rng(servers + (chunk or 0))
        n = 8_000
        services = np.maximum(least, rng.lognormal(5.0, 1.5, size=n)).astype(np.int64)
        span = int(n * services.mean() / (servers * 2.0))
        times = rng.integers(0, span, size=n) // 50 * 50
        keys = None if caps is None else rng.integers(0, len(caps), size=n)
        order = np.argsort(times, kind="stable") if keys is None else np.lexsort((keys, times))
        times = times[order]
        keys = None if keys is None else keys[order]
        if not least:
            services[rng.random(n) < 0.2] = 0
        before = perf.snapshot()
        perf.enable()
        try:
            starts, pool = _serve(servers, times, services, chunk, keys, caps)
        finally:
            perf.disable()
        moved = perf.delta(before, perf.snapshot())
        ref_starts, ref_queued, ref_backlog, ref_rejected = event_walk(
            servers,
            times.tolist(),
            services.tolist(),
            None if keys is None else keys.tolist(),
            None if caps is None else list(caps),
        )
        assert starts == ref_starts, f"services from {least}"
        assert pool.queued_by == ref_queued
        assert pool.max_backlog_by == ref_backlog
        assert pool.rejected_by == ref_rejected
        assert pool.queued > 0
        assert (sum(ref_rejected) > 0) == (caps is not None and min(caps) < n)
        # Every arrival went through exactly one path, and a chunk of
        # 1,000 or more under no binding cap took both: blocks and
        # stepped stretches.
        assert moved["fifo_block_arrivals"] + moved["fifo_step_arrivals"] == n
        if chunk != 7 and caps != (4, 40, 400):
            assert moved["fifo_block_arrivals"] > servers
            assert moved["fifo_step_arrivals"] > 0


def test_block_holds_arrivals_past_a_finish_equal_to_free_times():
    """A block whose earliest finish equals free times in the pool holds
    every arrival that takes one of them: the block ends at the first
    free time *past* that finish (``side="right"``)."""
    # 40 servers: after the first 40 arrivals, 36 free at 10 and 4 at 50.
    times = [0] * 40 + [5] * 40
    services = [10] * 36 + [50] * 4 + [0] + [100] * 39
    before = perf.snapshot()
    perf.enable()
    try:
        starts, pool = _serve(40, times, services)
    finally:
        perf.disable()
    moved = perf.delta(before, perf.snapshot())
    ref_starts, ref_queued, ref_backlog, _ = event_walk(40, times, services)
    assert starts == ref_starts
    assert (pool.queued, pool.max_backlog) == (ref_queued[0], ref_backlog[0])
    # The zero-service waiter finishes at 10, tying 36 free times: the 36
    # waiters that take them form one block, and the 37th takes the
    # zero-service waiter's server, freed again at 10.
    assert starts[40:] == [10] * 37 + [50] * 3
    assert moved["fifo_block_arrivals"] == 40 + 36
    assert moved["fifo_step_arrivals"] == 4


def test_fifo_servers_rejects_negative_caps():
    with pytest.raises(ValueError, match="key 1 has a negative queue cap"):
        FifoServers(2, caps=[4, -1])
    # A cap of 0 is valid: every arrival that must wait is rejected.
    starts, pool = _serve(1, [0, 1, 2, 10], [10, 1, 1, 1], caps=(0,))
    assert starts == [0, -1, -1, 10]
    assert (pool.rejected_by, pool.queued, pool.max_backlog) == ([2], 0, 0)


def test_fifo_servers_validation():
    with pytest.raises(ValueError):
        FifoServers(0)
    with pytest.raises(ValueError):
        FifoServers(2).serve([1, 2], [1])
    # The block rule needs every finish at or after the free time it
    # took: a negative service is rejected before any state moves.
    pool = FifoServers(2)
    with pytest.raises(ValueError, match="service times must be non-negative"):
        pool.serve([1, 2], [3, -1])
    assert pool.untouched == 2
    assert pool.serve([1, 2], [3, 0]).tolist() == [1, 2]
    with pytest.raises(ValueError):
        FifoServers(2, caps=[])
    # Groups: one ascending position array per key, placing every
    # arrival once.
    with pytest.raises(ValueError):
        FifoServers(2, caps=[4, 4]).serve([1, 2], [1, 1], groups=[[0], []])
    with pytest.raises(ValueError):
        FifoServers(2, caps=[4, 4]).serve([1, 2], [1, 1], groups=[[0], [2]])
    with pytest.raises(ValueError):
        FifoServers(2, caps=[4, 4]).serve([1, 2, 3], [1, 1, 1], groups=[[1, 0], [2]])
    with pytest.raises(ValueError, match="place each of the chunk's 3 arrivals once"):
        FifoServers(2, caps=[4, 4]).serve([1, 2, 3], [1, 1, 1], groups=[[0, 1], [1]])
    with pytest.raises(ValueError):
        FifoServers(2, caps=[4, 4]).serve([1, 2], [1, 1])
    with pytest.raises(ValueError):
        FifoServers(2).serve([1, 2], [1, 1], groups=[[0], [1]])
    # The block rule and the backlog pass need non-decreasing times,
    # within a chunk and across chunks.
    with pytest.raises(ValueError):
        FifoServers(1).serve([0, 10, 5, 6], [4] * 4)
    pool = FifoServers(1)
    pool.serve([0, 10], [4, 4])
    with pytest.raises(ValueError):
        pool.serve([5, 6], [4, 4])
    pool.serve([10, 12], [4, 4])  # equal to the last arrival is in order
