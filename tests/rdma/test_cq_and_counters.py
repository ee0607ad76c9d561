"""CQ bounds/stats, QP counters, link utilization accounting."""

import pytest

from repro.rdma import Access, Fabric, Opcode, QueuePair, SendWR, WorkCompletion, sge
from repro.rdma.completion import CompletionQueue, CQOverflow
from repro.rdma.constants import WCOpcode
from repro.sim import Environment, KiB, MiB


def test_cq_overflow_raises():
    env = Environment()
    cq = CompletionQueue(env, depth=2, name="tiny")
    cq.push(WorkCompletion(wr_id=1, opcode=WCOpcode.RECV))
    cq.push(WorkCompletion(wr_id=2, opcode=WCOpcode.RECV))
    with pytest.raises(CQOverflow):
        cq.push(WorkCompletion(wr_id=3, opcode=WCOpcode.RECV))


def test_cq_poll_respects_max_entries():
    env = Environment()
    cq = CompletionQueue(env, depth=16)
    for i in range(5):
        cq.push(WorkCompletion(wr_id=i, opcode=WCOpcode.RECV))
    assert len(cq.poll(max_entries=2)) == 2
    assert len(cq) == 3
    assert cq.completions_pushed == 5


def test_cq_timestamps_completions():
    env = Environment()
    cq = CompletionQueue(env, depth=16)

    def proc():
        yield env.timeout(123)
        cq.push(WorkCompletion(wr_id=1, opcode=WCOpcode.RECV))

    env.process(proc())
    env.run()
    assert cq.poll()[0].timestamp == 123


def connected_pair():
    env = Environment()
    fabric = Fabric(env)
    parts = []
    for tag in ("a", "b"):
        nic = fabric.attach(tag)
        pd = nic.create_pd()
        mr = pd.register(nic.alloc(1 << 21), Access.all())
        cq = nic.create_cq()
        parts.append((nic, mr, cq, nic.create_qp(pd, cq)))
    QueuePair.connect_pair(parts[0][3], parts[1][3])
    return env, fabric, parts


def test_qp_counters_track_posts_and_bytes():
    env, fabric, ((nic_a, mr_a, cq_a, qp_a), (nic_b, mr_b, _, _)) = connected_pair()
    for _ in range(3):
        qp_a.post_send(
            SendWR(
                opcode=Opcode.RDMA_WRITE,
                local=sge(mr_a, 0, 1000),
                remote_addr=mr_b.addr,
                rkey=mr_b.rkey,
            )
        )
    env.run()
    assert qp_a.ops_posted == 3
    assert qp_a.bytes_sent == 3000


def test_link_counters_and_utilization():
    env, fabric, ((nic_a, mr_a, cq_a, qp_a), (nic_b, mr_b, _, _)) = connected_pair()
    size = 1 * MiB
    qp_a.post_send(
        SendWR(
            opcode=Opcode.RDMA_WRITE,
            local=sge(mr_a, 0, size),
            remote_addr=mr_b.addr,
            rkey=mr_b.rkey,
        )
    )
    env.run()
    egress = fabric._attachments["a"].egress
    ingress = fabric._attachments["b"].ingress
    assert egress.bytes_carried == size
    assert ingress.bytes_carried == size
    assert 0 < egress.utilization() <= 1.0
    # The reverse direction never carried payload (ACKs are modelled
    # as fixed delay, not link traffic).
    assert fabric._attachments["b"].egress.bytes_carried == 0


def test_connect_pair_requires_reset():
    env, fabric, ((nic_a, _, _, qp_a), (nic_b, _, _, qp_b)) = connected_pair()
    from repro.rdma import QPStateError

    with pytest.raises(QPStateError):
        QueuePair.connect_pair(qp_a, qp_b)  # already RTS


def test_reset_disconnects():
    from repro.rdma import QPState

    env, fabric, ((_, _, _, qp_a), _) = connected_pair()
    qp_a.modify(QPState.ERR)
    qp_a.modify(QPState.RESET)
    assert qp_a.remote is None
    assert not qp_a.connected


def test_send_queue_depth_enforced():
    """ibv_post_send-style ENOMEM when the SQ fills faster than the NIC
    drains it."""
    from repro.rdma import RdmaError

    env, fabric, ((nic_a, mr_a, cq_a, qp_a), (nic_b, mr_b, _, _)) = connected_pair()
    qp_small = nic_a.create_qp(qp_a.pd, cq_a, max_send_wr=4)
    peer = nic_b.create_qp(nic_b.create_pd(), nic_b.create_cq())
    QueuePair.connect_pair(qp_small, peer)

    def wr():
        return SendWR(
            opcode=Opcode.RDMA_WRITE,
            local=sge(mr_a, 0, 8),
            remote_addr=mr_b.addr,
            rkey=mr_b.rkey,
            signaled=False,
        )

    # Burst-post without letting the simulated NIC run: the 5th must fail.
    posted = 0
    with pytest.raises(RdmaError, match="send queue full"):
        for _ in range(10):
            qp_small.post_send(wr())
            posted += 1
    assert posted >= 4
    env.run()  # the accepted ones still complete


class _FakeEnv:
    """Just a clock: LinkQueue only ever reads ``env.now``."""

    def __init__(self) -> None:
        self.now = 0


def _fresh_link():
    from repro.rdma.fabric import LinkQueue
    from repro.rdma.latency import LatencyModel

    env = _FakeEnv()
    return env, LinkQueue(env, LatencyModel(), "t.egress")


def test_windowed_utilization_counts_only_window_busy_time():
    """Regression: utilization(since) used cumulative-from-zero busy time.

    A link busy for [0, d] and idle afterwards reported
    ``utilization(since=d) == 1.0`` (d/d) even though the queried
    window [d, 2d] was entirely idle (it could exceed 1.0 for larger
    transfers).
    """
    env, link = _fresh_link()
    start, finish = link.reserve(12 * KiB)
    assert start == 0 and finish > 0
    duration = finish - start

    env.now = 2 * duration
    assert link.utilization() == pytest.approx(0.5)
    assert link.utilization(since=duration) == 0.0  # idle window: 0, not 1.0
    assert link.utilization(since=duration // 2) == pytest.approx(
        (duration - duration // 2) / (env.now - duration // 2)
    )
    assert link.busy_time == duration  # cumulative counter unchanged


def test_windowed_utilization_clips_future_reservations():
    env, link = _fresh_link()
    env.now = 2000
    start, finish = link.reserve(12 * KiB)  # busy [2000, 2000+d]
    assert start == 2000
    env.now = start + (finish - start) // 2  # mid-reservation
    assert link.utilization(since=start) == pytest.approx(1.0)
    for since in (0, 1000, start, env.now - 1):
        assert 0.0 <= link.utilization(since=since) <= 1.0


def test_windowed_utilization_across_gaps():
    env, link = _fresh_link()
    _, first_end = link.reserve(12 * KiB)  # [0, d]
    duration = first_end
    env.now = 5 * duration
    second_start, second_end = link.reserve(12 * KiB)  # [5d, 6d]
    assert (second_start, second_end) == (5 * duration, 6 * duration)
    env.now = 10 * duration
    assert link.busy_before(env.now) == 2 * duration
    assert link.utilization() == pytest.approx(0.2)
    # Window covering the gap plus the second interval only.
    assert link.utilization(since=4 * duration) == pytest.approx(1 / 6)
    assert link.utilization(since=6 * duration) == 0.0


def _brute_busy(intervals, t):
    """Busy time within [0, t] by summing every clipped interval."""
    return sum(min(finish, t) - start for start, finish in intervals if start < t)


@pytest.mark.parametrize("seed", range(6))
def test_windowed_utilization_matches_brute_force_interval_sum(seed):
    """The compact history (finishes + prefix sums, starts derived)
    answers every query exactly as a brute-force walk of the intervals.

    Reservations arrive in bursts (queued back to back, so some extend
    past ``now``), after idle gaps, and with zero length; queries probe
    ``since`` inside intervals, in gaps, on interval edges and before
    reservations that extend past ``now``.
    """
    import random

    rng = random.Random(seed)
    env, link = _fresh_link()
    intervals = []
    queued = gaps = 0
    for _ in range(300):
        env.now += rng.choice((0, 0, rng.randrange(1, 40), rng.randrange(500, 20_000)))
        size = rng.choice((0, rng.randrange(1, 64), rng.randrange(1, 64 * KiB)))
        start, finish = link.reserve(size)
        queued += start > env.now
        gaps += bool(intervals) and start > intervals[-1][1]
        intervals.append((start, finish))
        if rng.random() < 0.2:
            probes = {0, env.now, env.now - 1, env.now + 1, link.busy_until + 3}
            for start, finish in intervals[-5:]:
                probes.update(
                    {start, finish, start - 1, finish + 1, (start + finish) // 2, rng.randrange(0, finish + 2)}
                )
            for t in sorted(p for p in probes if p >= 0):
                assert link.busy_before(t) == _brute_busy(intervals, t), t
                if t < env.now:
                    expected = (_brute_busy(intervals, env.now) - _brute_busy(intervals, t)) / (env.now - t)
                    assert link.utilization(since=t) == expected
                    assert 0.0 <= expected <= 1.0
    # Both regimes were exercised: reservations queued past the clock,
    # and idle gaps between intervals.
    assert queued > 10 and gaps > 10
