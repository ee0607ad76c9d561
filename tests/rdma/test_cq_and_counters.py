"""CQ bounds/stats, QP counters, link counters."""

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
    assert 0 < egress.busy_time <= env.now  # busy for part of the run
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
    """Just a clock: LinkQueue only ever reads the environment's ``_now``."""

    def __init__(self) -> None:
        self._now = 0


def _fresh_link():
    from repro.rdma.fabric import LinkQueue
    from repro.rdma.latency import LatencyModel

    env = _FakeEnv()
    return env, LinkQueue(env, LatencyModel(), "t.egress")


def test_link_queue_memory_stays_flat():
    """A LinkQueue keeps running counters, not a per-reservation log,
    and a bounded serialization memo, not one entry per size ever
    seen: 10,000 reservations over 5,000 distinct sizes leave under
    16 KiB allocated in its module (a memo of all 5,000 sizes would
    take over 100 KiB)."""
    import tracemalloc

    from repro.rdma.latency import LatencyModel

    env, link = _fresh_link()
    only_fabric = [tracemalloc.Filter(True, "*/repro/rdma/fabric.py")]
    sizes = [64 + 3 * (i % 5_000) for i in range(10_000)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(only_fabric)
        for size in sizes:
            env._now += 7
            link.reserve(size)
        after = tracemalloc.take_snapshot().filter_traces(only_fabric)
    finally:
        tracemalloc.stop()
    growth = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert growth < 16 * 1024
    assert link.bytes_carried == sum(sizes)
    model = LatencyModel()
    assert link.busy_time == sum(model.serialization_ns(size) for size in sizes)
    assert 0 < link.busy_time <= link.busy_until


@pytest.mark.parametrize("consumer", ["busy_poll", "blocking_wait"])
@pytest.mark.parametrize("interrupt_at", [50, 120])
def test_interrupted_cq_wait_is_cancelled_lazily(consumer, interrupt_at):
    """An interrupted consumer stops waiting: whatever it waited on (the
    CQ arrival, or the detect delay once a CQE landed) still fires, as a
    no-op, and no later poll takes a CQE from the next consumer."""
    from repro.sim import Interrupt

    env = Environment()
    nic = Fabric(env).attach("a")
    cq = nic.create_cq()
    outcome = []

    def waiter():
        try:
            outcome.append((yield from getattr(cq, consumer)()))
        except Interrupt:
            outcome.append("interrupted")

    proc = env.process(waiter())

    def driver():
        yield env.timeout(100)
        cq.push(WorkCompletion(wr_id=7, opcode=WCOpcode.RECV))

    def interrupter():
        yield env.timeout(interrupt_at)
        proc.interrupt("stop")

    env.process(driver())
    env.process(interrupter())
    env.run()
    assert outcome == ["interrupted"]
    assert [wc.wr_id for wc in cq.poll()] == [7]
    # Three processes (start + end each), two sleeps, the interrupt, the
    # wake-up the CQE still delivers to the abandoned wait and, when the
    # wait was already in its detect delay, that delay.
    assert env.events_processed == (11 if interrupt_at > 100 else 10)
