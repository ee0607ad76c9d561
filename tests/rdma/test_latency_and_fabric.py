"""Calibration and contention: the fabric must measure like the paper's."""

import pytest

from repro.rdma import Fabric, LatencyModel, Opcode, QueuePair, SendWR, sge
from repro.rdma.microbench import ib_write_bw, ib_write_lat
from repro.sim import Environment, MiB, us


def test_latency_model_pingpong_formula_matches_paper_rtt():
    model = LatencyModel()
    assert model.pingpong_rtt_ns(2) == 3_690  # paper: 3.69 us


def test_latency_model_inline_cliff():
    model = LatencyModel()
    at_threshold = model.one_way_ns(model.max_inline_data, inline=True)
    past_threshold = model.one_way_ns(model.max_inline_data + 1, inline=False)
    assert past_threshold - at_threshold >= model.pcie_dma_fetch_ns


def test_serialization_zero_for_empty():
    model = LatencyModel()
    assert model.serialization_ns(0) == 0
    assert model.serialization_ns(-5) == 0


def test_measured_ib_write_lat_matches_paper():
    result = ib_write_lat(2, iterations=50)
    assert result.median_ns == pytest.approx(3_690, rel=0.01)


def test_measured_bandwidth_matches_paper():
    result = ib_write_bw(1 * MiB, iterations=100)
    assert result.mib_per_sec == pytest.approx(11_686.4, rel=0.02)


def test_lat_monotone_in_size():
    sizes = [2, 512, 4096, 65536]
    medians = [ib_write_lat(size, iterations=10).median_ns for size in sizes]
    assert medians == sorted(medians)


def test_inline_asymmetry_bump_visible_in_measurement():
    """Crossing max_inline adds ~2x the DMA fetch to the ping-pong RTT."""
    model = LatencyModel()
    below = ib_write_lat(model.max_inline_data, iterations=10).median_ns
    above = ib_write_lat(model.max_inline_data + 1, iterations=10).median_ns
    assert above - below >= 2 * model.pcie_dma_fetch_ns * 0.9


def test_link_queue_fcfs_reservations():
    env = Environment()
    fabric = Fabric(env)
    nic = fabric.attach("x")
    link = fabric._attachments["x"].egress
    s1, f1 = link.reserve(1 * MiB)
    s2, f2 = link.reserve(1 * MiB)
    assert s1 == 0
    assert s2 == f1  # second message queues behind the first
    assert f2 - f1 == f1 - s1


def test_parallel_senders_share_one_ingress_link():
    """N senders to one receiver: total time ~ N * serialization."""
    env = Environment()
    fabric = Fabric(env)
    receiver = fabric.attach("rx")
    n_senders, size = 4, 4 * MiB
    finish_times = []

    def send(name):
        yield from fabric.transfer(name, "rx", size)
        finish_times.append(env.now)

    for i in range(n_senders):
        fabric.attach(f"tx{i}")
        env.process(send(f"tx{i}"))
    env.run()
    ser = fabric.model.serialization_ns(size)
    # The last transfer cannot finish before all bytes crossed rx ingress.
    assert max(finish_times) >= n_senders * ser
    assert max(finish_times) < n_senders * ser + us(10)


def test_disjoint_pairs_do_not_contend():
    env = Environment()
    fabric = Fabric(env)
    for name in ("a", "b", "c", "d"):
        fabric.attach(name)
    size = 4 * MiB
    finish = {}

    def send(src, dst):
        yield from fabric.transfer(src, dst, size)
        finish[(src, dst)] = env.now

    env.process(send("a", "b"))
    env.process(send("c", "d"))
    env.run()
    # Full parallelism: both pairs finish at the single-transfer time.
    assert finish[("a", "b")] == finish[("c", "d")]


def test_duplicate_attach_rejected():
    env = Environment()
    fabric = Fabric(env)
    fabric.attach("n")
    with pytest.raises(ValueError):
        fabric.attach("n")


def test_qp_state_machine_legal_path():
    from repro.rdma import QPState

    env = Environment()
    fabric = Fabric(env)
    nic = fabric.attach("h")
    qp = nic.create_qp(nic.create_pd(), nic.create_cq())
    assert qp.state is QPState.RESET
    qp.modify(QPState.INIT)
    qp.modify(QPState.RTR)
    qp.modify(QPState.RTS)
    qp.modify(QPState.ERR)
    qp.modify(QPState.RESET)


def test_qp_illegal_transition_rejected():
    from repro.rdma import QPState, QPStateError

    env = Environment()
    fabric = Fabric(env)
    nic = fabric.attach("h")
    qp = nic.create_qp(nic.create_pd(), nic.create_cq())
    with pytest.raises(QPStateError):
        qp.modify(QPState.RTS)  # RESET -> RTS is illegal


def test_blocking_wait_slower_than_busy_poll():
    """The hot/warm gap: blocking notification costs ~4.3 us extra."""
    env = Environment()
    fabric = Fabric(env)
    nic_a, nic_b = fabric.attach("a"), fabric.attach("b")
    times = {}
    from repro.rdma import Access, RecvWR

    setups = {}
    for tag, nic in (("a", nic_a), ("b", nic_b)):
        pd = nic.create_pd()
        mr = pd.register(nic.alloc(256), Access.rw())
        cq = nic.create_cq()
        setups[tag] = (mr, cq, nic.create_qp(pd, cq))
    QueuePair.connect_pair(setups["a"][2], setups["b"][2])
    mr_a, cq_a, qp_a = setups["a"]
    mr_b, cq_b, qp_b = setups["b"]

    def receiver(style):
        qp_b.post_recv(RecvWR(local=sge(mr_b)))
        if style == "poll":
            yield from cq_b.busy_poll()
        else:
            yield from cq_b.blocking_wait()
        times[style] = env.now

    def sender():
        qp_a.post_send(
            SendWR(
                opcode=Opcode.RDMA_WRITE_WITH_IMM,
                local=sge(mr_a, 0, 64),
                remote_addr=mr_b.addr,
                rkey=mr_b.rkey,
                imm_data=1,
                inline=True,
                signaled=False,
            )
        )
        yield env.timeout(0)

    # Two rounds with fresh processes: first polled, then blocking.
    env.process(receiver("poll"))
    env.process(sender())
    env.run()
    base = env.now

    env.process(receiver("block"))
    env.process(sender())
    env.run()
    model = fabric.model
    assert times["block"] - base - times["poll"] == model.blocking_notify_ns - model.poll_detect_ns


def test_finished_machines_are_freed_by_refcounting():
    """Finished transfers, deliveries and handshakes drop their
    bound-method self-references: none is left for the collector."""
    import gc

    from repro.rdma import Access
    from repro.rdma.cm import install_cm
    from repro.rdma.fabric import FaultModel, Transfer

    env = Environment()
    fabric = Fabric(env, faults=FaultModel(probability=0.3, seed=2, retransmit_delay_ns=us(2)))
    a, b = fabric.attach("a"), fabric.attach("b")
    for nic in (a, b):
        install_cm(nic)
    listener = b.cm.listen(7)
    mr_b = b.create_pd().register(b.alloc(4096), Access.all())
    connected = []

    def server():
        request = yield listener.get_request()
        listener.accept(request, b.create_qp(mr_b.pd, b.create_cq()))

    def client():
        for size in (64, 4096, 64):
            yield from fabric.transfer("a", "b", size)
        yield from fabric.transfer("a", "a", 64)
        pd = a.create_pd()
        mr_a = pd.register(a.alloc(4096), Access.all())
        qp = a.create_qp(pd, a.create_cq())
        yield from a.cm.connect("b", 7, qp)
        for opcode in (Opcode.RDMA_WRITE, Opcode.RDMA_READ, Opcode.RDMA_WRITE):
            qp.post_send(SendWR(opcode=opcode, local=sge(mr_a, 0, 512), remote_addr=mr_b.addr, rkey=mr_b.rkey))
        connected.append(qp)

    gc.collect()
    gc.disable()
    try:
        env.process(server())
        env.process(client())
        env.run()
        left = [obj for obj in gc.get_objects() if isinstance(obj, Transfer)]
    finally:
        gc.enable()
    assert connected and fabric.faults.faults_injected > 0
    assert left == []
