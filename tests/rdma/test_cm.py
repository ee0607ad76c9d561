"""Connection manager: handshake, accept/reject, latency."""

import pytest

from repro.rdma import Access, ConnectionRefused, Fabric, Opcode, SendWR, sge
from repro.rdma.cm import install_cm
from repro.sim import Environment, ms, us


def build(env):
    fabric = Fabric(env)
    client = fabric.attach("client")
    server = fabric.attach("server")
    install_cm(client)
    install_cm(server)
    return fabric, client, server


def test_connect_accept_and_use():
    env = Environment()
    fabric, client, server = build(env)

    server_pd = server.create_pd()
    server_mr = server_pd.register(server.alloc(256), Access.rw())
    server_cq = server.create_cq()

    def server_proc():
        listener = server.cm.listen(9000)
        request = yield listener.get_request()
        assert request.private_data == {"hello": "rfaas"}
        qp = server.create_qp(server_pd, server_cq)
        listener.accept(request, qp, private_data={"addr": server_mr.addr, "rkey": server_mr.rkey})

    client_pd = client.create_pd()
    client_mr = client_pd.register(client.alloc(256), Access.rw())
    client_cq = client.create_cq()
    outcome = {}

    def client_proc():
        qp = client.create_qp(client_pd, client_cq)
        result = yield from client.cm.connect("server", 9000, qp, private_data={"hello": "rfaas"})
        outcome["settings"] = result.private_data
        outcome["connected_at"] = env.now
        # Use the connection immediately.
        client_mr.write(0, b"post-handshake")
        qp.post_send(
            SendWR(
                opcode=Opcode.RDMA_WRITE,
                local=sge(client_mr, 0, 14),
                remote_addr=result.private_data["addr"],
                rkey=result.private_data["rkey"],
            )
        )

    env.process(server_proc())
    env.process(client_proc())
    env.run()
    assert outcome["settings"]["rkey"] == server_mr.rkey
    assert server_mr.read(0, 14) == b"post-handshake"
    # Handshake costs on the order of a millisecond, not microseconds.
    assert 0 < outcome["connected_at"] < ms(5)


def test_connect_to_dead_port_refused():
    env = Environment()
    fabric, client, server = build(env)

    def client_proc():
        qp = client.create_qp(client.create_pd(), client.create_cq())
        with pytest.raises(ConnectionRefused):
            yield from client.cm.connect("server", 1234, qp)

    proc = env.process(client_proc())
    env.run()
    assert proc.ok


def test_listener_reject():
    env = Environment()
    fabric, client, server = build(env)

    def server_proc():
        listener = server.cm.listen(9000)
        request = yield listener.get_request()
        listener.reject(request, reason="no capacity")

    def client_proc():
        qp = client.create_qp(client.create_pd(), client.create_cq())
        try:
            yield from client.cm.connect("server", 9000, qp)
        except ConnectionRefused as error:
            return str(error)

    env.process(server_proc())
    proc = env.process(client_proc())
    env.run()
    assert "no capacity" in proc.value


def test_closed_listener_refuses():
    env = Environment()
    fabric, client, server = build(env)
    listener = server.cm.listen(9000)
    listener.close()

    def client_proc():
        qp = client.create_qp(client.create_pd(), client.create_cq())
        with pytest.raises(ConnectionRefused):
            yield from client.cm.connect("server", 9000, qp)

    env.process(client_proc())
    env.run()


@pytest.mark.parametrize("lag_ns", [0, us(100)], ids=["queued", "in-processing"])
def test_closing_listener_refuses_the_requests_it_holds(lag_ns):
    """A one-shot port (accept, then close) answers every other request:
    one queued when it closes, or one whose REQ is still being processed
    then.  Each such ``connect`` is refused once its REJ arrives rather
    than waiting forever; the accepted one is untouched."""
    env = Environment()
    fabric = Fabric(env)
    server = fabric.attach("server")
    install_cm(server)
    listener = server.cm.listen(9000)
    pd, cq = server.create_pd(), server.create_cq()

    def accept(request):
        listener.accept(request, server.create_qp(pd, cq))
        listener.close()

    listener.serve(accept)
    outcomes = []

    def client_proc(nic, lag):
        install_cm(nic)
        yield env.timeout(lag)
        qp = nic.create_qp(nic.create_pd(), nic.create_cq())
        try:
            yield from nic.cm.connect("server", 9000, qp)
            outcomes.append((nic.name, "connected", env.now))
        except ConnectionRefused as error:
            outcomes.append((nic.name, str(error), env.now))

    env.process(client_proc(fabric.attach("first"), 0))
    env.process(client_proc(fabric.attach("second"), lag_ns))
    env.run(until=ms(100))
    assert sorted(outcomes)[0] == ("first", "connected", 452_463)
    second = sorted(outcomes)[1:]
    assert [(name, why) for name, why, _ in second] == [
        ("second", "server:9000 rejected: listener closed")
    ]
    assert not listener.incoming.items


def test_duplicate_listen_rejected():
    env = Environment()
    fabric, client, server = build(env)
    server.cm.listen(7)
    with pytest.raises(ConnectionRefused):
        server.cm.listen(7)


def test_install_cm_idempotent():
    env = Environment()
    fabric = Fabric(env)
    nic = fabric.attach("x")
    cm1 = install_cm(nic)
    cm2 = install_cm(nic)
    assert cm1 is cm2


@pytest.mark.parametrize(
    "interrupt_us, expected",
    [
        (50, (["interrupted"], 9, 150_000)),  # during the REQ's CM processing
        (200, (["interrupted"], 12, 300_821)),  # request queued, not yet accepted
        (400, (["interrupted"], 18, 400_821)),  # accepted, REP in flight
        (470, (["interrupted"], 19, 550_821)),  # RTU in flight
        (700, (["connected"], 22, 700_000)),  # already connected
    ],
)
def test_interrupted_connect_is_cancelled_lazily(interrupt_us, expected):
    """An interrupt ends the caller's connect at its current wait: that
    wait still fires (as a no-op), the handshake goes no further, and a
    later accept completes nothing -- the events and end instant the
    generator handshake produced (pinned from it)."""
    from repro.sim import Interrupt, us

    env = Environment()
    fabric, client, server = build(env)
    listener = server.cm.listen(9000)
    outcome = []

    def server_proc():
        request = yield listener.get_request()
        yield env.timeout(us(100))
        listener.accept(request, server.create_qp(server.create_pd(), server.create_cq()))

    def client_proc():
        qp = client.create_qp(client.create_pd(), client.create_cq())
        try:
            yield from client.cm.connect("server", 9000, qp)
            outcome.append("connected")
        except Interrupt:
            outcome.append("interrupted")

    env.process(server_proc())
    proc = env.process(client_proc())

    def interrupter():
        yield env.timeout(us(interrupt_us))
        if proc.is_alive:
            proc.interrupt("stop")

    env.process(interrupter())
    env.run()
    assert (outcome, env.events_processed, env.now) == expected
