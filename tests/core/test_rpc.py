"""RPC layer: calls, generator handlers, one-way notifies, id echo."""

import pytest

from repro.core.rpc import RPC_BUFFER_BYTES, RPC_RING_DEPTH, rpc_connect, rpc_listen
from repro.rdma import Fabric
from repro.rdma.errors import RdmaError
from repro.rdma.memory import PAGE_SIZE
from repro.sim import Environment


def setup():
    env = Environment()
    fabric = Fabric(env)
    server = fabric.attach("server")
    client = fabric.attach("client")
    return env, server, client


def test_request_response():
    env, server, client = setup()

    def handler(message, conn):
        return {"echo": message["value"] * 2}

    rpc_listen(server, 9000, handler)

    def client_proc():
        conn = yield from rpc_connect(client, "server", 9000)
        response = yield from conn.call({"value": 21})
        return response

    proc = env.process(client_proc())
    env.run()
    assert proc.value == {"echo": 42}


def test_generator_handler_with_simulated_work():
    env, server, client = setup()

    def handler(message, conn):
        def work():
            yield conn.env.timeout(5_000)
            return {"done_at": conn.env.now}

        return work()

    rpc_listen(server, 9000, handler)

    def client_proc():
        conn = yield from rpc_connect(client, "server", 9000)
        return (yield from conn.call({}))

    proc = env.process(client_proc())
    env.run()
    assert proc.value["done_at"] >= 5_000


def test_sequential_calls_on_one_connection():
    env, server, client = setup()
    seen = []

    def handler(message, conn):
        seen.append(message["n"])
        return {"n": message["n"]}

    rpc_listen(server, 9000, handler)

    def client_proc():
        conn = yield from rpc_connect(client, "server", 9000)
        results = []
        for n in range(5):
            response = yield from conn.call({"n": n})
            results.append(response["n"])
        return results

    proc = env.process(client_proc())
    env.run()
    assert proc.value == [0, 1, 2, 3, 4]
    assert seen == [0, 1, 2, 3, 4]


def test_one_way_notify_gets_no_response():
    env, server, client = setup()
    received = []

    def handler(message, conn):
        received.append(message)
        return None  # one-way

    rpc_listen(server, 9000, handler)

    def client_proc():
        conn = yield from rpc_connect(client, "server", 9000)
        conn.notify({"event": "x"})
        yield env.timeout(5_000_000)
        assert len(conn.qp.recv_cq) == 0

    env.process(client_proc())
    env.run()
    assert received == [{"event": "x"}]


def test_rpc_id_echoed_in_response():
    env, server, client = setup()

    def handler(message, conn):
        return {"pong": True}

    rpc_listen(server, 9000, handler)

    def client_proc():
        conn = yield from rpc_connect(client, "server", 9000)
        return (yield from conn.call({"type": "ping", "_rpc_id": 77}))

    proc = env.process(client_proc())
    env.run()
    assert proc.value == {"pong": True, "_rpc_id": 77}


def test_oversized_message_rejected():
    env, server, client = setup()
    rpc_listen(server, 9000, lambda m, c: m)

    def client_proc():
        conn = yield from rpc_connect(client, "server", 9000)
        with pytest.raises(RdmaError):
            conn.notify({"blob": bytes(200_000)})
        yield env.timeout(1)

    env.process(client_proc())
    env.run()


def test_two_clients_independent_connections():
    env, server, client = setup()
    fabric = server.fabric
    client2 = fabric.attach("client2")

    def handler(message, conn):
        return {"from": message["who"]}

    rpc_listen(server, 9000, handler)
    results = {}

    def client_proc(nic, who):
        conn = yield from rpc_connect(nic, "server", 9000)
        response = yield from conn.call({"who": who})
        results[who] = response

    env.process(client_proc(client, "a"))
    env.process(client_proc(client2, "b"))
    env.run()
    assert results == {"a": {"from": "a"}, "b": {"from": "b"}}


def test_rings_keep_the_per_slot_block_layout():
    """Each ring is one block, but its slot MRs keep the addresses
    (base + i * 64 KiB) and the consecutive lkey/rkey pairs they had when
    every slot was a page-aligned block of its own."""
    env, server, client = setup()
    rpc_listen(server, 9000, lambda message, conn: None)

    def client_proc():
        return (yield from rpc_connect(client, "server", 9000))

    proc = env.process(client_proc())
    env.run()
    conn = proc.value
    send, recv = conn._send_mrs, conn._recv_mrs
    assert len(send) == len(recv) == RPC_RING_DEPTH
    assert len({id(mr.block) for mr in send}) == len({id(mr.block) for mr in recv}) == 1
    slots = send + recv
    first = slots[0]
    assert first.addr % PAGE_SIZE == 0
    assert [mr.addr for mr in slots] == [
        first.addr + i * RPC_BUFFER_BYTES for i in range(2 * RPC_RING_DEPTH)
    ]
    assert all(mr.length == RPC_BUFFER_BYTES for mr in slots)
    keys = [key for mr in slots for key in (mr.lkey, mr.rkey)]
    assert keys == list(range(first.lkey, first.lkey + 4 * RPC_RING_DEPTH))
