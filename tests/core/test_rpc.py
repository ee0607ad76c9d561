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
    """Both rings share one block and each ring is one MR, yet every
    slot keeps the address it had as a page-aligned block of its own:
    send slot i at base + i * 64 KiB, receive slot i at
    base + (depth + i) * 64 KiB.  The receive ring's work requests are
    built once and re-posted: after more calls than the ring is deep,
    the same WR objects cover the same slots."""
    env, server, client = setup()
    rpc_listen(server, 9000, lambda message, conn: {"echo": message})
    ring_bytes = RPC_RING_DEPTH * RPC_BUFFER_BYTES
    replies = []

    def client_proc():
        conn = yield from rpc_connect(client, "server", 9000)
        posted = list(conn._recv_ring)
        for i in range(RPC_RING_DEPTH + 3):
            replies.append((yield from conn.call(i)))
        return conn, posted

    proc = env.process(client_proc())
    env.run()
    conn, posted = proc.value
    assert replies == [{"echo": i} for i in range(RPC_RING_DEPTH + 3)]
    send, recv = conn._send_mr, conn._recv_mr
    base = send.block.base
    assert recv.block is send.block and send.block.size == 2 * ring_bytes
    assert base % PAGE_SIZE == 0
    assert (send.addr, send.length) == (base, ring_bytes)
    assert (recv.addr, recv.length) == (base + ring_bytes, ring_bytes)
    # Two registrations, so two consecutive lkey/rkey pairs.
    assert (recv.lkey, recv.rkey) == (send.lkey + 2, send.rkey + 2)
    assert [wr.local.addr for wr in posted] == [
        recv.addr + i * RPC_BUFFER_BYTES for i in range(RPC_RING_DEPTH)
    ]
    assert all(wr.local.mr is recv and wr.local.nbytes == RPC_BUFFER_BYTES for wr in posted)
    # 11 messages consumed: the ring has rotated by 3 over the same WRs,
    # and the QP holds them in the order the next messages land in.
    assert conn._recv_ring == posted and conn._recv_next == 3
    assert list(conn.qp._recv_queue) == posted[3:] + posted[:3]
    # The send ring rotated by 3 too: every slot is free again, and
    # the next message takes slot 3.
    assert list(conn._free_slots) == [
        (i + 3) % RPC_RING_DEPTH * RPC_BUFFER_BYTES for i in range(RPC_RING_DEPTH)
    ]


def test_concurrent_calls_on_one_connection():
    """Two processes calling over one connection each wait and poll on
    their own: whichever poll comes first after a reply takes it (with no
    demux, the busy poller gets the reply to the other's request), and
    the other waits on.  Events and instants are those of two generator
    receives (pinned from them)."""
    env, server, client = setup()

    def handler(message, conn):
        yield env.timeout(1_000 * (3 - message))
        return {"n": message}

    rpc_listen(server, 9000, handler)
    replies = []
    box = []

    def opener():
        box.append((yield from rpc_connect(client, "server", 9000)))

    env.process(opener())
    env.run()
    conn = box[0]

    def caller(n, blocking):
        replies.append((n, (yield from conn.call(n, blocking=blocking)), env.now))

    env.process(caller(1, True))
    env.process(caller(2, False))
    env.run()
    assert replies == [(2, {"n": 1}, 463_107), (1, {"n": 2}, 472_840)]
    assert env.events_processed == 67
