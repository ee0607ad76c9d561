"""Event-schedule identity of the verbs data path and the invocation loops.

Each scenario below drives one branch of the queue-pair send/delivery
path, the worker loop or the client completion loop, and records

* the number of events popped,
* a SHA-256 digest of the ``(when, priority)`` pop sequence,
* a SHA-256 digest of the event ids (the scheduler's tie-breaking
  counter) in pop order, and
* the scenario's simulated outputs (latencies, statuses, counters).

All four must equal the golden record in ``event_schedule_golden.json``.
The golden file pins the schedule the generator-process implementation
produced; any rewrite of these layers must schedule exactly the same
events, at the same instants and priorities, in the same order.

Regenerate (only when a change is *meant* to alter the schedule)::

    PYTHONPATH=src python -m tests.test_event_schedule
"""

from __future__ import annotations

import hashlib
import json
import os
from array import array

import pytest

import repro.sim.core as sim_core
from repro.cluster.node import NodeSpec
from repro.core import CodePackage, Deployment, FunctionSpec, RFaaSConfig
from repro.core.errors import RFaaSError
from repro.core.functions import echo_function
from repro.rdma import Access, ConnectionRefused, Fabric, Opcode, QPState, QueuePair, RecvWR, SendWR, sge
from repro.rdma.cm import install_cm
from repro.rdma.fabric import FaultModel
from repro.sim import Environment, GiB, Interrupt, ms, us

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "event_schedule_golden.json")


# -- recording -------------------------------------------------------------------


def record(scenario) -> dict:
    """Run *scenario* with every heap pop logged; return its record."""
    pops: list = []
    real_pop = sim_core.heappop

    def logged_pop(queue):
        entry = real_pop(queue)
        pops.append(entry[:3])
        return entry

    sim_core.heappop = logged_pop
    try:
        outputs = scenario()
    finally:
        sim_core.heappop = real_pop
    schedule = array("q", [x for when, prio, _ in pops for x in (when, prio)])
    eids = array("q", [eid for _, _, eid in pops])
    return {
        "events": len(pops),
        "schedule_sha256": hashlib.sha256(schedule.tobytes()).hexdigest(),
        "eids_sha256": hashlib.sha256(eids.tobytes()).hexdigest(),
        # JSON round trip: tuples become lists, int keys strings.
        "outputs": json.loads(json.dumps(outputs)),
    }


# -- deployment scenarios ------------------------------------------------------------


def _package() -> CodePackage:
    package = CodePackage(name="schedule")
    package.add(echo_function())
    package.add(FunctionSpec(name="slow", handler=lambda d: d, cost_ns=lambda size: 10 * size + 700))
    package.add(FunctionSpec(name="long", handler=lambda d: d, cost_ns=lambda size: us(50)))

    def boom(_data):
        raise ValueError("handler failure")

    package.add(FunctionSpec(name="boom", handler=boom))
    return package


def _deployment(config=None, **kwargs) -> Deployment:
    dep = Deployment.build(executors=kwargs.pop("executors", 1), clients=1, config=config, **kwargs)
    dep.settle()
    return dep


def _outcome(future) -> list:
    """``[status or error name, rtt, output size, redirects]`` of a resolved future."""
    event = future.event
    if event.ok:
        result = event.value
        return [result.status, result.rtt_ns, result.output_size, future.redirects]
    return [type(event.value).__name__, -1, 0, future.redirects]


def _invoke_all(dep, invoker, calls, *, settle_ns=0):
    """Submit ``(fn, payload, worker)`` calls concurrently; wait for all."""
    env = dep.env
    futures = []
    outputs = []

    def driver():
        for fn, payload, worker in calls:
            in_buf = invoker.alloc_input(max(len(payload), 1))
            in_buf.write(payload)
            out_buf = invoker.alloc_output(max(len(payload), 64))
            future = invoker.submit(fn, in_buf, len(payload), out_buf, worker=worker)
            futures.append((future, out_buf, len(payload)))
        for future, out_buf, _ in futures:
            try:
                yield future.wait()
            except RFaaSError:
                pass
        for future, out_buf, size in futures:
            row = _outcome(future)
            row.append(future.event.ok and out_buf.read(size) == future.in_buf.read(size))
            outputs.append(row)

    dep.run(driver())
    if settle_ns:
        env.run(until=env.now + settle_ns)
    return outputs


def _worker_stats(dep) -> list:
    rows = []
    for executor in dep.executors:
        for allocation in executor.allocations.values():
            for worker in allocation.workers:
                s = worker.stats
                rows.append(
                    [s.invocations, s.rejections, s.busy_ns, s.hotpoll_ns, s.hot_to_warm_rollbacks, s.mode_history]
                )
    return rows


def _allocate(dep, invoker, *, workers=1, **kwargs) -> None:
    dep.run(invoker.allocate(kwargs.pop("package", None) or _package(), workers=workers, **kwargs))


def _summary(dep, outputs) -> dict:
    return {
        "calls": outputs,
        "workers": _worker_stats(dep),
        "now": dep.env.now,
        "events_processed": dep.env.events_processed,
    }


def hot_echo():
    """4 workers polling forever, 4 in flight at 64 B / 1 KiB / 64 KiB."""
    dep = _deployment()
    inv = dep.new_invoker()
    _allocate(dep, inv, workers=4, hot_timeout_ns=None)
    outputs = []
    for size in (64, 1024, 65536):
        payload = bytes(range(256)) * (size // 256) or bytes(range(size))
        outputs += _invoke_all(dep, inv, [("echo", payload, None)] * 4)
    return _summary(dep, outputs)


def hot_echo_rollback_timer():
    """The default 500 ms hot window: every wait races a rollback timer."""
    dep = _deployment()
    inv = dep.new_invoker()
    _allocate(dep, inv, workers=2)
    outputs = _invoke_all(dep, inv, [("echo", b"x" * 200, None)] * 4)
    outputs += _invoke_all(dep, inv, [("echo", b"y" * 20, 1)] * 2)
    return _summary(dep, outputs)


def blocking_completion():
    dep = _deployment()
    inv = dep.new_invoker(completion_mode="blocking")
    _allocate(dep, inv, workers=2)
    outputs = _invoke_all(dep, inv, [("echo", b"blocking", None)] * 3)
    outputs += _invoke_all(dep, inv, [("slow", b"z" * 300, 0)])
    return _summary(dep, outputs)


def warm_worker():
    dep = _deployment()
    inv = dep.new_invoker()
    _allocate(dep, inv, workers=1, hot_timeout_ns=0)
    outputs = []
    for _ in range(3):
        outputs += _invoke_all(dep, inv, [("echo", b"warm-request", None)])
    outputs += _invoke_all(dep, inv, [("slow", b"w" * 90, None)] * 2)
    return _summary(dep, outputs)


def hot_to_warm_rollback():
    """Roll back after 20 us idle, serve warm, re-enter hot mode."""
    dep = _deployment()
    inv = dep.new_invoker()
    _allocate(dep, inv, workers=1, hot_timeout_ns=us(20))
    outputs = _invoke_all(dep, inv, [("echo", b"first", None)], settle_ns=us(60))
    outputs += _invoke_all(dep, inv, [("echo", b"second-warm", None)])
    outputs += _invoke_all(dep, inv, [("echo", b"third-hot", None)], settle_ns=us(5))
    outputs += _invoke_all(dep, inv, [("slow", b"s" * 4000, None)], settle_ns=us(45))
    return _summary(dep, outputs)


def oversubscribed_reject_redirect():
    """Two 1-core executors with 2 warm workers each: a busy core
    rejects and redirects; with every core taken the chain gives up."""
    config = RFaaSConfig(allow_oversubscription=True, hot_timeout_ns=0)
    dep = _deployment(config, executors=2, node_spec=NodeSpec(cores=1, memory_bytes=8 * GiB))
    inv = dep.new_invoker()
    package = _package()
    _allocate(dep, inv, workers=2, memory_bytes=GiB, package=package)
    _allocate(dep, inv, workers=2, memory_bytes=GiB, package=package)
    env = dep.env
    outputs = []

    def driver():
        in_buf = inv.alloc_input(64)
        in_buf.write(b"ab")
        out1, out2 = inv.alloc_output(64), inv.alloc_output(64)
        first = inv.submit("long", in_buf, 2, out1, worker=0)
        yield env.timeout(us(2))
        second = inv.submit("long", in_buf, 2, out2, worker=1)
        yield second.wait()
        yield first.wait()
        outputs.extend([_outcome(first), _outcome(second)])
        claim = dep.executors[1].node.try_claim(1, 0)
        third = inv.submit("long", in_buf, 2, out1, worker=0)
        yield env.timeout(us(2))
        fourth = inv.submit("long", in_buf, 2, out2, worker=1)
        for future in (third, fourth):
            try:
                yield future.wait()
            except RFaaSError:
                pass
            outputs.append(_outcome(future))
        outputs.append(claim is not None)
        if claim is not None:
            claim.release()

    dep.run(driver())
    return _summary(dep, outputs)


def unknown_function_index():
    dep = _deployment()
    inv = dep.new_invoker()
    _allocate(dep, inv, workers=1)
    outputs = _invoke_all(dep, inv, [(7, b"nobody-home", None)])
    outputs += _invoke_all(dep, inv, [("echo", b"still-serving", None)])
    return _summary(dep, outputs)


def raising_handler():
    dep = _deployment()
    inv = dep.new_invoker()
    _allocate(dep, inv, workers=1)
    outputs = _invoke_all(dep, inv, [("boom", b"explode", None)])
    outputs += _invoke_all(dep, inv, [("echo", b"after", None)])
    return _summary(dep, outputs)


def docker_penalty():
    """SR-IOV virtual-function penalties, hot and warm."""
    dep = _deployment()
    inv = dep.new_invoker()
    _allocate(dep, inv, workers=1, sandbox="docker")
    _allocate(dep, inv, workers=1, sandbox="docker", hot_timeout_ns=0)
    outputs = _invoke_all(dep, inv, [("echo", b"vf" * 40, 0), ("echo", b"vf" * 40, 1)])
    outputs += _invoke_all(dep, inv, [("slow", b"vf", 0), ("slow", b"vf", 1)])
    return _summary(dep, outputs)


def pipelining_depth4():
    dep = _deployment(RFaaSConfig(worker_pipeline_depth=4))
    inv = dep.new_invoker()
    _allocate(dep, inv, workers=1, hot_timeout_ns=None)
    outputs = _invoke_all(dep, inv, [("slow", bytes([i]) * (100 + 50 * i), 0) for i in range(8)])
    return _summary(dep, outputs)


def lease_cycle():
    """Allocate, invoke, deallocate: RPC SEND/RECV and worker teardown."""
    dep = _deployment()
    inv = dep.new_invoker()
    _allocate(dep, inv, workers=2)
    outputs = _invoke_all(dep, inv, [("echo", b"cycle", None)] * 2)
    dep.run(inv.deallocate())
    dep.env.run(until=dep.env.now + ms(1))
    return _summary(dep, outputs)


def lease_round():
    """perfbench's ``lease_cycle`` round: four executors, six cycles of
    allocate 2 workers, one 1 KiB echo, deallocate (default hot timeout)."""
    from repro.workloads.noop import noop_package

    dep = Deployment.build(executors=4, clients=1)
    dep.settle()
    inv = dep.new_invoker()
    package = noop_package()
    payload = bytes(range(256)) * 4
    in_buf = inv.alloc_input(len(payload))
    out_buf = inv.alloc_output(len(payload))
    in_buf.write(payload)
    outputs = []

    def cycle():
        breakdown = yield from inv.allocate(package, workers=2)
        result = yield inv.submit("echo", in_buf, len(payload), out_buf).wait()
        yield from inv.deallocate()
        return breakdown, result

    for _ in range(6):
        breakdown, result = dep.run(cycle())
        outputs.append([breakdown.as_dict(), result.status, result.rtt_ns, result.output() == payload])
    return _summary(dep, outputs)


def fault_injection():
    dep = _deployment(faults=FaultModel(probability=0.2, seed=3, retransmit_delay_ns=us(7)))
    inv = dep.new_invoker()
    _allocate(dep, inv, workers=2, hot_timeout_ns=None)
    outputs = []
    for _ in range(6):
        outputs += _invoke_all(dep, inv, [("echo", b"f" * 2000, None)] * 2)
    summary = _summary(dep, outputs)
    summary["faults_injected"] = dep.fabric.faults.faults_injected
    return summary


def worker_killed_while_waiting():
    """Kill hot (no timer), hot (rollback timer), warm and busy workers.

    Late requests still land after the kill: the dead workers' stale
    waits fire as no-ops and nothing answers.
    """
    dep = _deployment()
    inv = dep.new_invoker()
    _allocate(dep, inv, workers=1, hot_timeout_ns=None)
    _allocate(dep, inv, workers=1)
    _allocate(dep, inv, workers=1, hot_timeout_ns=0)
    _allocate(dep, inv, workers=1, hot_timeout_ns=0)
    outputs = _invoke_all(dep, inv, [("echo", b"alive", w) for w in range(4)])
    env = dep.env
    workers = [w for allocation in dep.executors[0].allocations.values() for w in allocation.workers]
    busy = []

    def driver():
        in_buf = inv.alloc_input(64)
        in_buf.write(b"late")
        out_buf = inv.alloc_output(64)
        busy.append(inv.submit("long", in_buf, 4, out_buf, worker=3))
        yield env.timeout(us(8))
        for worker in workers:
            worker.kill()
        workers[0].kill()
        yield env.timeout(us(1))
        for index in range(3):
            inv.submit("echo", in_buf, 4, out_buf, worker=index)
        yield env.timeout(us(30))

    dep.run(driver())
    summary = _summary(dep, outputs)
    summary["late_done"] = busy[0].done
    summary["alive"] = [w.alive for w in workers]
    return summary


# -- raw verbs scenarios ------------------------------------------------------------


class _Pair:
    """Hosts a and b with 64 KiB MRs and one connected QP each."""

    def __init__(self, faults=None, loopback=False):
        self.env = Environment()
        self.fabric = Fabric(self.env, faults=faults)
        nic_a = self.fabric.attach("a")
        nic_b = nic_a if loopback else self.fabric.attach("b")
        self.ends = []
        for nic in (nic_a, nic_b):
            pd = nic.create_pd()
            mr = pd.register(nic.alloc(65536), Access.all())
            send_cq = nic.create_cq()
            recv_cq = nic.create_cq()
            self.ends.append((mr, send_cq, recv_cq, nic.create_qp(pd, send_cq, recv_cq)))
        (self.mr_a, self.scq_a, self.rcq_a, self.qp_a) = self.ends[0]
        (self.mr_b, self.scq_b, self.rcq_b, self.qp_b) = self.ends[1]
        QueuePair.connect_pair(self.qp_a, self.qp_b)

    def write(self, nbytes, **kwargs):
        opcode = kwargs.pop("opcode", Opcode.RDMA_WRITE)
        return SendWR(
            opcode=opcode,
            local=sge(self.mr_a, 0, nbytes),
            remote_addr=self.mr_b.addr + kwargs.pop("offset", 0),
            rkey=self.mr_b.rkey,
            **kwargs,
        )

    def completions(self) -> dict:
        def rows(cq):
            return [[wc.opcode.value, wc.status.value, wc.byte_len, wc.imm_data, wc.timestamp] for wc in cq.poll(64)]

        return {
            "send_a": rows(self.scq_a),
            "recv_b": rows(self.rcq_b),
            "send_b": rows(self.scq_b),
            "recv_a": rows(self.rcq_a),
            "state_a": self.qp_a.state.value,
            "state_b": self.qp_b.state.value,
            "now": self.env.now,
            "events_processed": self.env.events_processed,
            "bytes_sent": self.qp_a.bytes_sent,
        }


def _fill(mr, nbytes, seed):
    mr.write(0, bytes((seed + i) % 251 for i in range(nbytes)))


def rpc_send_recv():
    pair = _Pair()
    _fill(pair.mr_a, 4096, 1)
    for offset in (0, 2048):
        pair.qp_b.post_recv(RecvWR(local=sge(pair.mr_b, offset, 2048)))
    pair.qp_a.post_send(SendWR(opcode=Opcode.SEND, local=sge(pair.mr_a, 0, 100)))
    pair.qp_a.post_send(SendWR(opcode=Opcode.SEND_WITH_IMM, local=sge(pair.mr_a, 100, 1500), imm_data=9))
    pair.qp_b.post_recv(RecvWR(local=sge(pair.mr_b, 0, 16)))
    pair.env.run()
    # A send too large for the posted receive: both sides error.
    pair.qp_a.post_send(SendWR(opcode=Opcode.SEND, local=sge(pair.mr_a, 0, 64)))
    pair.env.run()
    out = pair.completions()
    out["landed"] = hashlib.sha256(pair.mr_b.read(0, 4096)).hexdigest()
    return out


def rdma_read():
    pair = _Pair()
    _fill(pair.mr_b, 8192, 7)
    for nbytes in (8, 3000, 8192):
        pair.qp_a.post_send(
            SendWR(opcode=Opcode.RDMA_READ, local=sge(pair.mr_a, 0, nbytes), remote_addr=pair.mr_b.addr, rkey=pair.mr_b.rkey)
        )
    # A read past the remote MR: remote access error.
    pair.qp_a.post_send(
        SendWR(opcode=Opcode.RDMA_READ, local=sge(pair.mr_a, 0, 64), remote_addr=pair.mr_b.addr + 65530, rkey=pair.mr_b.rkey)
    )
    pair.env.run()
    out = pair.completions()
    out["landed"] = hashlib.sha256(pair.mr_a.read(0, 8192)).hexdigest()
    return out


def atomics():
    pair = _Pair()
    pair.mr_b.block.write_u64(pair.mr_b.addr, 40)
    for compare_add in (2, 5):
        pair.qp_a.post_send(
            SendWR(opcode=Opcode.ATOMIC_FETCH_ADD, local=sge(pair.mr_a, 0, 8), remote_addr=pair.mr_b.addr, rkey=pair.mr_b.rkey, compare_add=compare_add)
        )
    for compare_add, swap in ((99, 1), (47, 123)):
        pair.qp_a.post_send(
            SendWR(opcode=Opcode.ATOMIC_CMP_SWP, local=sge(pair.mr_a, 8, 8), remote_addr=pair.mr_b.addr, rkey=pair.mr_b.rkey, compare_add=compare_add, swap=swap)
        )
    pair.env.run()
    out = pair.completions()
    out["value"] = pair.mr_b.block.read_u64(pair.mr_b.addr)
    out["old"] = [int.from_bytes(pair.mr_a.read(0, 8), "little"), int.from_bytes(pair.mr_a.read(8, 8), "little")]
    return out


def rnr_retry_succeeds():
    pair = _Pair()
    env = pair.env
    pair.qp_a.post_send(pair.write(64, opcode=Opcode.RDMA_WRITE_WITH_IMM, imm_data=3))
    pair.qp_a.post_send(SendWR(opcode=Opcode.SEND, local=sge(pair.mr_a, 0, 32)))

    def late_recv():
        yield env.timeout(25_000)
        pair.qp_b.post_recv(RecvWR(local=sge(pair.mr_b, 0, 64)))
        yield env.timeout(1_000)
        pair.qp_b.post_recv(RecvWR(local=sge(pair.mr_b, 64, 64)))

    env.process(late_recv())
    env.run()
    return pair.completions()


def rnr_retry_exhausted():
    pair = _Pair()
    pair.qp_a.rnr_retry = 3
    pair.qp_a.post_send(SendWR(opcode=Opcode.SEND, local=sge(pair.mr_a, 0, 4)))
    pair.qp_a.post_send(pair.write(16))
    pair.env.run()
    return pair.completions()


def loopback():
    pair = _Pair(loopback=True)
    _fill(pair.mr_a, 1024, 3)
    pair.qp_b.post_recv(RecvWR(local=sge(pair.mr_b, 4096, 512)))
    pair.qp_a.post_send(pair.write(1024))
    pair.qp_a.post_send(SendWR(opcode=Opcode.SEND, local=sge(pair.mr_a, 0, 300)))
    pair.qp_a.post_send(
        SendWR(opcode=Opcode.RDMA_READ, local=sge(pair.mr_a, 2048, 512), remote_addr=pair.mr_b.addr, rkey=pair.mr_b.rkey)
    )
    pair.env.run()
    out = pair.completions()
    out["landed"] = hashlib.sha256(pair.mr_b.read(0, 8192)).hexdigest()
    return out


def fault_injection_verbs():
    pair = _Pair(faults=FaultModel(probability=0.3, seed=11, retransmit_delay_ns=5_000))
    _fill(pair.mr_b, 4096, 5)
    for i in range(6):
        pair.qp_a.post_send(pair.write(512 * (i + 1), offset=8192))
        pair.qp_a.post_send(
            SendWR(opcode=Opcode.RDMA_READ, local=sge(pair.mr_a, 0, 256), remote_addr=pair.mr_b.addr, rkey=pair.mr_b.rkey)
        )
    pair.env.run()
    out = pair.completions()
    out["faults"] = pair.fabric.faults.faults_injected
    return out


def qp_err_mid_flight():
    """The requester QP errors with one WR on the wire and two queued."""
    pair = _Pair()
    env = pair.env
    for _ in range(3):
        pair.qp_a.post_send(pair.write(4096))
    pair.qp_b.post_recv(RecvWR(local=sge(pair.mr_b, 0, 64)))

    def fault():
        yield env.timeout(300)
        pair.qp_a.modify(QPState.ERR)

    env.process(fault())
    env.run()
    return pair.completions()


def peer_torn_down_mid_flight():
    """The responder errors under a WR on the wire; a reset requester
    finds no peer when its next WR starts delivery."""
    pair = _Pair()
    env = pair.env
    pair.qp_a.post_send(pair.write(2048))

    def teardown():
        yield env.timeout(1_000)
        pair.qp_b.modify(QPState.ERR)

    env.process(teardown())
    env.run()
    first = pair.completions()

    pair = _Pair()
    env = pair.env
    pair.qp_a.post_send(pair.write(2048))

    def reset():
        yield env.timeout(100)
        pair.qp_a.modify(QPState.RESET)

    env.process(reset())
    env.run()
    return {"responder_err": first, "requester_reset": pair.completions()}


# -- generator transfers and CM handshakes ------------------------------------------


def _links(fabric) -> dict:
    return {
        name: [a.egress.busy_until, a.egress.bytes_carried, a.ingress.busy_until, a.ingress.bytes_carried]
        for name, a in sorted(fabric._attachments.items())
    }


def fabric_transfers():
    """Generator ``Fabric.transfer`` traffic, the path TCP and MPI use:
    concurrent transfers under seeded faults, a loopback transfer, and
    transfers interrupted during a fault penalty, the head wait and the
    tail wait."""
    env = Environment()
    fabric = Fabric(env, faults=FaultModel(probability=0.3, seed=7, retransmit_delay_ns=us(3)))
    for name in ("a", "b", "c"):
        fabric.attach(name)
    finished = []

    def send(tag, src, dst, size, delay=0):
        if delay:
            yield env.timeout(delay)
        try:
            yield from fabric.transfer(src, dst, size)
            finished.append([tag, "done", env.now])
        except Interrupt as interrupt:
            finished.append([tag, interrupt.cause, env.now])

    for i in range(10):
        env.process(send(i, "ac"[i % 2], "b", 700 * (i + 1), delay=150 * (i % 3)))
    env.process(send("loop", "c", "c", 5000))

    def interrupter(victim, at, cause):
        yield env.timeout(at)
        if victim.is_alive:
            victim.interrupt(cause)

    for i, offset in enumerate((60, 2_500, 60, 2_500, 60, 2_500)):
        start = 9_000 * i
        victim = env.process(send(f"cut{i}", "b", "a", 1 << 16, delay=start))
        env.process(interrupter(victim, start + offset, f"stop{i}"))
    env.run()
    return {
        "finished": finished,
        "links": _links(fabric),
        "faults": fabric.faults.faults_injected,
        "now": env.now,
        "events_processed": env.events_processed,
    }


def cm_handshakes():
    """CM handshakes over loopback, accepted and rejected by a listener,
    refused (nobody listening) and to an unknown host (``KeyError``)."""
    env = Environment()
    fabric = Fabric(env)
    a, b = fabric.attach("a"), fabric.attach("b")
    for nic in (a, b):
        install_cm(nic)
    outcomes = []

    def serve(nic, port, accept):
        listener = nic.cm.listen(port)
        request = yield listener.get_request()
        yield env.timeout(us(20))
        if accept:
            qp = nic.create_qp(nic.create_pd(), nic.create_cq())
            listener.accept(request, qp, private_data={"port": port})
        else:
            listener.reject(request, reason="full")

    def connect(tag, host, port, delay=0):
        yield env.timeout(delay)
        qp = a.create_qp(a.create_pd(), a.create_cq())
        try:
            result = yield from a.cm.connect(host, port, qp, private_data=tag)
            outcomes.append([tag, "connected", result.private_data, qp.state.value, env.now])
        except (ConnectionRefused, KeyError) as error:
            outcomes.append([tag, type(error).__name__, str(error), qp.state.value, env.now])

    env.process(serve(a, 1, True))
    env.process(serve(b, 2, True))
    env.process(serve(b, 3, False))
    env.process(connect("loopback", "a", 1))
    env.process(connect("remote", "b", 2, delay=us(5)))
    env.process(connect("rejected", "b", 3, delay=us(5)))
    env.process(connect("refused", "b", 4))
    env.process(connect("unknown", "nowhere", 1, delay=us(1)))
    env.run()
    return {
        "outcomes": outcomes,
        "links": _links(fabric),
        "now": env.now,
        "events_processed": env.events_processed,
    }


SCENARIOS = {
    fn.__name__: fn
    for fn in (
        hot_echo,
        hot_echo_rollback_timer,
        blocking_completion,
        warm_worker,
        hot_to_warm_rollback,
        oversubscribed_reject_redirect,
        unknown_function_index,
        raising_handler,
        docker_penalty,
        pipelining_depth4,
        lease_cycle,
        lease_round,
        fault_injection,
        worker_killed_while_waiting,
        rpc_send_recv,
        rdma_read,
        atomics,
        rnr_retry_succeeds,
        rnr_retry_exhausted,
        loopback,
        fault_injection_verbs,
        qp_err_mid_flight,
        peer_torn_down_mid_flight,
        fabric_transfers,
        cm_handshakes,
    )
}


def _golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_schedule_matches_golden(name):
    expected = _golden()[name]
    actual = record(SCENARIOS[name])
    assert actual["outputs"] == expected["outputs"]
    assert actual["events"] == expected["events"]
    assert actual["schedule_sha256"] == expected["schedule_sha256"]
    assert actual["eids_sha256"] == expected["eids_sha256"]


def test_recorder_sees_every_pop():
    """The digest covers the whole run: pops == events processed."""
    env_box = []

    def scenario():
        pair = _Pair()
        env_box.append(pair.env)
        pair.qp_a.post_send(pair.write(128))
        pair.env.run()
        return {}

    rec = record(scenario)
    assert rec["events"] == env_box[0].events_processed > 0


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    golden = {name: record(fn) for name, fn in sorted(SCENARIOS.items())}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} scenarios to {GOLDEN_PATH}")
