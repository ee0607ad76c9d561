"""Lease teardown returns worker buffers; long-lived deployments stay flat."""

import gc
import os

from repro.core import Deployment
from repro.rdma.constants import Opcode, QPState
from repro.rdma.verbs import SendWR, sge
from repro.workloads.noop import noop_package

CYCLES = 20
PAYLOAD = bytes(range(256)) * 4


def _resident_bytes():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _capacity(dep):
    executors = [(e.free_cores, e.free_memory) for e in dep.executors]
    records = [(r.free_cores, r.free_memory) for m in dep.managers for r in m.executors.values()]
    return executors + records


def _live_workers(dep):
    return [w for e in dep.executors for a in e.allocations.values() for w in a.workers]


def _worker_blocks(worker):
    return (worker._input_block, worker._output_block, worker._scratch_mr.block)


def _client(dep):
    invoker = dep.new_invoker()
    in_buf = invoker.alloc_input(len(PAYLOAD))
    out_buf = invoker.alloc_output(len(PAYLOAD))
    in_buf.write(PAYLOAD)
    return invoker, in_buf, out_buf


def test_long_lived_deployment_releases_every_lease():
    dep = Deployment.build(executors=4, clients=1)
    dep.settle()
    invoker, in_buf, out_buf = _client(dep)
    package = noop_package()
    capacity = _capacity(dep)
    workers = []

    def cycle():
        yield from invoker.allocate(package, workers=2)
        workers.extend(_live_workers(dep))
        result = yield invoker.submit("echo", in_buf, len(PAYLOAD), out_buf).wait()
        yield from invoker.deallocate()
        return result

    dep.run(cycle())  # warm-up: imports, lazily built state
    gc.collect()
    before = _resident_bytes()
    for _ in range(CYCLES):
        assert dep.run(cycle()).output() == PAYLOAD
    gc.collect()
    growth = _resident_bytes() - before

    assert _capacity(dep) == capacity
    assert not _live_workers(dep)
    assert len(workers) == 2 * (CYCLES + 1)
    for worker in workers:
        for block in _worker_blocks(worker):
            assert block.data is None
            assert worker.nic.memory.block_at(block.base) is None
    # Each cycle allocates two 8 MiB buffers per worker; none may stay resident.
    assert growth < CYCLES * 1_000_000, f"resident memory grew {growth / CYCLES:.0f} B per cycle"


def test_late_write_after_teardown_completes_as_before():
    """Released buffers keep their MRs: a client write arriving after the
    lease ended is accepted (not a remote access error) and dropped."""
    dep = Deployment.build(executors=1, clients=1)
    dep.settle()
    invoker, in_buf, _ = _client(dep)
    dep.run(invoker.allocate(noop_package(), workers=1))
    (worker,) = _live_workers(dep)
    connection = invoker.connections[0]
    dep.run(invoker.deallocate())
    assert worker._input_block.data is None

    settings = connection.settings
    connection.qp.post_send(
        SendWR(
            opcode=Opcode.RDMA_WRITE_WITH_IMM,
            local=sge(in_buf.mr, 0, 64),
            remote_addr=settings["input_addr"],
            rkey=settings["input_rkey"],
            imm_data=0,
            signaled=False,
        )
    )
    dep.env.run(until=dep.env.now + 1_000_000)
    assert connection.qp.state is QPState.RTS
    assert worker.qp.state is QPState.RTS
    (wc,) = worker.recv_cq.poll(max_entries=4)
    assert wc.ok and wc.byte_len == 64
    assert worker.input_mr.read(0, 64) == bytes(64)
