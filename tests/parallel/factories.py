"""Module-level factories for the parallel-engine tests.

Workers resolve factories by import path, so these must live in an
importable module rather than inside a test function.
"""

from __future__ import annotations

import os
import time


def double(x):
    return x * 2


def combine(x, y, seed=None):
    return (x, y, seed)


def boom(x):
    raise ValueError(f"bad point {x}")


def boom_for(x, bad):
    if x == bad:
        raise ValueError(f"bad point {x}")
    return x * 10


def sleepy(seconds):
    time.sleep(seconds)
    return seconds


def worker_pid():
    return os.getpid()


def count_pooled_timeouts():
    """Run a tiny simulation that trips the perf counters."""
    from repro import perf
    from repro.sim import Environment

    env = Environment()

    def ticker():
        for _ in range(50):
            yield env.timeout(10)

    env.process(ticker())
    env.run()
    hits = getattr(env, "timeout_pool_hits", 0)
    if perf.enabled:
        perf.counters.alloc_avoided += hits
    return hits


def faulty_rtts(probability, seed, invocations=40):
    """Echo invocations over a flaky fabric; returns (rtts, faults).

    Exercises the full RNG draw order of ``Fabric.penalty_ns``
    -- the determinism surface the cache layer must not perturb.
    """
    from repro.core import Deployment
    from repro.rdma.fabric import FaultModel
    from tests.core.conftest import make_package

    faults = FaultModel(probability=probability, seed=seed)
    dep = Deployment.build(executors=1, clients=1, faults=faults)
    dep.settle()
    inv = dep.new_invoker()
    package = make_package()

    def driver():
        yield from inv.allocate(package, workers=1)
        in_buf = inv.alloc_input(64)
        out_buf = inv.alloc_output(64)
        in_buf.write(b"ok")
        rtts = []
        for _ in range(invocations):
            future = inv.submit("echo", in_buf, 2, out_buf)
            result = yield future.wait()
            rtts.append(result.rtt_ns)
        return rtts

    rtts = dep.run(driver())
    return {"rtts": rtts, "faults_injected": faults.faults_injected}
