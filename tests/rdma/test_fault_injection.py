"""Fabric fault injection: retransmission tails, not corruption."""

import pytest

from repro.core import Deployment
from repro.rdma import Fabric
from repro.rdma.fabric import FaultModel
from repro.sim import Environment, us

from tests.core.conftest import make_package


def test_fault_model_validation_and_determinism():
    with pytest.raises(ValueError):
        FaultModel(probability=1.5)
    a = FaultModel(probability=0.3, seed=1)
    b = FaultModel(probability=0.3, seed=1)
    assert [a.penalty_ns() for _ in range(50)] == [b.penalty_ns() for _ in range(50)]


def test_zero_probability_is_free():
    model = FaultModel(probability=0.0)
    assert all(model.penalty_ns() == 0 for _ in range(100))
    assert model.faults_injected == 0


def test_penalties_are_multiples_of_retransmit_timeout():
    model = FaultModel(probability=0.5, retransmit_delay_ns=1000, seed=3)
    penalties = {model.penalty_ns() for _ in range(300)}
    assert penalties <= {0, 1000, 2000}
    assert 1000 in penalties
    assert model.faults_injected > 0


def test_invocations_survive_flaky_network_with_latency_tail():
    """Payloads stay intact under faults; only the tail latency grows."""
    faults = FaultModel(probability=0.08, seed=5)
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
        for _ in range(60):
            future = inv.submit("echo", in_buf, 2, out_buf)
            result = yield future.wait()
            assert result.output() == b"ok"
            rtts.append(result.rtt_ns)
        return rtts

    rtts = dep.run(driver())
    assert len(rtts) == 60
    assert min(rtts) < us(6)  # fault-free invocations unchanged
    assert max(rtts) > us(400)  # retransmission tail visible
    assert faults.faults_injected > 0


def test_seeded_penalty_sequences_differ_across_seeds():
    a = [FaultModel(probability=0.3, seed=1).penalty_ns() for _ in range(100)]
    b = [FaultModel(probability=0.3, seed=2).penalty_ns() for _ in range(100)]
    assert a != b


def test_faults_injected_counts_every_nonzero_penalty():
    model = FaultModel(probability=0.4, retransmit_delay_ns=1000, seed=11)
    penalties = [model.penalty_ns() for _ in range(500)]
    nonzero = [p for p in penalties if p]
    # One increment per faulty transfer -- a double retransmission
    # (2000 ns) still counts as a single injected fault.
    assert model.faults_injected == len(nonzero)
    assert any(p == 2000 for p in nonzero)


def test_transfer_path_draw_order_is_stable_across_runs():
    """Two identical deployments consume FaultModel draws identically."""
    from tests.parallel.factories import faulty_rtts

    first = faulty_rtts(probability=0.08, seed=5, invocations=25)
    second = faulty_rtts(probability=0.08, seed=5, invocations=25)
    assert first == second
    assert first["faults_injected"] > 0


def test_transfer_path_draw_order_unchanged_by_cache_layer(tmp_path):
    """Satellite: the cache must not perturb fabric RNG consumption.

    Key/fingerprint computation and store I/O happen in the dispatching
    process around the run; the run's own numpy draws must be
    byte-identical whether the engine is uncached, filling the cache,
    or serving from it.
    """
    from repro.cache import ResultCache
    from repro.parallel import RunSpec, run_specs

    spec = [
        RunSpec(
            "tests.parallel.factories:faulty_rtts",
            {"probability": 0.08, "seed": 5, "invocations": 25},
        )
    ]
    uncached = run_specs(spec, 1)
    cache = ResultCache(tmp_path / "cache")
    cold = run_specs(spec, 1, cache=cache)
    warm = run_specs(spec, 1, cache=cache)
    assert uncached == cold == warm


def test_unknown_host_raises_at_the_req_before_any_fault_draw():
    """A connect to an unknown host fails in the caller at the REQ,
    before the REQ's transfer draws a fault penalty."""
    from repro.rdma.cm import CM_PROCESSING_NS, install_cm

    env = Environment()
    fabric = Fabric(env, faults=FaultModel(probability=0.5, seed=4))
    nic = fabric.attach("a")
    install_cm(nic)
    outcome = []

    def client():
        qp = nic.create_qp(nic.create_pd(), nic.create_cq())
        try:
            yield from nic.cm.connect("nowhere", 1, qp)
        except KeyError:
            outcome.append(env.now)

    env.process(client())
    env.run()
    assert outcome == [CM_PROCESSING_NS]
    untouched = FaultModel(probability=0.5, seed=4)
    assert fabric.faults._rng.random() == untouched._rng.random()
