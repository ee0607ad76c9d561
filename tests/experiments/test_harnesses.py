"""Quick-mode smoke tests for every experiment harness + the CLI."""

import gc
import weakref

import pytest

from repro.core.deployment import Deployment
from repro.experiments import fig10
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.__main__ import main as cli_main
from repro.sim.clock import KB


def test_registry_complete():
    expected = {
        "fig1",
        "fig2",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "table1",
        "billing",
        "leases",
        "softroce",
        "multitenant",
        "multitenant-rpc",
        "pipelining",
        "concurrency",
        "warmpool",
        "suite",
        "scale",
        "control",
        "coldstart",
    }
    assert set(EXPERIMENTS) == expected
    for experiment in EXPERIMENTS.values():
        assert experiment.description
        assert callable(experiment.run)


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        run_experiment("fig99")


@pytest.mark.parametrize("experiment_id", ["fig2", "fig9", "billing", "leases", "table1"])
def test_quick_mode_produces_tables(experiment_id):
    result = run_experiment(experiment_id, quick=True)
    rendered = result.table().render()
    assert rendered.count("\n") >= 3  # header + separator + rows


def test_quick_mode_overrides_merge():
    result = run_experiment("fig8", quick=True, sizes=(2, 64))
    assert result.sizes == (2, 64)


def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig8" in out and "multitenant" in out


def test_cli_runs_experiment(capsys):
    assert cli_main(["fig9", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "cold start breakdown" in out
    assert "wall]" in out


def test_cli_unknown_experiment(capsys):
    assert cli_main(["fig99"]) == 2


def test_fig8_quick_shape():
    result = run_experiment("fig8", quick=True)
    assert result.overhead_vs_rdma("hot", 2) == pytest.approx(326, abs=15)


def test_softroce_quick_shape():
    result = run_experiment("softroce", quick=True)
    assert result.slowdown(64) > 3


def test_multitenant_rpc_outcomes_populated():
    result = run_experiment("multitenant-rpc", quick=True)
    for outcome in result.outcomes.values():
        assert outcome.rtts_ns
        assert outcome.cost > 0


def test_multitenant_scale_quick_per_tenant_outcomes():
    result = run_experiment("multitenant", quick=True, partitioning="shared")
    assert result.partitioning == "shared"
    assert result.completed + result.congested == result.invocations
    assert set(result.tenants) == {"latency-critical", "bursty-service", "batch-analytics"}
    for stats in result.tenants.values():
        assert stats.dispatched == stats.succeeded + stats.missed
        assert stats.latency is not None and stats.latency.p99 >= stats.latency.p95
    rendered = result.table().render()
    assert rendered.count("\n") >= 5


def test_fig10_frees_each_deployment_before_the_next_point(monkeypatch):
    """A point's deployment sits in reference cycles (its fabric, managers
    and executors); with the automatic collector off, they must still be
    gone once the next point has run."""
    built = []

    class Recording:
        @staticmethod
        def build(*args, **kwargs):
            deployment = Deployment.build(*args, **kwargs)
            parts = [deployment, deployment.fabric, *deployment.managers, *deployment.executors]
            built.append([weakref.ref(part) for part in parts])
            return deployment

    monkeypatch.setattr(fig10, "Deployment", Recording)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        fig10.run_fig10(
            workers=(1, 2), sizes=(KB,), repetitions=1, modes=("hot",), sandboxes=("bare-metal",)
        )
        # Read before the collector is back on: its first pass would
        # free the cycles anyway.
        alive = [[ref() is not None for ref in refs] for refs in built]
    finally:
        if was_enabled:
            gc.enable()
    assert len(alive) == 2
    assert not any(alive[0])
