"""CLI surface: --parallel auto, retired flags and subcommands."""

import pytest

from repro.experiments.__main__ import _parallel_workers, main
from repro.parallel.pool import available_workers


def run_cli(*argv):
    return main(list(argv))


def test_parallel_accepts_auto_and_integers():
    assert _parallel_workers("auto") == 0  # 0 = one per usable CPU downstream
    assert _parallel_workers("AUTO") == 0
    assert _parallel_workers("4") == 4
    with pytest.raises(Exception):
        _parallel_workers("many")


@pytest.mark.parametrize(
    "argv",
    [
        # The timer wheel and its slot-width flag are gone.
        pytest.param(("scale", "--quick", "--granularity-bits", "16"), id="granularity-bits"),
        # So is single-scenario sharding.
        pytest.param(("scale", "--quick", "--shards", "2"), id="scale-shards"),
        pytest.param(("scale", "--quick", "--shard-split", "thin"), id="scale-shard-split"),
        pytest.param(("multitenant", "--quick", "--shards", "2"), id="multitenant-shards"),
        pytest.param(("bench", "--quick", "--shards", "2"), id="bench-shards"),
        # The guard's bounds are constants, not flags.
        pytest.param(("bench", "--quick", "--max-regression", "0.3"), id="max-regression"),
        pytest.param(("bench", "--quick", "--max-rss-growth", "0.2"), id="max-rss-growth"),
        # So is the result cache, with its flags and its subcommand.
        pytest.param(("all", "--quick", "--cache"), id="cache"),
        pytest.param(("all", "--quick", "--no-cache"), id="no-cache"),
        pytest.param(("all", "--quick", "--cache-dir", "DIR"), id="cache-dir"),
        pytest.param(("all", "--quick", "--sample", "5"), id="sample"),
        pytest.param(("cache", "stats"), id="cache-stats"),
    ],
)
def test_retired_wheel_flag_rejected_at_the_cli(argv):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv)
    assert excinfo.value.code == 2


def test_retired_cache_subcommand_is_an_unknown_experiment(capsys):
    assert run_cli("cache") == 2
    assert "unknown experiment(s): cache" in capsys.readouterr().err


def test_available_workers_prefers_process_cpu_count(monkeypatch):
    import os

    monkeypatch.setattr(os, "process_cpu_count", lambda: 7, raising=False)
    assert available_workers() == 7
    monkeypatch.setattr(os, "process_cpu_count", lambda: None, raising=False)
    assert available_workers() >= 1
