"""CLI surface: --cache round trips, cache subcommand, --parallel auto."""

import json
import pickle

import pytest

from repro.cache import STORE_SCHEMA, ResultCache
from repro.experiments.__main__ import _parallel_workers, main
from repro.parallel.pool import available_workers


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def test_cached_experiment_hits_on_rerun(cache_dir, capsys):
    assert run_cli("table1", "--quick", "--cache", "--cache-dir", cache_dir) == 0
    first = capsys.readouterr().out
    assert "1 miss(es)" in first
    assert run_cli("table1", "--quick", "--cache", "--cache-dir", cache_dir) == 0
    second = capsys.readouterr().out
    assert "1 hit(s), 0 miss(es)" in second


def test_no_cache_is_the_default(cache_dir, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("table1", "--quick") == 0
    assert "[cache" not in capsys.readouterr().out
    assert not (tmp_path / ".repro-cache").exists()


def test_cache_stats_and_clear(cache_dir, capsys):
    run_cli("table1", "--quick", "--cache", "--cache-dir", cache_dir)
    capsys.readouterr()

    assert run_cli("cache", "stats", "--cache-dir", cache_dir) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 1
    assert stats["lifetime"]["misses"] == 1

    assert run_cli("cache", "clear", "--cache-dir", cache_dir) == 0
    assert "cleared 1" in capsys.readouterr().out
    assert run_cli("cache", "stats", "--cache-dir", cache_dir) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 0


def test_cache_verify_detects_tampered_result(cache_dir, capsys):
    run_cli("table1", "--quick", "--cache", "--cache-dir", cache_dir)
    capsys.readouterr()
    assert run_cli("cache", "verify", "--cache-dir", cache_dir) == 0
    assert "verify OK" in capsys.readouterr().out

    # Rewrite the stored artifact with a forged (valid, wrong) result.
    cache = ResultCache(cache_dir)
    (key,) = cache.entries()
    artifact = cache.root / "objects" / key[:2] / f"{key}.pkl"
    envelope = pickle.loads(artifact.read_bytes())
    envelope["result"] = {"forged": True}
    artifact.write_bytes(pickle.dumps(envelope))

    assert run_cli("cache", "verify", "--cache-dir", cache_dir) == 1
    captured = capsys.readouterr()
    assert "verify FAILED" in captured.out
    assert "MISMATCH" in captured.err


def test_cache_unknown_action_errors(cache_dir, capsys):
    assert run_cli("cache", "defrag", "--cache-dir", cache_dir) == 2
    assert "unknown cache action" in capsys.readouterr().err


def test_schema_constant_matches_artifacts(cache_dir):
    run_cli("table1", "--quick", "--cache", "--cache-dir", cache_dir)
    index = json.loads((ResultCache(cache_dir).root / "index.json").read_text())
    assert index["schema"] == STORE_SCHEMA


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
    ],
)
def test_retired_wheel_flag_rejected_at_the_cli(argv):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv)
    assert excinfo.value.code == 2


def test_available_workers_prefers_process_cpu_count(monkeypatch):
    import os

    monkeypatch.setattr(os, "process_cpu_count", lambda: 7, raising=False)
    assert available_workers() == 7
    monkeypatch.setattr(os, "process_cpu_count", lambda: None, raising=False)
    assert available_workers() >= 1
