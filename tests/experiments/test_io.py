"""Result serialization and the --json CLI flag."""

import json

import pytest

from repro.experiments.registry import run_experiment
from repro.experiments.__main__ import main as cli_main
from repro.experiments.io import save_result, to_jsonable


def test_to_jsonable_dataclass_tree():
    result = run_experiment("fig9", quick=True)
    data = to_jsonable(result)
    assert "breakdowns" in data
    assert data["breakdowns"]["bare-metal"]["spawn_workers"] > 0
    json.dumps(data)  # fully serializable


def test_to_jsonable_key_flattening():
    data = to_jsonable({("hot", "docker", 1024): {1: 2.5}})
    assert data == {"hot/docker/1024": {"1": 2.5}}


def test_to_jsonable_scalars_and_bytes():
    assert to_jsonable(b"\x01\x02") == "0102"
    assert to_jsonable((1, "a", None, True)) == [1, "a", None, True]
    assert to_jsonable({1, 2} if False else [1, 2]) == [1, 2]


def test_save_result_roundtrip(tmp_path):
    result = run_experiment("billing", quick=True)
    path = save_result(result, tmp_path / "billing.json", "billing")
    payload = json.loads(path.read_text())
    assert payload["experiment"] == "billing"
    assert payload["result"]["hot"]["cost"] > 0


def test_cli_json_flag(tmp_path, capsys):
    assert cli_main(["fig9", "--quick", "--json", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "fig9.json").read_text())
    assert payload["experiment"] == "fig9"
    assert "wrote" in capsys.readouterr().out
