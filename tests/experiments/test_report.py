"""Markdown report generator."""

import pytest

from repro.experiments.report import generate_report, write_report


def test_report_for_selected_experiments():
    text = generate_report(["fig9", "leases"], quick=True)
    assert "# rFaaS reproduction" in text
    assert "## fig9" in text and "## leases" in text
    assert "paper: ~25 ms" in text
    assert "centralized placement slowdown" in text
    assert "```" in text  # tables included


def test_report_unknown_experiment():
    with pytest.raises(KeyError):
        generate_report(["fig99"])


def test_write_report(tmp_path):
    path = write_report(tmp_path / "r.md", experiment_ids=["billing"], quick=True)
    assert path.read_text().startswith("# rFaaS reproduction")


def test_cli_report(tmp_path, capsys):
    from repro.experiments.__main__ import main as cli_main

    out = tmp_path / "report.md"
    assert cli_main(["report", "--quick", "--out", str(out)]) == 0
    text = out.read_text()
    # Every registered experiment appears.
    from repro.experiments.registry import EXPERIMENTS

    for key in EXPERIMENTS:
        assert f"## {key}" in text
