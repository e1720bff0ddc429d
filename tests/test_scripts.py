"""Smoke tests for the experiment scripts under ``scripts/``."""

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exit_info.value.code


def test_run_conjectures(monkeypatch, capsys):
    code = run_script(monkeypatch, "run_conjectures.py", "--n", "4")
    verdicts = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    assert [v["name"] for v in verdicts] == [
        "fine-transform", "2n-4", "general-periodic", "fertility-spectrum", "vn-limit",
    ]
    for v in verdicts:
        assert v["holds"] is True
        assert v["manifest"]["parameters"] == {"name": v["name"], "n": 4, "sigma": ""}


def test_reproduce_tables(monkeypatch, capsys):
    code = run_script(monkeypatch, "reproduce_tables.py", "--n-max", "5")
    assert code == 0 and capsys.readouterr().out.count("all rows match") == 2


def test_probe_bounds_match_the_benchmark():
    # the benchmark's probes workload times each conjecture at its default bound
    bounds = runpy.run_path(str(SCRIPTS / "run_conjectures.py"))["DEFAULT_BOUNDS"]
    sizes = runpy.run_path(str(SCRIPTS.parent / "perfbench" / "run.py"))["SIZES"]
    assert sizes["full"]["probes"] == bounds
