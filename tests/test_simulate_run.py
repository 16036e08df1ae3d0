"""Smoke test of scripts/simulate_run.py, which runs token-push in simulation mode."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "simulate_run.py"


def load_simulate_run():
    spec = importlib.util.spec_from_file_location("simulate_run", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_healthy_simulation_exits_zero(tmp_path, capsys):
    code = load_simulate_run().main(["--services", "2", "--nodes", "2",
                                     "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 service(s), 0 with failures" in out
    assert "exit code: 0" in out


def test_failing_node_exits_one_and_is_named(tmp_path, capsys):
    code = load_simulate_run().main(["--services", "2", "--nodes", "2",
                                     "--out", str(tmp_path),
                                     "--fail-node", "submit2.sim.example.org"])
    out = capsys.readouterr().out
    assert code == 1
    failed = out.split("failed pushes:\n", 1)[1].splitlines()
    assert [line for line in failed if "@ submit2.sim.example.org:" in line] == [
        f"  sim0{i}_production @ submit2.sim.example.org: injected fault "
        "(after 2 attempt(s))" for i in range(2)]


def test_relative_paths_are_made_absolute(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "faults.yaml").write_text("storer: {pattern: [succeed]}\n")
    code = load_simulate_run().main(["--services", "1", "--nodes", "1", "--out", "ws",
                                     "--fault-schedules", "faults.yaml"])
    out = capsys.readouterr().out
    assert code == 0
    assert f"workspace: {tmp_path / 'ws'}\n" in out
