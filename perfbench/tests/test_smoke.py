"""Smoke tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from managed_tokens import statestore
from perfbench import doubles
from perfbench.bench import measure
from perfbench.gate import GateFailure
from perfbench.workloads import WORKLOADS, Workload, WorkloadTooLarge, make_plan

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> Workload:
    w = WORKLOADS[name]
    return dataclasses.replace(
        w, services=2, nodes=4, t_storer=0.001, t_xfer=0.0005,
        t_registry=min(w.t_registry, 0.002), base_backoff=min(w.base_backoff, 0.002))


def run_tiny(name: str, tmp_path: Path, trace: bool = False, lines=None) -> dict:
    emit = lines.append if lines is not None else (lambda line: None)
    return measure(tiny(name), seed=3, seconds=0.0, trace=trace,
                   work_dir=tmp_path / "work", trace_path=tmp_path / "spans.jsonl",
                   emit=emit)


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for spec in SPEC["workloads"]:
        assert spec["why"] == WORKLOADS[spec["name"]].why


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_printed_with_its_unit(name, trace, tmp_path):
    lines: list[str] = []
    result = run_tiny(name, tmp_path, trace, lines)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for metric, unit in wanted.items():
        assert any(line.startswith(f"metric {metric} ") and line.endswith(f" {unit}")
                   for line in lines), metric
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("env fs_type=") for line in lines)
    assert not (tmp_path / "work" / "site1").exists()


def test_layer_counts_follow_the_shape(tmp_path):
    result = run_tiny("storer_serial", tmp_path, trace=True)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["credentials.storer_calls"] == 2 * 2  # S * C
    assert values["statestore.record_push_outcome_calls"] == 2 * 4  # S * N
    assert values["distribution.put_calls"] == 2 * 2 * 4  # two copies per node
    assert values["registry.fetch_uid_calls"] == 0


def test_cold_sequence_fetches_and_notifies(tmp_path):
    result = run_tiny("flaky_cold", tmp_path, trace=True)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["registry.fetch_uid_calls"] == 2
    # Threshold 3 is crossed on run 3 for 2 services x 2 down nodes; every
    # run also sends one admin summary.
    assert values["statestore.mark_notified_calls"] == 4
    assert values["notifications.sent"] == 2 + 5


def test_gate_catches_a_lost_copy(tmp_path, monkeypatch):
    put = doubles.TransferDouble.put

    def lossy(self, local_path, node, remote_path, timeout=None):
        put(self, local_path, node, remote_path, timeout)
        self.files.pop((node, remote_path))

    monkeypatch.setattr(doubles.TransferDouble, "put", lossy)
    with pytest.raises(GateFailure, match="does not hold this run's token"):
        run_tiny("wide_fanout", tmp_path)


def test_gate_catches_unpersisted_counters(tmp_path, monkeypatch):
    monkeypatch.setattr(statestore.Store, "record_push_outcome",
                        lambda self, service, node, success, now: None)
    with pytest.raises(GateFailure, match="failure counters"):
        run_tiny("flaky_cold", tmp_path)


def test_thread_cap_refuses_before_starting_anything(tmp_path):
    too_wide = dataclasses.replace(WORKLOADS["wide_fanout"], services=40)
    with pytest.raises(WorkloadTooLarge):
        measure(too_wide, seed=1, seconds=0.0, trace=False, work_dir=tmp_path / "work")
    assert not (tmp_path / "work").exists()


def test_bound_matches_the_shape():
    assert WORKLOADS["wide_fanout"].bound_s() == pytest.approx(0.001 + 96 * 0.004)
    assert WORKLOADS["storer_serial"].bound_s() == pytest.approx(48 * 0.010 + 0.004)
    assert WORKLOADS["flaky_cold"].bound_s(0.020) == pytest.approx(8 * 0.010 + 0.008 + 0.020)


def test_plan_is_a_function_of_the_seed():
    w = WORKLOADS["flaky_cold"]
    assert make_plan(w, random.Random(9)) == make_plan(w, random.Random(9))
    plan = make_plan(w, random.Random(9))
    assert len(plan.down) == 2 and len(plan.flaky) == 2 and not plan.down & plan.flaky


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "storer_serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
