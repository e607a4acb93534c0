"""The benchmark's own tests: tiny runs of every workload, and its checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.metrics import SPEC
from perfbench.run import run_workload

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
#: Checks that judge the box's speed rather than the program's outputs; a
#: loaded test machine may fail them without anything being wrong.
TIMING_CHECKS = {"client_on_schedule"}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, traced):
    report = run_workload(workload, seed=3, seconds=1.0, traced=traced, size="tiny")
    result = report.result_line()
    expected = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in expected
    }
    assert [check for check in report.checks if not check[1] and check[0] not in TIMING_CHECKS] == []
    assert result["attempted"] >= 1 and result["failed"] == 0
    rendered = report.render().splitlines()
    assert json.loads(rendered[-1]) == result
    for entry in expected:
        assert any(line.startswith(entry["name"] + " ") for line in rendered), entry["name"]


def test_skipped_train_step_fails_the_train_step_check(monkeypatch):
    from repro.core.agent import DQNAgent

    original = DQNAgent.should_train

    def should_train(agent):
        # The step the cadence dictates at the 30th stored transition never runs.
        return original(agent) and agent.diagnostics.observations != 30

    monkeypatch.setattr(DQNAgent, "should_train", should_train)
    report = run_workload("learn", seed=3, seconds=1.0, traced=False, size="tiny")
    outcome = {name: ok for name, ok, _ in report.checks}
    assert outcome["train_steps"] is False
    assert report.correct is False
    assert report.result_line()["correct"] is False


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "learn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
