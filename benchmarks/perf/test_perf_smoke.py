"""Smoke tests for the perf harnesses: tiny shapes, run in seconds.

The full harnesses (``python -m benchmarks.perf.bench_engine`` and
``python -m benchmarks.perf.bench_endtoend``) are the reproducible
perf-regression commands; these tests only check that the quick
configurations run end-to-end and produce well-formed reports, so tier-1
stays fast.
"""

import json

import pytest

from benchmarks.perf.bench_endtoend import main as endtoend_main
from benchmarks.perf.bench_engine import main as engine_main

EXPECTED_OPS = {
    "forward",
    "train_step",
    "qkv_fused",
    "adam_flat",
    "replay_update",
    "replay_sample",
}


@pytest.mark.perf_smoke
def test_quick_bench_runs_and_writes_report(tmp_path):
    output = tmp_path / "BENCH_engine.json"
    report = engine_main(["--quick", "--output", str(output)])

    assert output.exists()
    on_disk = json.loads(output.read_text())
    assert on_disk["mode"] == "quick"
    assert set(on_disk["results"]) == EXPECTED_OPS
    results = dict(report["results"])
    assert results.pop("train_step")["ms_per_step"] > 0
    for entry in results.values():
        assert entry["before_s"] > 0
        assert entry["after_s"] > 0
        assert entry["speedup"] > 0


@pytest.mark.perf_smoke
def test_quick_bench_records_dtype_axis(tmp_path):
    output = tmp_path / "BENCH_engine.json"
    report = engine_main(["--quick", "--output", str(output)])

    per_dtype = report["dtypes"]["per_dtype"]
    assert set(per_dtype) == {"float64", "float32"}
    for entry in per_dtype.values():
        assert entry["forward_s"] > 0
        assert entry["train_step_s"] > 0
    speedup = report["dtypes"]["float32_speedup"]
    assert set(speedup) == {"forward", "train_step"}
    assert all(value > 0 for value in speedup.values())


@pytest.mark.perf_smoke
def test_quick_bench_single_dtype_axis(tmp_path):
    output = tmp_path / "BENCH_engine.json"
    report = engine_main(["--quick", "--dtype", "float32", "--output", str(output)])

    assert set(report["dtypes"]["per_dtype"]) == {"float32"}
    assert "float32_speedup" not in report["dtypes"]


@pytest.mark.perf_smoke
def test_quick_endtoend_runs_and_writes_report(tmp_path):
    output = tmp_path / "BENCH_endtoend.json"
    report = endtoend_main(["--quick", "--output", str(output)])

    assert output.exists()
    on_disk = json.loads(output.read_text())
    assert on_disk["mode"] == "quick"
    # Baselines plus the two DDQN variants, each with a positive throughput.
    assert {"random", "ddqn", "ddqn-float32"} <= set(report["policies"])
    for row in report["policies"].values():
        assert row["arrivals"] > 0
        assert row["arrivals_per_s"] > 0
    decision = report["decision_path"]
    assert decision["batch_1"]["decisions_per_s"] > 0
    assert decision["batched_speedup"] > 0
