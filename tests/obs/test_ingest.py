"""Ingesters: artefact files land as rows, deterministically."""

import json
import math
from pathlib import Path

import pytest

from repro.obs import MetricsStore
from repro.obs.figures import FigureDocument, series_section
from repro.obs.ingest import (
    ingest_bench_report,
    ingest_figure_document,
    ingest_path,
    ingest_run_results,
    ingest_serve_events,
    load_figure_document,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_ENGINE = REPO_ROOT / "benchmarks" / "perf" / "BENCH_engine.json"


def run_document() -> dict:
    """A tiny ``repro run --output`` document, drift records included."""
    payload = {
        "policy_name": "DDQN",
        "arrivals": 40,
        "completions": 25,
        "CR": 0.625,
        "kCR": 0.7,
        "nDCG-CR": 0.8,
        "QG": 3.5,
        "kQG": 4.0,
        "nDCG-QG": 4.5,
        "monthly": {"CR": [0.5, 0.625], "QG": [2.0, 3.5]},
        "mean_update_seconds": 0.001,
        "mean_decision_seconds": 0.002,
        "mean_retrain_seconds": float("nan"),
        "drift": [
            {"arrivals": 20, "dtype": "float32", "tasks": 5, "max_abs": 1e-6, "max_rel": 2e-7},
            {"arrivals": 40, "dtype": "float32", "tasks": 4, "max_abs": 3e-6, "max_rel": 5e-7},
        ],
    }
    return {"spec": {"name": "tiny"}, "results": {"DDQN": payload}}


@pytest.fixture()
def run_path(tmp_path):
    path = tmp_path / "results.json"
    path.write_text(json.dumps(run_document()))
    return path


def test_run_results_round_trip(run_path):
    with MetricsStore() as store:
        summary = ingest_run_results(store, run_path, label="ci")
        assert summary["kind"] == "run"
        assert summary["results"] == 1

        _, rows = store.query(
            "SELECT name, label, policy, arrivals, completions, cr, ndcg_qg, "
            "mean_retrain_seconds FROM results"
        )
        assert rows == [("tiny", "DDQN", "DDQN", 40, 25, 0.625, 4.5, None)]

        _, monthly = store.query(
            "SELECT measure, month, value FROM monthly ORDER BY measure, month"
        )
        assert monthly == [("CR", 0, 0.5), ("CR", 1, 0.625), ("QG", 0, 2.0), ("QG", 1, 3.5)]

        _, drift = store.query(
            "SELECT policy, arrivals, dtype, tasks, max_abs, max_rel FROM drift ORDER BY arrivals"
        )
        assert drift == [
            ("DDQN", 20, "float32", 5, 1e-6, 2e-7),
            ("DDQN", 40, "float32", 4, 3e-6, 5e-7),
        ]


def test_ingest_is_deterministic_across_fresh_stores(run_path):
    def build() -> str:
        with MetricsStore() as store:
            ingest_run_results(store, run_path, label="ci")
            ingest_bench_report(store, BENCH_ENGINE, label="baseline")
            return store.dump()

    assert build() == build()


def test_bench_report_flattens_numeric_leaves_only():
    with MetricsStore() as store:
        summary = ingest_bench_report(store, BENCH_ENGINE, label="baseline")
        assert summary["metrics"] > 0
        _, rows = store.query("SELECT path, value FROM bench_metrics ORDER BY rowid")
        paths = [row[0] for row in rows]
        # The environment block is machine description, not a metric.
        assert not any(path.startswith("environment") for path in paths)
        assert any(path.startswith("results.") for path in paths)
        assert all(isinstance(row[1], float) for row in rows)
        _, reports = store.query("SELECT benchmark, source FROM bench_reports")
        assert reports == [("batched tensor engine", "BENCH_engine.json")]


@pytest.mark.parametrize("pad", [67108864, None])
def test_bench_report_records_its_heap_top_pad(tmp_path, pad):
    report = tmp_path / "BENCH_x.json"
    threads = {"blas_threads": 1} if pad is None else {"blas_threads": 1, "heap_top_pad": pad}
    report.write_text(
        json.dumps({"benchmark": "x", "environment": {"threads": threads}, "results": {"a": 1.0}})
    )
    with MetricsStore() as store:
        ingest_bench_report(store, report)
        _, rows = store.query("SELECT heap_top_pad FROM bench_reports")
        assert rows == [(pad,)]
        _, paths = store.query("SELECT path FROM bench_metrics")
        assert paths == [("results.a",)]


def test_serve_events_ingest_from_directory(tmp_path):
    log_dir = tmp_path / "events"
    log_dir.mkdir()
    for tenant, count in (("alpha", 3), ("beta", 2)):
        lines = [
            json.dumps(
                {
                    "tenant": tenant,
                    "seq": seq + 1,
                    "events_consumed": seq + 1,
                    "queue_depth": 0,
                    "latency_ms": 1.5,
                    "completed": seq % 2 == 0,
                    "quality_gain": 0.25,
                    "trainer": {"mode": "sync"},
                }
            )
            for seq in range(count)
        ]
        (log_dir / f"{tenant}.ndjson").write_text("\n".join(lines) + "\n")

    with MetricsStore() as store:
        summary = ingest_serve_events(store, log_dir, label="ci")
        assert summary == {
            "kind": "serve-events",
            "ingest_id": 1,
            "events": 5,
            "faults": 0,
            "files": 2,
        }
        _, rows = store.query(
            "SELECT tenant, COUNT(*), MAX(seq) FROM serve_events GROUP BY tenant ORDER BY tenant"
        )
        assert rows == [("alpha", 3, 3), ("beta", 2, 2)]
        _, trainer = store.query("SELECT DISTINCT trainer FROM serve_events")
        assert trainer == [('{"mode": "sync"}',)]


def test_figure_document_nan_round_trips_through_null(tmp_path):
    document = FigureDocument(
        figure="demo",
        sections=[
            series_section("demo", (1, 2), {"DDQN": [0.5, float("nan")]}, x_label="x")
        ],
    )
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(document.to_payload()))
    with MetricsStore() as store:
        ingest_figure_document(store, path)
        # NaN is stored as an explicit NULL, not a sqlite accident.
        _, cells = store.query("SELECT value FROM figure_cells ORDER BY col_index")
        assert cells == [(0.5,), (None,)]
        loaded = load_figure_document(store, "demo")
    values = loaded.sections[0].rows[0][1]
    assert values[0] == 0.5 and math.isnan(values[1])


def test_ingest_path_autodetects_mixed_directory(tmp_path, run_path):
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "run.json").write_text(run_path.read_text())
    (mixed / "bench.json").write_text(BENCH_ENGINE.read_text())
    document = FigureDocument(
        figure="demo", sections=[series_section(None, (1,), {"A": [1.0]}, x_label="x")]
    )
    (mixed / "figure.json").write_text(json.dumps(document.to_payload()))
    (mixed / "alpha.ndjson").write_text(
        json.dumps({"tenant": "alpha", "seq": 1}) + "\n"
    )

    with MetricsStore() as store:
        summaries = ingest_path(store, mixed)
    kinds = sorted(summary["kind"] for summary in summaries)
    assert kinds == ["bench", "figure", "run", "serve-events"]


def test_ingest_path_rejects_unrecognised_file(tmp_path):
    stray = tmp_path / "stray.json"
    stray.write_text(json.dumps({"hello": "world"}))
    with MetricsStore() as store:
        with pytest.raises(ValueError, match="not a recognised artefact"):
            ingest_path(store, stray)
