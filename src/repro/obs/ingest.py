"""Ingesters: bespoke artefact files → rows of the metrics store.

Each ingester understands one of the repository's output formats:

* ``ingest_run_results`` — the ``python -m repro run --output`` document
  (spec echo + per-policy :func:`~repro.eval.reporting.result_payload`,
  including the optional float32 drift-probe records);
* ``ingest_sweep_directory`` — a sweep directory (``sweep.json`` +
  ``cells/*.json``), one result row per (cell, policy) in expansion order;
* ``ingest_bench_report`` — a ``BENCH_*.json`` perf-harness report, every
  numeric leaf flattened to a dotted path;
* ``ingest_serve_events`` — the serving layer's NDJSON event log
  (``repro serve --event-log``): one ``serve_events`` row per served
  arrival, plus one ``faults`` row per fault / health-transition /
  supervisor record;
* ``ingest_figure_document`` — a :class:`~repro.obs.figures.FigureDocument`
  JSON written next to the benchmark suite's rendered tables.

:func:`ingest_path` auto-detects the format of a file or directory and
returns a summary of what landed.  All directory walks are sorted, and no
ingester writes anything time- or machine-dependent, so ingesting the same
inputs into a fresh store produces a byte-identical dump.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from ..eval.reporting import MEASURES
from .figures import FigureDocument, FigureSection
from .store import MetricsStore

__all__ = [
    "ingest_bench_report",
    "ingest_figure_document",
    "ingest_path",
    "ingest_run_results",
    "ingest_serve_events",
    "ingest_sweep_directory",
]

#: result_payload measure key → results-table column.
_MEASURE_COLUMNS = {
    "CR": "cr",
    "kCR": "kcr",
    "nDCG-CR": "ndcg_cr",
    "QG": "qg",
    "kQG": "kqg",
    "nDCG-QG": "ndcg_qg",
}


def _nullable(value) -> float | None:
    """sqlite stores NaN as NULL; make that explicit instead of accidental."""
    if value is None:
        return None
    value = float(value)
    return None if math.isnan(value) else value


def _insert_result(
    store: MetricsStore,
    ingest_id: int,
    name: str,
    label: str,
    payload: dict,
    cell_id: str | None = None,
    group_id: str | None = None,
    assignments: dict | None = None,
) -> int:
    cursor = store.execute(
        """
        INSERT INTO results (
            ingest_id, name, cell_id, group_id, assignments, label, policy,
            arrivals, completions, cr, kcr, ndcg_cr, qg, kqg, ndcg_qg,
            mean_update_seconds, mean_decision_seconds, mean_retrain_seconds
        ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
        """,
        (
            ingest_id,
            name,
            cell_id,
            group_id,
            json.dumps(assignments, sort_keys=True) if assignments is not None else None,
            label,
            payload.get("policy_name", label),
            payload.get("arrivals"),
            payload.get("completions"),
            *(_nullable(payload.get(measure)) for measure in MEASURES),
            payload.get("mean_update_seconds"),
            payload.get("mean_decision_seconds"),
            payload.get("mean_retrain_seconds"),
        ),
    )
    result_id = int(cursor.lastrowid)
    for measure, values in payload.get("monthly", {}).items():
        for month, value in enumerate(values):
            store.execute(
                "INSERT INTO monthly (result_id, measure, month, value) VALUES (?, ?, ?, ?)",
                (result_id, measure, month, _nullable(value)),
            )
    for record in payload.get("drift", ()):
        store.execute(
            """
            INSERT INTO drift (result_id, ingest_id, policy, arrivals, dtype,
                               tasks, max_abs, max_rel)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (
                result_id,
                ingest_id,
                payload.get("policy_name", label),
                int(record["arrivals"]),
                str(record.get("dtype", "")),
                record.get("tasks"),
                float(record["max_abs"]),
                float(record["max_rel"]),
            ),
        )
    return result_id


# --------------------------------------------------------------------- #
def ingest_run_results(store: MetricsStore, path: str | Path, label: str = "") -> dict:
    """One ``repro run --output`` document → results + monthly + drift rows."""
    path = Path(path)
    document = json.loads(path.read_text())
    name = document.get("spec", {}).get("name", path.stem)
    ingest_id = store.begin_ingest("run", path.name, label)
    count = 0
    for result_label, payload in document["results"].items():
        _insert_result(store, ingest_id, name, result_label, payload)
        count += 1
    store.commit()
    return {"kind": "run", "ingest_id": ingest_id, "results": count}


def ingest_sweep_directory(store: MetricsStore, directory: str | Path, label: str = "") -> dict:
    """A sweep directory → one results row per (cell, policy), expansion order."""
    # Imported lazily: repro.api pulls the full spec/sweep machinery, which
    # in turn imports the eval layer — a module-level import would cycle.
    from ..api.sweep import SweepSpec

    directory = Path(directory)
    spec = SweepSpec.load(directory / "sweep.json")
    ingest_id = store.begin_ingest("sweep", directory.name, label)
    cells = missing = 0
    for cell in spec.expand():
        cell_path = directory / "cells" / f"{cell.cell_id}.json"
        if not cell_path.exists():
            missing += 1
            continue
        document = json.loads(cell_path.read_text())
        for result_label, payload in document["results"].items():
            _insert_result(
                store,
                ingest_id,
                spec.name,
                result_label,
                payload,
                cell_id=document["cell_id"],
                group_id=document["group_id"],
                assignments=document.get("assignments"),
            )
        cells += 1
    store.commit()
    return {"kind": "sweep", "ingest_id": ingest_id, "cells": cells, "missing_cells": missing}


# --------------------------------------------------------------------- #
def _flatten_numeric(node, prefix: str, out: list[tuple[str, float]]) -> None:
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        value = float(node)
        if not math.isnan(value):
            out.append((prefix, value))
        return
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten_numeric(value, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(node, (list, tuple)):
        for index, value in enumerate(node):
            _flatten_numeric(value, f"{prefix}.{index}" if prefix else str(index), out)


def ingest_bench_report(store: MetricsStore, path: str | Path, label: str = "") -> dict:
    """One ``BENCH_*.json`` report → every numeric leaf as a dotted-path row.

    The scaling rows of ``bench_serving`` carry a ``label`` field (e.g.
    ``sync-x2``), so list indices stay readable through that sibling; the
    ``environment`` block is machine description, not a metric, and is
    skipped, except for the heap top pad the run was under, which lands in
    the report row's ``heap_top_pad`` column.
    """
    path = Path(path)
    report = json.loads(path.read_text())
    threads = report.get("environment", {}).get("threads", {})
    ingest_id = store.begin_ingest("bench", path.name, label)
    cursor = store.execute(
        "INSERT INTO bench_reports (ingest_id, benchmark, mode, source, heap_top_pad) "
        "VALUES (?, ?, ?, ?, ?)",
        (
            ingest_id,
            str(report.get("benchmark", path.stem)),
            report.get("mode"),
            path.name,
            threads.get("heap_top_pad"),
        ),
    )
    report_id = int(cursor.lastrowid)
    metrics: list[tuple[str, float]] = []
    for key, value in report.items():
        if key == "environment":
            continue
        _flatten_numeric(value, str(key), metrics)
    for metric_path, value in metrics:
        store.execute(
            "INSERT INTO bench_metrics (report_id, path, value) VALUES (?, ?, ?)",
            (report_id, metric_path, value),
        )
    store.commit()
    return {"kind": "bench", "ingest_id": ingest_id, "metrics": len(metrics)}


# --------------------------------------------------------------------- #
#: Record fields that land in dedicated ``faults`` columns; anything else a
#: fault/health/supervisor record carries goes into the JSON ``detail``.
_FAULT_COLUMN_FIELDS = frozenset(
    {"kind", "tenant", "site", "from_state", "to_state", "reason", "events_consumed", "shard"}
)


def _insert_fault_record(store: MetricsStore, ingest_id: int, record: dict) -> None:
    detail = {
        key: value for key, value in record.items() if key not in _FAULT_COLUMN_FIELDS
    }
    store.execute(
        """
        INSERT INTO faults (ingest_id, tenant, kind, site, from_state, to_state,
                            reason, events_consumed, shard, detail)
        VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
        """,
        (
            ingest_id,
            str(record.get("tenant", "")),
            str(record["kind"]),
            record.get("site"),
            record.get("from_state"),
            record.get("to_state"),
            record.get("reason"),
            record.get("events_consumed"),
            record.get("shard"),
            json.dumps(detail, sort_keys=True) if detail else None,
        ),
    )


def ingest_serve_events(store: MetricsStore, path: str | Path, label: str = "") -> dict:
    """A serving NDJSON event log (file or directory of ``*.ndjson``).

    Records route on their ``"kind"`` discriminator: ``"decision"`` (the
    default for logs written before fault tolerance landed) fills the
    per-arrival ``serve_events`` table; ``"fault"``, ``"health"`` and
    ``"supervisor"`` records — injected faults, health transitions, restart
    actions — fill the ``faults`` table, with fields beyond the dedicated
    columns preserved as sorted-key JSON in ``detail``.
    """
    path = Path(path)
    files = sorted(path.glob("*.ndjson")) if path.is_dir() else [path]
    ingest_id = store.begin_ingest("serve-events", path.name, label)
    events = 0
    faults = 0
    for file in files:
        with file.open(encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                kind = record.get("kind", "decision")
                if kind != "decision":
                    _insert_fault_record(store, ingest_id, record)
                    faults += 1
                    continue
                store.execute(
                    """
                    INSERT INTO serve_events (ingest_id, tenant, seq, events_consumed,
                                              queue_depth, latency_ms, completed,
                                              quality_gain, trainer, shard)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                    """,
                    (
                        ingest_id,
                        str(record["tenant"]),
                        int(record["seq"]),
                        record.get("events_consumed"),
                        record.get("queue_depth"),
                        record.get("latency_ms"),
                        int(bool(record.get("completed"))),
                        record.get("quality_gain"),
                        json.dumps(record["trainer"], sort_keys=True)
                        if record.get("trainer") is not None
                        else None,
                        record.get("shard"),
                    ),
                )
                events += 1
    store.commit()
    return {
        "kind": "serve-events",
        "ingest_id": ingest_id,
        "events": events,
        "faults": faults,
        "files": len(files),
    }


# --------------------------------------------------------------------- #
def ingest_figure_document(store: MetricsStore, path: str | Path, label: str = "") -> dict:
    """One figure-table JSON document → figures + figure_cells rows."""
    path = Path(path)
    document = FigureDocument.from_payload(json.loads(path.read_text()))
    ingest_id = store.begin_ingest("figure", path.name, label)
    cells = 0
    for section_index, section in enumerate(document.sections):
        store.execute(
            """
            INSERT INTO figures (ingest_id, figure, section_index, title,
                                 row_header, float_format)
            VALUES (?, ?, ?, ?, ?, ?)
            """,
            (
                ingest_id,
                document.figure,
                section_index,
                section.title,
                section.row_header,
                section.float_format,
            ),
        )
        for row_index, (row_label, values) in enumerate(section.rows):
            for col_index, (col_label, value) in enumerate(zip(section.columns, values)):
                store.execute(
                    """
                    INSERT INTO figure_cells (ingest_id, figure, section_index,
                                              row_index, row_label, col_index,
                                              col_label, value)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?)
                    """,
                    (
                        ingest_id,
                        document.figure,
                        section_index,
                        row_index,
                        row_label,
                        col_index,
                        col_label,
                        _nullable(value),
                    ),
                )
                cells += 1
    store.commit()
    return {
        "kind": "figure",
        "ingest_id": ingest_id,
        "figure": document.figure,
        "sections": len(document.sections),
        "cells": cells,
    }


def load_figure_document(store: MetricsStore, figure: str) -> FigureDocument:
    """Rebuild a figure document from its (latest) ingested rows."""
    _, sections = store.query(
        """
        SELECT section_index, title, row_header, float_format
        FROM figures
        WHERE figure = ? AND ingest_id = (
            SELECT MAX(ingest_id) FROM figures WHERE figure = ?
        )
        ORDER BY section_index
        """,
        (figure, figure),
    )
    if not sections:
        raise ValueError(f"store holds no figure named {figure!r}")
    document = FigureDocument(figure=figure)
    for section_index, title, row_header, float_format in sections:
        _, cells = store.query(
            """
            SELECT row_index, row_label, col_index, col_label, value
            FROM figure_cells
            WHERE figure = ? AND section_index = ? AND ingest_id = (
                SELECT MAX(ingest_id) FROM figures WHERE figure = ?
            )
            ORDER BY row_index, col_index
            """,
            (figure, section_index, figure),
        )
        columns: list[str] = []
        rows: dict[int, tuple[str, list[float]]] = {}
        for row_index, row_label, col_index, col_label, value in cells:
            if row_index == 0:
                columns.append(str(col_label))
            entry = rows.setdefault(int(row_index), (str(row_label), []))
            entry[1].append(float("nan") if value is None else float(value))
        document.sections.append(
            FigureSection(
                columns=columns,
                rows=[rows[index] for index in sorted(rows)],
                title=title,
                row_header=str(row_header),
                float_format=str(float_format),
            )
        )
    return document


def list_figures(store: MetricsStore) -> list[str]:
    _, rows = store.query("SELECT DISTINCT figure FROM figures ORDER BY figure")
    return [str(row[0]) for row in rows]


# --------------------------------------------------------------------- #
def _is_figure_payload(document) -> bool:
    return isinstance(document, dict) and "figure" in document and "sections" in document


def ingest_path(store: MetricsStore, path: str | Path, label: str = "") -> list[dict]:
    """Auto-detect and ingest a file or directory; returns per-item summaries.

    Directories: a ``sweep.json`` marks a sweep directory; otherwise every
    ``*.ndjson`` ingests as a serve event log and every recognisable
    ``*.json`` (figure document / bench report / run results) ingests by
    content.  Files dispatch on the same content checks.
    """
    path = Path(path)
    if path.is_dir():
        if (path / "sweep.json").exists():
            return [ingest_sweep_directory(store, path, label)]
        summaries: list[dict] = []
        for file in sorted(path.glob("*.ndjson")):
            summaries.append(ingest_serve_events(store, file, label))
        for file in sorted(path.glob("*.json")):
            try:
                document = json.loads(file.read_text())
            except ValueError:
                continue
            if _is_figure_payload(document):
                summaries.append(ingest_figure_document(store, file, label))
            elif isinstance(document, dict) and "benchmark" in document:
                summaries.append(ingest_bench_report(store, file, label))
            elif isinstance(document, dict) and "spec" in document and "results" in document:
                summaries.append(ingest_run_results(store, file, label))
        if not summaries:
            raise ValueError(f"{path} holds nothing ingestible (no sweep.json/json/ndjson)")
        return summaries
    if not path.exists():
        raise FileNotFoundError(f"no such file or directory: {path}")
    if path.suffix == ".ndjson":
        return [ingest_serve_events(store, path, label)]
    document = json.loads(path.read_text())
    if _is_figure_payload(document):
        return [ingest_figure_document(store, path, label)]
    if isinstance(document, dict) and "benchmark" in document:
        return [ingest_bench_report(store, path, label)]
    if isinstance(document, dict) and "spec" in document and "results" in document:
        return [ingest_run_results(store, path, label)]
    raise ValueError(
        f"{path} is not a recognised artefact (figure document, BENCH report, "
        "run results JSON, sweep directory or .ndjson event log)"
    )
