"""Declarative experiment sweeps: grids over specs, run in parallel, resumable.

The paper's sensitivity and scalability figures (Fig. 9's aggregation-weight
sweep, Fig. 10's volume sweeps) are grids over policy hyperparameters,
dataset seeds and runner settings.  A :class:`SweepSpec` captures such a grid
as plain data: a base :class:`repro.api.ExperimentSpec` plus a list of
:class:`SweepAxis` entries, each varying one knob over a list of values.  The
cartesian product of the axes expands into concrete per-cell specs
(:meth:`SweepSpec.expand`), and a :class:`SweepRunner` executes the cells —
serially or across a ``multiprocessing`` worker pool (every cell builds its
own dataset and policies, so cells are embarrassingly parallel and the two
execution modes produce identical results).

Results are stored cell-by-cell as JSON files inside the sweep directory, so
an interrupted sweep is resumed by simply running it again: finished cells
are detected on disk and skipped.  When all cells are present they are
aggregated into one document with mean ± std across the seed-replicate axis
(:func:`aggregate_cells`), which is what ``python -m repro sweep run``
prints and writes.

Layout of a sweep directory::

    <dir>/sweep.json            the SweepSpec (written on first run)
    <dir>/cells/<cell_id>.json  one result document per finished cell
    <dir>/checkpoints/<cell_id>/<label>.npz   periodic auto-checkpoints
    <dir>/results.json          the aggregated document (written when complete)
"""

from __future__ import annotations

import itertools
import json
import math
import multiprocessing
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

from ..eval.reporting import MEASURES, format_table, result_payload
from ..eval.runner import RunnerConfig, VectorizedRunner
from ..nn.threads import blas_share, set_num_threads
from .spec import (
    DatasetSpec,
    ExperimentSpec,
    JsonSpec,
    _policy_jobs,
    _UNSAFE_COMPONENT,
    run_spec,
)

__all__ = [
    "SweepAxis",
    "SweepCell",
    "SweepSpec",
    "SweepStatus",
    "SweepRunner",
    "aggregate_cells",
    "format_sweep_table",
    "run_sweep",
]

#: What a :class:`SweepAxis` may vary.
_AXIS_TARGETS = ("dataset", "runner", "policy")

#: Aggregated per-cell fields (deterministic for a fixed spec — the timing
#: fields are deliberately excluded so serial and parallel sweeps aggregate
#: to bit-identical documents).
_AGGREGATED_FIELDS = MEASURES + ("arrivals", "completions")

def _format_value(value: object) -> str:
    """Canonical, filesystem-safe rendering of one axis value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, "g")
    return _UNSAFE_COMPONENT.sub("-", str(value)) or "value"


@dataclass
class SweepAxis(JsonSpec):
    """One grid dimension: vary ``key`` of ``target`` over ``values``.

    ``target`` selects what is varied:

    * ``"dataset"`` — a :class:`repro.api.DatasetSpec` field (e.g. ``seed``,
      ``scale``);
    * ``"runner"`` — a :class:`repro.eval.RunnerConfig` field;
    * ``"policy"`` — a builder kwarg of the spec's policies; ``policy``
      optionally restricts the axis to the entries with that registry name
      (``None`` applies it to every entry).
    """

    what = "sweep axis"

    target: str
    key: str
    values: list = field(default_factory=list)
    policy: str | None = None

    def __post_init__(self) -> None:
        if self.target not in _AXIS_TARGETS:
            raise ValueError(
                f"axis target must be one of {_AXIS_TARGETS}, got {self.target!r}"
            )
        if not isinstance(self.key, str) or not self.key:
            raise ValueError("axis requires a non-empty 'key'")
        if not isinstance(self.values, list) or not self.values:
            raise ValueError(f"axis {self.axis_id!r} requires a non-empty 'values' list")
        if self.policy is not None and self.target != "policy":
            raise ValueError(
                f"axis {self.axis_id!r}: 'policy' only applies to target='policy'"
            )
        for target, cls in (("dataset", DatasetSpec), ("runner", RunnerConfig)):
            if self.target == target:
                known = {spec_field.name for spec_field in fields(cls)}
                if self.key not in known:
                    raise ValueError(
                        f"axis {self.axis_id!r}: unknown {target} field "
                        f"(known: {sorted(known)})"
                    )
        rendered = [_format_value(value) for value in self.values]
        if len(set(rendered)) != len(rendered):
            raise ValueError(f"axis {self.axis_id!r} lists duplicate values: {self.values}")

    # ------------------------------------------------------------------ #
    @property
    def axis_id(self) -> str:
        """Qualified name used in cell ids and as the replicate-axis handle."""
        if self.target == "policy":
            prefix = self.policy if self.policy is not None else "policy"
            return f"{prefix}.{self.key}"
        return f"{self.target}.{self.key}"

    def apply(self, spec: ExperimentSpec, value) -> None:
        """Set this axis to ``value`` on a concrete (already copied) spec."""
        if self.target == "dataset":
            spec.dataset = replace(spec.dataset, **{self.key: value})
        elif self.target == "runner":
            spec.runner = replace(spec.runner, **{self.key: value})
        else:
            touched = 0
            for entry in spec.policies:
                if self.policy is None or entry.policy == self.policy:
                    entry.kwargs = {**entry.kwargs, self.key: value}
                    touched += 1
            if not touched:
                raise ValueError(
                    f"axis {self.axis_id!r} matches no policy in the base spec "
                    f"({[entry.policy for entry in spec.policies]})"
                )


@dataclass
class SweepCell:
    """One expanded grid cell: a concrete spec plus its axis assignments."""

    cell_id: str
    #: Cell id with the replicate axis removed — cells sharing a ``group_id``
    #: are seed replicates of one grid point and are averaged together.
    group_id: str
    assignments: dict
    spec: ExperimentSpec


@dataclass
class SweepSpec(JsonSpec):
    """A whole sweep as data: base experiment + grid axes (JSON ⇄ dataclass)."""

    what = "sweep spec"

    name: str = "sweep"
    base: ExperimentSpec = field(default_factory=ExperimentSpec)
    axes: list[SweepAxis] = field(default_factory=list)
    #: ``axis_id`` of the axis whose values are seed replicates (aggregation
    #: reports mean ± std across it); ``None`` makes every cell its own group.
    replicate_axis: str | None = None

    def __post_init__(self) -> None:
        ids = [axis.axis_id for axis in self.axes]
        duplicates = {axis_id for axis_id in ids if ids.count(axis_id) > 1}
        if duplicates:
            raise ValueError(f"duplicate sweep axes: {sorted(duplicates)}")
        if self.replicate_axis is not None and self.replicate_axis not in ids:
            raise ValueError(
                f"replicate_axis {self.replicate_axis!r} names no axis (axes: {ids})"
            )

    # ------------------------------------------------------------------ #
    def expand(self) -> list[SweepCell]:
        """All grid cells, in deterministic cartesian-product order."""
        if not self.base.policies:
            raise ValueError(f"sweep {self.name!r}: base spec lists no policies")
        if not self.axes:
            spec = ExperimentSpec.from_dict(self.base.to_dict())
            spec.name = f"{self.name}/base"
            return [SweepCell(cell_id="base", group_id="all", assignments={}, spec=spec)]
        cells: list[SweepCell] = []
        for combo in itertools.product(*(axis.values for axis in self.axes)):
            assignments = {
                axis.axis_id: value for axis, value in zip(self.axes, combo)
            }
            spec = ExperimentSpec.from_dict(self.base.to_dict())
            for axis, value in zip(self.axes, combo):
                axis.apply(spec, value)
            cell_id = ",".join(
                f"{axis_id}={_format_value(value)}" for axis_id, value in assignments.items()
            )
            group_parts = [
                f"{axis_id}={_format_value(value)}"
                for axis_id, value in assignments.items()
                if axis_id != self.replicate_axis
            ]
            spec.name = f"{self.name}/{cell_id}"
            cells.append(
                SweepCell(
                    cell_id=cell_id,
                    group_id=",".join(group_parts) if group_parts else "all",
                    assignments=assignments,
                    spec=spec,
                )
            )
        return cells


# --------------------------------------------------------------------- #
# Cell execution (top-level so multiprocessing workers can import it)
# --------------------------------------------------------------------- #
def _execute_cell(payload: dict) -> dict:
    """Run one cell's spec and return its JSON-ready result document.

    Cells always run with ``resume=True``: a cell killed mid-flight left its
    auto-checkpoints (and their run-state sidecars) behind, and the re-run
    fast-forwards to the checkpointed arrival instead of redoing finished
    work — bit-identically to an uninterrupted run.
    """
    spec = ExperimentSpec.from_dict(payload["spec"])
    results = run_spec(
        spec,
        checkpoint_dir=payload.get("checkpoint_dir"),
        dataset_cache_dir=payload.get("dataset_cache_dir"),
        vectorize=payload.get("vectorize"),
        resume=True,
    )
    return {
        "cell_id": payload["cell_id"],
        "group_id": payload["group_id"],
        "assignments": payload["assignments"],
        "spec": payload["spec"],
        "results": {label: result_payload(result) for label, result in results.items()},
    }


def _execute_cell_group(group_payload: dict) -> list[dict]:
    """Run several cells of one replicate group lockstep (episode-vectorized).

    Every (cell, policy label) pair becomes one replica; the replicas advance
    through :class:`repro.eval.VectorizedRunner` in lockstep chunks of
    ``vectorize``, fusing the DDQN replicas' forwards and train steps across
    the seed-replicate cells.  Per-cell result documents are identical
    (timing noise aside) to running each cell through
    :func:`_execute_cell` — the caller guarantees the cells share one runner
    configuration.
    """
    width = int(group_payload["vectorize"])
    payloads = group_payload["cells"]
    prepared: list[tuple[dict, ExperimentSpec, dict]] = []
    replicas: list[tuple] = []
    owners: list[tuple[int, str]] = []
    for cell_index, payload in enumerate(payloads):
        spec = ExperimentSpec.from_dict(payload["spec"])
        dataset = spec.dataset.build(
            cache_dir=payload.get("dataset_cache_dir"), write_cache=False
        )
        for label, policy, path in _policy_jobs(spec, dataset, payload.get("checkpoint_dir")):
            replicas.append((dataset, policy, path))
            owners.append((cell_index, label))
        prepared.append((payload, spec, {}))

    config = prepared[0][1].runner
    for _, spec, _ in prepared:
        if spec.runner != config:
            raise ValueError(
                "lockstep cell groups require identical runner configurations "
                f"(sweep cell {spec.name!r} differs)"
            )
    results: list = []
    for start in range(0, len(replicas), width):
        chunk = replicas[start : start + width]
        results.extend(VectorizedRunner(chunk, config, resume=True).run())

    for (cell_index, label), result in zip(owners, results):
        prepared[cell_index][2][label] = result
    return [
        {
            "cell_id": payload["cell_id"],
            "group_id": payload["group_id"],
            "assignments": payload["assignments"],
            "spec": payload["spec"],
            "results": {label: result_payload(result) for label, result in cell_results.items()},
        }
        for payload, _, cell_results in prepared
    ]


def _execute_job(job: tuple[str, dict]) -> list[dict]:
    """Pool entry point: run a single cell or a lockstep cell group."""
    kind, payload = job
    if kind == "cell":
        return [_execute_cell(payload)]
    return _execute_cell_group(payload)


def _worker_pool(processes: int):
    """The sweep's process pool: ``processes`` workers, the thread budget split.

    Spawn (not fork): workers re-import repro cleanly, which keeps cell
    execution byte-for-byte identical to a fresh serial run and avoids
    inheriting any warmed-up interpreter state.  Each worker starts with
    :func:`repro.nn.threads.blas_share` BLAS threads, so workers × BLAS
    threads stays within the thread budget.
    """
    context = multiprocessing.get_context("spawn")
    return context.Pool(
        processes=processes, initializer=set_num_threads, initargs=(blas_share(processes),)
    )


# --------------------------------------------------------------------- #
# Aggregation: cells → groups with mean ± std across seed replicates
# --------------------------------------------------------------------- #
def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    variance = sum((value - mean) ** 2 for value in values) / len(values)
    return mean, math.sqrt(variance)


def aggregate_cells(spec: SweepSpec, cell_documents: dict[str, dict]) -> dict:
    """Fold per-cell result documents into the grouped sweep document.

    Cells sharing a ``group_id`` (same grid point, different replicate value)
    are averaged: each measure reports ``mean``, ``std`` (population) and the
    per-replicate ``values`` in expansion order.  Only the deterministic
    fields are aggregated — timing columns stay in the cell documents.
    """
    cells = spec.expand()
    missing = [cell.cell_id for cell in cells if cell.cell_id not in cell_documents]
    if missing:
        raise ValueError(f"sweep {spec.name!r} is missing {len(missing)} cells: {missing[:5]}")
    groups: dict[str, dict] = {}
    for cell in cells:
        document = cell_documents[cell.cell_id]
        group = groups.setdefault(
            cell.group_id,
            {
                "assignments": {
                    axis_id: value
                    for axis_id, value in cell.assignments.items()
                    if axis_id != spec.replicate_axis
                },
                "cells": [],
                "policies": {},
            },
        )
        group["cells"].append(cell.cell_id)
        for label, row in document["results"].items():
            per_policy = group["policies"].setdefault(
                label, {name: [] for name in _AGGREGATED_FIELDS}
            )
            for name in _AGGREGATED_FIELDS:
                per_policy[name].append(float(row[name]))
    for group in groups.values():
        for label, per_policy in group["policies"].items():
            group["policies"][label] = {
                name: dict(zip(("mean", "std"), _mean_std(values)), values=values)
                for name, values in per_policy.items()
            }
        group["replicates"] = len(group["cells"])
    return {
        "name": spec.name,
        "replicate_axis": spec.replicate_axis,
        "cells": [cell.cell_id for cell in cells],
        "groups": groups,
    }


def format_sweep_table(aggregate: dict, float_format: str = "{:.3f}") -> str:
    """Render the grouped sweep document as a monospaced mean±std table."""
    rows = []
    for group_id, group in aggregate["groups"].items():
        for label, measures in group["policies"].items():
            row: dict[str, object] = {"group": group_id, "policy": label}
            for name in MEASURES:
                stats = measures[name]
                mean = float_format.format(stats["mean"])
                std = float_format.format(stats["std"])
                row[name] = f"{mean}±{std}" if group["replicates"] > 1 else mean
            row["n"] = group["replicates"]
            rows.append(row)
    return format_table(rows)


# --------------------------------------------------------------------- #
# The runner: cell-by-cell execution with on-disk progress
# --------------------------------------------------------------------- #
@dataclass
class SweepStatus:
    """Progress snapshot of a sweep directory."""

    total: int
    finished: list[str]
    pending: list[str]

    @property
    def complete(self) -> bool:
        return not self.pending


class SweepRunner:
    """Executes a :class:`SweepSpec` into a sweep directory, resumably.

    Every finished cell becomes ``cells/<cell_id>.json`` (written atomically),
    so a killed sweep loses at most the cells that were mid-flight; running
    the same sweep into the same directory again skips everything already on
    disk.  With ``workers > 1`` the pending cells are distributed over a
    ``multiprocessing`` spawn pool; cells are fully independent (each builds
    its own dataset and policies from the spec), so serial and parallel
    execution produce identical results.
    """

    def __init__(
        self,
        spec: SweepSpec,
        directory: str | Path,
        workers: int = 1,
        vectorize: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if vectorize is not None and vectorize < 1:
            raise ValueError(f"vectorize must be >= 1 or None, got {vectorize}")
        self.spec = spec
        self.directory = Path(directory)
        self.workers = workers
        self.vectorize = vectorize

    # ------------------------------------------------------------------ #
    @property
    def spec_path(self) -> Path:
        return self.directory / "sweep.json"

    @property
    def cells_directory(self) -> Path:
        return self.directory / "cells"

    @property
    def results_path(self) -> Path:
        return self.directory / "results.json"

    @property
    def dataset_cache_directory(self) -> Path:
        return self.directory / "datasets"

    def _cell_path(self, cell_id: str) -> Path:
        return self.cells_directory / f"{cell_id}.json"

    # ------------------------------------------------------------------ #
    def prepare(self) -> None:
        """Create the directory layout and pin the spec to it.

        A directory already holding a *different* sweep spec is refused —
        mixing cell results of two grids would aggregate garbage.
        """
        self.cells_directory.mkdir(parents=True, exist_ok=True)
        if self.spec_path.exists():
            existing = SweepSpec.load(self.spec_path)
            # Normalize through JSON so a resume with an in-memory spec that
            # differs only in JSON-equivalent types (tuple vs list kwargs)
            # is not refused as a different sweep.
            if existing.to_dict() != json.loads(json.dumps(self.spec.to_dict())):
                raise ValueError(
                    f"{self.directory} already holds a different sweep "
                    f"({existing.name!r}); use a fresh directory"
                )
        else:
            self.spec.save(self.spec_path)

    def _populate_dataset_cache(self, pending: list[SweepCell]) -> None:
        """Generate each distinct pending ``DatasetSpec`` into the trace cache.

        Done once, in the parent process, *before* any cell runs: cells that
        share a dataset then read the trace from disk instead of regenerating
        it per process, and because workers never write, the cache is free of
        cross-process races.  Cached and regenerated traces are bit-identical
        (pinned by the dataset-cache tests), so resumes mixing the two are
        safe.
        """
        from ..datasets import trace_cache_name

        distinct: dict[tuple, DatasetSpec] = {}
        for cell in pending:
            dataset_spec = cell.spec.dataset
            distinct.setdefault(
                (dataset_spec.scale, dataset_spec.num_months, dataset_spec.seed),
                dataset_spec,
            )
        for dataset_spec in distinct.values():
            # Probe before building: a hit would otherwise deserialize the
            # whole archive just to throw it away (costly on resume).
            path = self.dataset_cache_directory / trace_cache_name(
                dataset_spec.scale, dataset_spec.num_months, dataset_spec.seed
            )
            if not path.exists():
                dataset_spec.build(cache_dir=self.dataset_cache_directory, write_cache=True)

    def status(self) -> SweepStatus:
        cells = self.spec.expand()
        finished = [cell.cell_id for cell in cells if self._cell_path(cell.cell_id).exists()]
        done = set(finished)
        pending = [cell.cell_id for cell in cells if cell.cell_id not in done]
        return SweepStatus(total=len(cells), finished=finished, pending=pending)

    # ------------------------------------------------------------------ #
    def _job(self, cell: SweepCell) -> dict:
        payload: dict = {
            "cell_id": cell.cell_id,
            "group_id": cell.group_id,
            "assignments": cell.assignments,
            "spec": cell.spec.to_dict(),
            "dataset_cache_dir": str(self.dataset_cache_directory),
        }
        if cell.spec.runner.checkpoint_every is not None:
            payload["checkpoint_dir"] = str(self.directory / "checkpoints" / cell.cell_id)
        return payload

    def _jobs(self, pending: list[SweepCell]) -> list[tuple[str, dict]]:
        """Pending cells as pool jobs: plain cells, or lockstep cell groups.

        With ``vectorize`` set, cells of one replicate group (same grid
        point, different replicate value) that share a runner configuration
        are fused into one lockstep job — each of its (cell, policy) pairs
        becomes a replica of an episode-vectorized run.  Every other cell
        still runs as its own job (``vectorize`` then fuses only the
        policies *within* the cell).
        """
        if self.vectorize is None or self.vectorize <= 1:
            return [("cell", self._job(cell)) for cell in pending]
        by_group: dict[tuple, list[SweepCell]] = {}
        order: list[tuple] = []
        for cell in pending:
            # Lockstep requires one shared runner config across the group.
            key = (cell.group_id, json.dumps(asdict(cell.spec.runner), sort_keys=True))
            if key not in by_group:
                by_group[key] = []
                order.append(key)
            by_group[key].append(cell)
        jobs: list[tuple[str, dict]] = []
        for key in order:
            group = by_group[key]
            if len(group) == 1:
                payload = self._job(group[0])
                payload["vectorize"] = self.vectorize
                jobs.append(("cell", payload))
            else:
                jobs.append(
                    (
                        "group",
                        {
                            "vectorize": self.vectorize,
                            "cells": [self._job(cell) for cell in group],
                        },
                    )
                )
        return jobs

    def _write_cell(self, document: dict) -> None:
        path = self._cell_path(document["cell_id"])
        temporary = path.parent / f".{path.name}.tmp"
        temporary.write_text(json.dumps(document, indent=2) + "\n")
        os.replace(temporary, path)

    def run(self, progress: Callable[[str, int, int], None] | None = None) -> dict:
        """Execute all pending cells, then aggregate and write ``results.json``.

        ``progress`` (optional) is called as ``progress(cell_id, done, total)``
        after each cell completes.  Returns the aggregated document.
        """
        self.prepare()
        cells = self.spec.expand()
        finished = {cell_id for cell_id in self.status().finished}
        pending = [cell for cell in cells if cell.cell_id not in finished]
        done = len(finished)
        if pending:
            self._populate_dataset_cache(pending)

        def _record(document: dict) -> None:
            nonlocal done
            self._write_cell(document)
            done += 1
            if progress is not None:
                progress(document["cell_id"], done, len(cells))

        jobs = self._jobs(pending)
        if self.workers == 1 or len(jobs) <= 1:
            for job in jobs:
                for document in _execute_job(job):
                    _record(document)
        else:
            with _worker_pool(min(self.workers, len(jobs))) as pool:
                for documents in pool.imap_unordered(_execute_job, jobs):
                    for document in documents:
                        _record(document)

        documents = {
            cell.cell_id: json.loads(self._cell_path(cell.cell_id).read_text())
            for cell in cells
        }
        aggregate = aggregate_cells(self.spec, documents)
        temporary = self.directory / ".results.json.tmp"
        temporary.write_text(json.dumps(aggregate, indent=2) + "\n")
        os.replace(temporary, self.results_path)
        return aggregate

    def ingest(self, store_path: str | Path, label: str = "") -> dict:
        """Ingest this sweep's finished cells into an observability store.

        Returns the ingest summary (``cells`` / ``missing_cells`` counts).
        """
        # Imported lazily: the obs layer is optional for plain sweep runs.
        from ..obs import MetricsStore
        from ..obs.ingest import ingest_sweep_directory

        with MetricsStore(store_path) as store:
            return ingest_sweep_directory(store, self.directory, label=label)


def run_sweep(
    spec: SweepSpec,
    directory: str | Path,
    workers: int = 1,
    vectorize: int | None = None,
    progress: Callable[[str, int, int], None] | None = None,
) -> dict:
    """Convenience wrapper: execute ``spec`` into ``directory`` and aggregate."""
    return SweepRunner(spec, directory, workers=workers, vectorize=vectorize).run(
        progress=progress
    )
