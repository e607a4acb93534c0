"""Metric definitions, percentile helpers and the report printer.

``END_TO_END`` are the metrics every untraced run reports, with the bounds
``BENCHMARK.json`` sets.  ``INFORMATIONAL`` are end-to-end metrics that only
some workloads have, or that drift too much between runs on a shared 2-core
box to bound (decision latencies move 15-40 % with the machine's speed,
throughput averages over the whole run and stays within about 15 %); they
are printed by name beside the others.  ``PER_LAYER`` adds to each traced
metric the end-to-end metric and the workloads it should move, so a layer
change can be predicted before it is measured.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

#: BENCHMARK.json names every metric with its unit (and, end to end, its
#: bound); this module adds what each per-layer metric should move.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: (name, unit, better, bound), reported by every untraced run.
END_TO_END = tuple(
    (entry["name"], entry["unit"], entry["better"], entry["bound"]) for entry in SPEC["end_to_end"]
)

#: (name, unit) — printed where the workload has the quantity.
INFORMATIONAL = (
    ("decision_ms.p50", "ms"),
    ("decision_ms.tail", "ms"),
    ("update_ms.p50", "ms"),
    ("update_ms.tail", "ms"),
    ("max_rate_under_slo", "events/s"),
    ("failed_share", "ratio"),
    ("ndcg_cr", "ratio"),
    ("ndcg_qg", "quality"),
)


@dataclass(frozen=True)
class Layer:
    """One per-layer metric: what it measures and what it should move."""

    name: str
    unit: str
    moves: str
    on: str


_ALL = "learn serve replicas"

#: Per-layer metric -> (end-to-end metric it should move, workloads where).
MOVES = {
    "datasets.build_s": ("setup_s", "learn replicas"),
    "core.framework.init_s": ("setup_s", "learn replicas"),
    "eval.runner.warmup_s": ("setup_s", "learn replicas"),
    "serve.boot_s": ("setup_s", "serve"),
    "core.state.transform_ms": ("decision_ms.p50", "learn"),
    "core.state.rows.mean": ("input size behind transform and infer", _ALL),
    "core.qnetwork.infer_ms": ("decision_ms.p50 decision_ms.tail", "learn"),
    "core.framework.decide_other_ms": ("decision_ms.p50", "learn"),
    "eval.runner.self_ms": ("arrivals_per_s", "learn replicas"),
    "core.learner.train_steps": ("work done; must not fall", "learn replicas"),
    "core.learner.train_step_ms.p50": ("update_ms arrivals_per_s", "learn"),
    "core.learner.train_step_ms.tail": ("update_ms.tail", "learn"),
    "core.learner.targets_ms": ("update_ms.p50", "learn"),
    "core.learner.branches_per_step": ("work behind targets_ms", "learn"),
    "core.learner.target_cache_hit": ("targets_ms (memo hits over branch targets)", "learn"),
    "core.qnetwork.forward_batch_ms": ("update_ms.p50", "learn"),
    "core.qnetwork.padded_share": ("update_ms.p50 (wasted rows)", "learn"),
    "nn.tensor.backward_ms": ("update_ms.p50", "learn replicas"),
    "nn.optim.step_ms": ("update_ms.p50", "learn"),
    "core.replay.sample_ms": ("update_ms.p50", "learn"),
    "core.replay.priorities_ms": ("update_ms.p50", "learn"),
    "core.replay.push_ms": ("update_ms.p50", "learn"),
    "core.predictor.predict_ms": ("update_ms.p50", "learn"),
    "core.vectorized.decide_round_ms": ("arrivals_per_s", "replicas"),
    "core.vectorized.observe_round_ms": ("arrivals_per_s", "replicas"),
    "core.vectorized.fusion_width": ("arrivals_per_s", "replicas"),
    "serve.rank_ms.p50": ("decision_ms.p50", "serve"),
    "serve.rank_ms.tail": ("decision_ms.tail", "serve"),
    "serve.wait_ms.tail": ("decision_ms.tail max_rate_under_slo", "serve"),
    "serve.batch.mean": ("decision_ms.p50", "serve"),
    "serve.checkpoint.writes": ("decision_ms.tail", "serve"),
    "serve.queue_depth.max": ("max_rate_under_slo", "serve"),
    "serve.errors": ("failed_share", "serve"),
    "client.lag_ms.tail": ("whether the serve numbers are valid", "serve"),
    "trace.overhead": ("-", _ALL),
    "trace.unattributed_share": ("-", _ALL),
}

PER_LAYER = tuple(
    Layer(entry["name"], entry["unit"], *MOVES[entry["name"]])
    for entry in SPEC["per_layer"]
)

UNITS = {name: unit for name, unit, _, _ in END_TO_END}
UNITS.update(INFORMATIONAL)
UNITS.update({layer.name: layer.unit for layer in PER_LAYER})


def p50(samples) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(samples))


def tail(samples) -> tuple[float, float, int]:
    """The highest order statistic with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, count)``.  With fewer than
    ``TAIL_BEYOND + 1`` samples no such percentile exists and the maximum is
    returned as the 100th percentile.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0, count
    index = count - TAIL_BEYOND - 1
    return float(ordered[index]), 100.0 * (index + 1) / count, count


@dataclass
class Report:
    """Everything one run prints: metrics, checks and run context."""

    workload: str
    seed: int
    traced: bool
    #: name -> (value, note); units come from the tables above.
    metrics: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    context: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def put(self, name: str, value: float, note: str = "") -> None:
        self.metrics[name] = (float(value), note)

    def put_samples(self, prefix: str, samples_ms) -> None:
        """``<prefix>.p50`` and ``<prefix>.tail`` from millisecond samples."""
        if not samples_ms:
            self.put(f"{prefix}.p50", 0.0, "no samples")
            self.put(f"{prefix}.tail", 0.0, "no samples")
            return
        value, percentile, count = tail(samples_ms)
        self.put(f"{prefix}.p50", p50(samples_ms), f"{count} samples")
        self.put(f"{prefix}.tail", value, f"p{percentile:.2f} of {count} samples")

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def result_line(self) -> dict:
        """The final JSON object: the bounded set, or every per-layer metric."""
        names = (
            [layer.name for layer in PER_LAYER]
            if self.traced
            else [name for name, _, _, _ in END_TO_END]
        )
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise RuntimeError(f"workload {self.workload} did not report {missing}")
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": self.metrics[name][0], "unit": UNITS[name]} for name in names
            },
        }

    def render(self) -> str:
        """Human-readable lines, then the JSON result as the last line."""
        out = [
            f"workload {self.workload}  seed {self.seed}  trace {'on' if self.traced else 'off'}",
            "context  " + "  ".join(f"{key}={value}" for key, value in self.context.items()),
        ]
        if self.traced:
            for layer in PER_LAYER:
                value, note = self.metrics[layer.name]
                out.append(
                    f"{layer.name:34s} {value:12.4f} {layer.unit:6s} "
                    f"moves {layer.moves} on {layer.on}" + (f"  ({note})" if note else "")
                )
        else:
            for name, unit, _, bound in END_TO_END:
                value, note = self.metrics[name]
                out.append(
                    f"{name:20s} {value:12.4f} {unit:12s} bound {bound:.2f}"
                    + (f"  ({note})" if note else "")
                )
        for name, unit in INFORMATIONAL:
            if name in self.metrics:
                value, note = self.metrics[name]
                out.append(
                    f"{name:20s} {value:12.4f} {unit:12s} informational"
                    + (f"  ({note})" if note else "")
                )
        out.extend(self.lines)
        for name, ok, detail in self.checks:
            out.append(f"check {name}: {'ok' if ok else 'FAILED'}" + (f"  {detail}" if detail else ""))
        out.append(json.dumps(self.result_line()))
        return "\n".join(out)
