"""End-to-end throughput harness: arrivals/sec through the full online loop.

The microbenchmarks in :mod:`benchmarks.perf.bench_engine` time individual
kernels; this harness answers the north-star question — how many worker
arrivals per second can the *whole* pipeline sustain?  For every policy it
replays a generated CrowdSpring-like trace through the real
:class:`repro.eval.SimulationRunner` online loop (decision → simulated
feedback → metric update → model update) and reports:

* ``arrivals_per_s`` — online arrivals processed per wall-clock second,
  end to end (the paper's Table 1 latency claims, turned into a throughput
  number);
* ``decision_ms`` / ``update_ms`` — the runner's mean per-arrival decision
  and update latencies;
* for the DDQN framework additionally a ``float32`` variant (same spec, the
  networks in half the precision) and a **batched decision-only** replay
  (``SimulationRunner.replay_decisions``), which routes candidate scoring
  through ``q_values_batch`` in padded mega-batches and so measures the pure
  decision path at batch sizes 1 and ``decision_batch``.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_endtoend             # CI scale
    PYTHONPATH=src python -m benchmarks.perf.bench_endtoend --quick     # smoke
    PYTHONPATH=src python -m benchmarks.perf.bench_endtoend --preset paper

Writes ``BENCH_endtoend.json`` next to this file (override with
``--output``).  ``--preset paper`` uses the full 13-month volume and the
paper's network width — expect a long run.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.api import build_policy
from repro.eval import RunnerConfig, SimulationRunner
from repro.datasets import generate_crowdspring
from repro.nn import threads as nn_threads

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_endtoend.json"


@dataclass
class EndToEndConfig:
    """Trace volume, policy shapes and measurement caps for one harness run."""

    #: Dataset generation knobs (see ``generate_crowdspring``).
    scale: float = 0.1
    num_months: int = 3
    dataset_seed: int = 7
    #: Online arrivals measured per policy (None = full trace).
    max_arrivals: int | None = 400
    #: DDQN shape (the paper's full configuration is 128 / 4).
    hidden_dim: int = 64
    num_heads: int = 4
    batch_size: int = 64
    train_interval: int = 1
    #: Batch size of the batched decision-only replay.
    decision_batch: int = 64
    #: Arrivals scored by the decision-only replay.
    decision_arrivals: int = 400
    seed: int = 0
    #: Policy line-up: every registered baseline plus the DDQN variants.
    baselines: tuple[str, ...] = ("random", "greedy-cosine", "taskrec", "linucb", "greedy-nn")
    #: Multi-replica axis: N independent seed replicas advanced lockstep by
    #: the episode-vectorized platform vs the same N replicas run serially.
    #: The replica shape is the *seed-replicate sweep* scale (small per-cell
    #: networks, fixed ``max_tasks`` so cross-replica fusion engages), where
    #: the per-op python overhead the fusion amortises dominates; at the
    #: paper's hidden_dim=128 a single core is bandwidth-bound and lockstep
    #: fusion is break-even (see the README's vectorized-runs section).
    replicas: int = 8
    replica_hidden_dim: int = 8
    replica_num_heads: int = 2
    replica_batch_size: int = 4
    replica_max_tasks: int = 12
    replica_dtype: str = "float32"
    replica_scale: float = 0.03
    replica_months: int = 2
    replica_arrivals: int = 120
    replica_warmup: int = 24
    #: Best-of repeats per side (this box throttles unpredictably; a single
    #: shot can be ~2x off its steady-state speed).
    replica_repeats: int = 4

    @classmethod
    def quick(cls) -> "EndToEndConfig":
        return cls(
            scale=0.03,
            num_months=2,
            max_arrivals=40,
            hidden_dim=16,
            num_heads=2,
            batch_size=8,
            train_interval=4,
            decision_batch=16,
            decision_arrivals=40,
            baselines=("random", "greedy-cosine", "linucb"),
            replicas=4,
            replica_arrivals=20,
            replica_warmup=12,
            replica_repeats=1,
        )

    @classmethod
    def paper(cls) -> "EndToEndConfig":
        return cls(
            scale=1.0,
            num_months=13,
            max_arrivals=2_000,
            hidden_dim=128,
            num_heads=4,
            decision_arrivals=2_000,
        )

    def ddqn_kwargs(self) -> dict:
        return {
            "hidden_dim": self.hidden_dim,
            "num_heads": self.num_heads,
            "batch_size": self.batch_size,
            "train_interval": self.train_interval,
            "seed": self.seed,
        }


@dataclass
class PolicyThroughput:
    """One measured policy row."""

    label: str
    policy: str
    arrivals: int
    elapsed_s: float
    arrivals_per_s: float
    decision_ms: float
    update_ms: float
    kwargs: dict = field(default_factory=dict)


def measure_policy(
    runner: SimulationRunner, label: str, name: str, kwargs: dict
) -> PolicyThroughput:
    """Run one policy through the full online loop and time it end to end."""
    policy = build_policy(name, runner.dataset, **kwargs)
    started = time.perf_counter()
    result = runner.run(policy)
    elapsed = time.perf_counter() - started
    return PolicyThroughput(
        label=label,
        policy=name,
        arrivals=result.arrivals,
        elapsed_s=elapsed,
        arrivals_per_s=result.arrivals / elapsed if elapsed > 0 else float("inf"),
        decision_ms=result.mean_decision_seconds * 1e3,
        update_ms=result.mean_update_seconds * 1e3,
        kwargs=dict(kwargs),
    )


def measure_decision_path(config: EndToEndConfig, runner: SimulationRunner) -> dict:
    """Decision-only replay throughput at batch size 1 vs ``decision_batch``.

    The policy is frozen (no feedback, no learning), so consecutive arrivals
    are independent and the batched path may legally score ``decision_batch``
    candidate pools through one padded ``q_values_batch`` call per Q-network.
    """
    out: dict[str, dict[str, float]] = {}
    for batch_size in (1, config.decision_batch):
        policy = build_policy("ddqn", runner.dataset, **config.ddqn_kwargs())
        started = time.perf_counter()
        ranked = runner.replay_decisions(
            policy, batch_size=batch_size, max_arrivals=config.decision_arrivals
        )
        elapsed = time.perf_counter() - started
        out[f"batch_{batch_size}"] = {
            "arrivals": ranked,
            "elapsed_s": elapsed,
            "decisions_per_s": ranked / elapsed if elapsed > 0 else float("inf"),
        }
    single = out.get("batch_1", {}).get("decisions_per_s", 0.0)
    batched = out.get(f"batch_{config.decision_batch}", {}).get("decisions_per_s", 0.0)
    if single and batched:
        out["batched_speedup"] = batched / single
    return out


def measure_multi_replica(config: EndToEndConfig) -> dict:
    """Aggregate ddqn arrivals/sec: N lockstep replicas vs N serial runs.

    Each replica is one (dataset seed, fresh policy) pair — exactly one cell
    of a seed-replicate sweep.  The vectorized side advances all replicas in
    lockstep through :class:`repro.eval.VectorizedRunner`, fusing candidate
    scorings and train steps across replicas; the serial side runs the same
    replicas one after another.  Per-replica results are bit-identical (the
    equality is asserted here on every run), so the multiplier is pure
    execution efficiency.  Both sides take the best of ``replica_repeats``
    trials to suppress the machine's frequency throttling noise.
    """
    from repro.eval import VectorizedRunner

    replica_kwargs = {
        "hidden_dim": config.replica_hidden_dim,
        "num_heads": config.replica_num_heads,
        "batch_size": config.replica_batch_size,
        "max_tasks": config.replica_max_tasks,
        "dtype": config.replica_dtype,
        "seed": config.seed,
    }
    runner_config = RunnerConfig(
        seed=config.seed,
        max_arrivals=config.replica_arrivals,
        max_warmup_observations=config.replica_warmup,
    )
    seeds = [config.dataset_seed + offset for offset in range(config.replicas)]
    datasets = {
        seed: generate_crowdspring(
            scale=config.replica_scale, num_months=config.replica_months, seed=seed
        )
        for seed in seeds
    }

    serial_elapsed = float("inf")
    vectorized_elapsed = float("inf")
    serial_results = vectorized_results = None
    for _ in range(max(1, config.replica_repeats)):
        # Policy construction happens outside both timers so the multiplier
        # compares pure run time, not network-init overhead.
        policies = [build_policy("ddqn", datasets[seed], **replica_kwargs) for seed in seeds]
        started = time.perf_counter()
        serial_results = [
            SimulationRunner(datasets[seed], runner_config).run(policy)
            for seed, policy in zip(seeds, policies)
        ]
        serial_elapsed = min(serial_elapsed, time.perf_counter() - started)

        replicas = [
            (datasets[seed], build_policy("ddqn", datasets[seed], **replica_kwargs))
            for seed in seeds
        ]
        started = time.perf_counter()
        vectorized_results = VectorizedRunner(replicas, runner_config).run()
        vectorized_elapsed = min(vectorized_elapsed, time.perf_counter() - started)

    identical = all(
        serial.arrivals == vectorized.arrivals
        and serial.completions == vectorized.completions
        and serial.cr.monthly == vectorized.cr.monthly
        and serial.qg.final == vectorized.qg.final
        for serial, vectorized in zip(serial_results, vectorized_results)
    )
    if not identical:
        raise AssertionError(
            "vectorized replicas diverged from their serial runs — the "
            "multi-replica benchmark refuses to report a broken multiplier"
        )
    total_arrivals = sum(result.arrivals for result in serial_results)
    return {
        "replicas": config.replicas,
        "replica_kwargs": replica_kwargs,
        "arrivals_per_replica": config.replica_arrivals,
        "total_arrivals": total_arrivals,
        "serial_elapsed_s": serial_elapsed,
        "vectorized_elapsed_s": vectorized_elapsed,
        "serial_arrivals_per_s": total_arrivals / serial_elapsed,
        "vectorized_arrivals_per_s": total_arrivals / vectorized_elapsed,
        "multiplier": serial_elapsed / vectorized_elapsed,
        "results_identical": identical,
    }


class _DecisionTimer:
    """Transparent policy proxy that times every ``rank_tasks`` call.

    The runner's ``mean_decision_seconds`` collapses the latency distribution
    to one number; the async comparison needs the tail (a decision stalls
    only when it waits on the trainer), so this wrapper records the
    per-arrival samples and delegates everything else untouched.
    """

    def __init__(self, policy) -> None:
        self._policy = policy
        self.samples: list[float] = []

    def __getattr__(self, name: str):
        return getattr(self._policy, name)

    def rank_tasks(self, context):
        started = time.perf_counter()
        ranked = self._policy.rank_tasks(context)
        self.samples.append(time.perf_counter() - started)
        return ranked


def measure_async(config: EndToEndConfig, runner: SimulationRunner) -> dict:
    """Sync vs async DDQN training through the same online loop.

    Both rows run the float32 network (the serial float32 row is the
    acceptance baseline); the async row moves train steps to the background
    trainer thread, so its inline ``update_ms`` collapses and the cost shows
    up as trainer-thread utilisation instead — hence the split timers:
    decision latency percentiles from the per-arrival samples, trainer
    occupancy from :meth:`repro.core.AsyncTrainer.stats`.
    """
    out: dict = {}
    base_kwargs = {**config.ddqn_kwargs(), "dtype": "float32"}
    for key, extra in (
        ("serial_float32", {}),
        ("async_float32", {"async_training": True}),
    ):
        policy = build_policy("ddqn", runner.dataset, **{**base_kwargs, **extra})
        timer = _DecisionTimer(policy)
        started = time.perf_counter()
        result = runner.run(timer)
        elapsed = time.perf_counter() - started
        samples = np.asarray(timer.samples, dtype=np.float64) * 1e3
        row = {
            "arrivals": result.arrivals,
            "elapsed_s": elapsed,
            "arrivals_per_s": result.arrivals / elapsed if elapsed > 0 else float("inf"),
            "decision_ms_mean": float(samples.mean()) if samples.size else 0.0,
            "decision_ms_p50": float(np.percentile(samples, 50)) if samples.size else 0.0,
            "decision_ms_p99": float(np.percentile(samples, 99)) if samples.size else 0.0,
            "inline_update_ms": result.mean_update_seconds * 1e3,
            "kwargs": {**base_kwargs, **extra},
        }
        trainer_stats = policy.trainer.stats()
        if trainer_stats:
            row["trainer"] = trainer_stats
        policy.trainer.close()
        out[key] = row
    serial_rate = out["serial_float32"]["arrivals_per_s"]
    if serial_rate:
        out["speedup_vs_serial_float32"] = (
            out["async_float32"]["arrivals_per_s"] / serial_rate
        )
    return out


def run(config: EndToEndConfig, include_async: bool = False) -> dict:
    dataset = generate_crowdspring(
        scale=config.scale, num_months=config.num_months, seed=config.dataset_seed
    )
    runner = SimulationRunner(
        dataset, RunnerConfig(seed=config.seed, max_arrivals=config.max_arrivals)
    )

    # Measured first: the serial-vs-lockstep multiplier is the most
    # throttle-sensitive number in the harness (the stacked working set is
    # N× larger), and the long per-policy rows below thermally saturate the
    # box — measuring after them contaminates the comparison.
    multi_replica = measure_multi_replica(config)

    rows: list[PolicyThroughput] = []
    for name in config.baselines:
        kwargs: dict = {"seed": config.seed} if name in ("random", "taskrec", "greedy-nn") else {}
        rows.append(measure_policy(runner, name, name, kwargs))
    ddqn_kwargs = config.ddqn_kwargs()
    rows.append(measure_policy(runner, "ddqn", "ddqn", ddqn_kwargs))
    rows.append(
        measure_policy(
            runner, "ddqn-float32", "ddqn", {**ddqn_kwargs, "dtype": "float32"}
        )
    )

    report = {
        "benchmark": "end-to-end arrivals/sec",
        "config": asdict(config),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "threads": nn_threads.thread_info(),
        },
        "policies": {row.label: asdict(row) for row in rows},
        "decision_path": measure_decision_path(config, runner),
        "multi_replica": multi_replica,
    }
    if include_async:
        report["async_training"] = measure_async(config, runner)
    return report


def render(report: dict) -> str:
    lines = [
        f"{'policy':<16} {'arrivals':>8} {'arr/s':>10} {'decision':>10} {'update':>10}"
    ]
    for label, row in report["policies"].items():
        lines.append(
            f"{label:<16} {row['arrivals']:>8} {row['arrivals_per_s']:>9.1f} "
            f"{row['decision_ms']:>8.2f}ms {row['update_ms']:>8.2f}ms"
        )
    decision = report.get("decision_path", {})
    batches = [key for key in decision if key.startswith("batch_")]
    if batches:
        lines.append("")
        lines.append("ddqn decision-only replay (frozen policy, q_values_batch):")
        for key in batches:
            entry = decision[key]
            lines.append(
                f"  {key:<10} {entry['arrivals']:>6} arrivals  "
                f"{entry['decisions_per_s']:>9.1f} decisions/s"
            )
        if "batched_speedup" in decision:
            lines.append(f"  batched speedup: {decision['batched_speedup']:.2f}x")
    multi = report.get("multi_replica")
    if multi:
        lines.append("")
        lines.append(
            f"ddqn multi-replica lockstep (episode-vectorized, N={multi['replicas']}):"
        )
        lines.append(
            f"  serial     {multi['total_arrivals']:>6} arrivals  "
            f"{multi['serial_arrivals_per_s']:>9.1f} arrivals/s"
        )
        lines.append(
            f"  vectorized {multi['total_arrivals']:>6} arrivals  "
            f"{multi['vectorized_arrivals_per_s']:>9.1f} arrivals/s"
        )
        lines.append(f"  aggregate multiplier: {multi['multiplier']:.2f}x (bit-identical results)")
    asynchronous = report.get("async_training")
    if asynchronous:
        lines.append("")
        lines.append("ddqn async training (snapshot decisions + background trainer):")
        for key in ("serial_float32", "async_float32"):
            row = asynchronous[key]
            trainer = row.get("trainer", {})
            occupancy = (
                f"  trainer util {trainer['utilisation']:.2f} "
                f"({trainer['train_steps']} steps, {trainer['skipped_steps']} amortised)"
                if trainer
                else ""
            )
            lines.append(
                f"  {key:<16} {row['arrivals']:>6} arrivals  "
                f"{row['arrivals_per_s']:>8.1f} arrivals/s  "
                f"decision p50 {row['decision_ms_p50']:.2f}ms "
                f"p99 {row['decision_ms_p99']:.2f}ms{occupancy}"
            )
        speedup = asynchronous.get("speedup_vs_serial_float32")
        if speedup:
            lines.append(f"  async speedup vs serial float32: {speedup:.2f}x")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true", help="tiny trace (CI smoke run, seconds not minutes)"
    )
    parser.add_argument(
        "--preset",
        choices=("ci", "paper"),
        default="ci",
        help="trace volume / network width (ci default; paper = full 13-month volume)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--async",
        dest="async_training",
        action="store_true",
        help="also measure asynchronous DDQN training (sync vs async arrivals/s, "
        "decision p50/p99, trainer utilisation)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        config = EndToEndConfig.quick()
    elif args.preset == "paper":
        config = EndToEndConfig.paper()
    else:
        config = EndToEndConfig()
    report = run(config, include_async=args.async_training)
    report["mode"] = "quick" if args.quick else args.preset
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(render(report))
    print(f"\nwrote {args.output}")
    return report


if __name__ == "__main__":
    main()
