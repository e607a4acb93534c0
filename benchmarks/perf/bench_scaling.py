"""Multi-core scale-out benchmark: shards × replica threads.

Measures the two composable scale-out axes this codebase ships and — more
importantly on a CI box — *verifies their exactness contracts* while doing
so:

* **Process-sharded serving** (``repro serve --shards K``): the tenants ×
  shards grid boots a real deployment per cell (K worker processes behind
  the routing front-end for K > 1, a plain single-process server for K = 1),
  replays the same trace windows through the load generator, and records
  aggregate events/sec and server-side rank p99.  The K = 1 and K = 2
  deployments of the largest tenant count must drain **byte-identical**
  checkpoint trees (modulo wall-clock timing fields) — the benchmark fails
  ``--check`` otherwise.
* **Threaded lockstep replicas** (``VectorizedRunner(replica_threads=T)``):
  R offline replicas run with T = 1 and T > 1 and must produce
  float-identical results; wall-clock per run is reported.

``--check`` gates **exactness and completion only** — sharded ≡ unsharded
state, threaded ≡ single-threaded results, zero replay errors.  Speedup
columns are informational: CI runs on one core, where the honest expectation
is ≈ 1× (or slightly below, for the coordination overhead); the grid exists
so multi-core operators can read real numbers off their own hardware.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_scaling           # full grid
    PYTHONPATH=src python -m benchmarks.perf.bench_scaling --quick   # CI smoke
    PYTHONPATH=src python -m benchmarks.perf.bench_scaling --check   # CI gate

Writes ``BENCH_scaling.json`` next to this file (override with
``--output``); the report ingests into the observability store like every
other benchmark (``repro report ingest BENCH_scaling.json``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.api import build_policy
from repro.datasets import generate_crowdspring
from repro.eval import RunnerConfig, VectorizedRunner
from repro.nn import threads as nn_threads
from repro.serve import ArrangementServer, ServeSpec, run_loadgen
from repro.serve.shard import ShardedFrontend
from repro.serve.spec import TenantSpec

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_scaling.json"

#: Wall-clock timing fields excluded from the byte-identity comparison
#: (mirrors tests/serve/conftest.py).
TIMING_JSON_KEYS = {"runner/decision_seconds", "runner/update_seconds"}
TIMING_ARRAY_KEYS = {"runner/retrain_seconds"}

TINY_DDQN = {"hidden_dim": 16, "num_heads": 2, "batch_size": 8, "train_interval": 4}


@dataclass
class ScalingConfig:
    """Grid shape for the two scale-out axes."""

    #: Dataset generation knobs (tenant/replica i uses seed ``i + 1``).
    scale: float = 0.03
    num_months: int = 2
    #: Serve grid: tenant counts × shard counts.
    tenant_counts: tuple[int, ...] = (2, 4)
    shard_counts: tuple[int, ...] = (1, 2)
    #: Events replayed per tenant per serve cell.
    max_events: int = 120
    #: Replica-thread grid: replica count and thread counts.
    replicas: int = 4
    thread_counts: tuple[int, ...] = (1, 2)
    replica_arrivals: int = 20
    checkpoint_every: int = 25

    @classmethod
    def quick(cls) -> "ScalingConfig":
        return cls(
            tenant_counts=(2,),
            shard_counts=(1, 2),
            max_events=60,
            replicas=2,
            thread_counts=(1, 2),
            replica_arrivals=12,
        )

    def build_spec(self, tenants: int) -> ServeSpec:
        return ServeSpec(
            name=f"scale-{tenants}t",
            host="127.0.0.1",
            port=0,
            tenants=[
                TenantSpec.from_dict(
                    {
                        "name": f"tenant-{index}",
                        "dataset": {
                            "scale": self.scale,
                            "num_months": self.num_months,
                            "seed": index + 1,
                        },
                        "runner": {
                            "seed": index,
                            "checkpoint_every": self.checkpoint_every,
                        },
                        "policy": {
                            "policy": "ddqn-worker",
                            "kwargs": dict(TINY_DDQN, seed=index),
                        },
                    }
                )
                for index in range(tenants)
            ],
        )


class _DeploymentThread:
    """A deployment (single server or sharded front-end) on its own loop thread."""

    def __init__(self, spec: ServeSpec, shards: int, state_dir: Path, cache_dir: Path) -> None:
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self.address: tuple[str, int] | None = None
        self._thread = threading.Thread(
            target=self._run, args=(spec, shards, state_dir, cache_dir), daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=600)
        if self._error is not None:
            raise self._error
        if self.address is None:
            raise TimeoutError("deployment thread did not become ready")

    def _run(self, spec: ServeSpec, shards: int, state_dir: Path, cache_dir: Path) -> None:
        async def amain():
            if shards > 1:
                deployment = ShardedFrontend(
                    spec, shards, state_dir=state_dir, resume=False, dataset_cache_dir=cache_dir
                )
            else:
                deployment = ArrangementServer(
                    spec, state_dir=state_dir, resume=False, dataset_cache_dir=cache_dir
                )
            await deployment.start()
            self.address = deployment.address
            self._ready.set()
            await deployment.run_until_shutdown()

        try:
            asyncio.run(amain())
        except BaseException as error:  # noqa: BLE001 - re-raised in join()
            self._error = error
            self._ready.set()

    def join(self, timeout: float = 600) -> None:
        self._thread.join(timeout=timeout)
        if self._error is not None:
            raise self._error


def _state_dirs_identical(dir_a: Path, dir_b: Path) -> bool:
    """Byte-identity of two checkpoint trees, modulo wall-clock fields."""
    files_a = sorted(p.name for p in dir_a.glob("*.npz"))
    files_b = sorted(p.name for p in dir_b.glob("*.npz"))
    if files_a != files_b or not files_a:
        return False
    for name in files_a:
        with np.load(dir_a / name, allow_pickle=False) as za, np.load(
            dir_b / name, allow_pickle=False
        ) as zb:
            if sorted(za.files) != sorted(zb.files):
                return False
            for key in za.files:
                if key in TIMING_ARRAY_KEYS:
                    continue
                if key == "__json__":
                    ja = json.loads(str(za[key][()]))
                    jb = json.loads(str(zb[key][()]))
                    for field in TIMING_JSON_KEYS:
                        ja.pop(field, None)
                        jb.pop(field, None)
                    if ja != jb:
                        return False
                elif za[key].tobytes() != zb[key].tobytes():
                    return False
    return True


def _measure_deployment(
    spec: ServeSpec, shards: int, cache_dir: Path, max_events: int, state_dir: Path
) -> dict:
    deployment = _DeploymentThread(spec, shards, state_dir, cache_dir)
    report = run_loadgen(
        spec,
        port=deployment.address[1],
        max_events=max_events,
        dataset_cache_dir=cache_dir,
        shutdown=True,
    )
    deployment.join()
    aggregate = report["aggregate"]
    tenant_latencies = [
        tenant["latency_ms"] for tenant in report["server_status"]["tenants"].values()
    ]
    return {
        "label": f"{len(spec.tenants)}t-x{shards}shard",
        "tenants": len(spec.tenants),
        "shards": shards,
        "events_sent": aggregate["events_sent"],
        "errors": aggregate["errors"],
        "elapsed_s": aggregate["elapsed_s"],
        "events_per_s": aggregate["events_per_s"],
        "rank_p99_ms": max(t["p99_ms"] for t in tenant_latencies),
        "rtt_p99_ms": aggregate["rank_rtt_ms"]["p99_ms"],
    }


def _serve_grid(config: ScalingConfig, cache_dir: Path) -> tuple[list[dict], bool]:
    """The tenants × shards grid; returns (rows, sharded ≡ unsharded)."""
    rows = []
    exact = True
    for tenants in config.tenant_counts:
        spec = config.build_spec(tenants)
        state_dirs: dict[int, Path] = {}
        with tempfile.TemporaryDirectory(prefix="bench-scaling-serve-") as root:
            for shards in config.shard_counts:
                state_dir = Path(root) / f"{tenants}t-{shards}s"
                row = _measure_deployment(
                    spec, shards, cache_dir, config.max_events, state_dir
                )
                state_dirs[shards] = state_dir
                rows.append(row)
            baseline = state_dirs.get(1)
            for shards, state_dir in state_dirs.items():
                if baseline is None or shards == 1:
                    continue
                identical = _state_dirs_identical(baseline, state_dir)
                exact = exact and identical
                for row in rows:
                    if row["tenants"] == tenants and row["shards"] == shards:
                        row["state_identical_to_unsharded"] = identical
    # Informational speedup column (vs the 1-shard row of the same grid line).
    for row in rows:
        base = next(
            r for r in rows if r["tenants"] == row["tenants"] and r["shards"] == 1
        )
        row["speedup_vs_1shard"] = (
            base["elapsed_s"] / row["elapsed_s"] if row["elapsed_s"] > 0 else 0.0
        )
    return rows, exact


def _result_fingerprint(results) -> list[tuple]:
    return [
        (result.arrivals, result.completions, tuple(result.cr.monthly), result.qg.final)
        for result in results
    ]


def _replica_thread_grid(config: ScalingConfig, datasets) -> tuple[list[dict], bool]:
    """Threaded lockstep rows; returns (rows, threaded ≡ single-threaded)."""
    runner_config = RunnerConfig(
        seed=0, max_arrivals=config.replica_arrivals, max_warmup_observations=12
    )
    # CI may run on one core, where the budget guard would clamp every row
    # to one thread; raise the budget so the exactness claim is tested on a
    # genuinely threaded pool (wall-clock columns stay honest either way).
    budget = max(nn_threads.max_threads(), max(config.thread_counts))
    previous = os.environ.get(nn_threads.BUDGET_ENV_VAR)
    os.environ[nn_threads.BUDGET_ENV_VAR] = str(budget)
    rows = []
    fingerprints = {}
    try:
        for threads_count in config.thread_counts:
            replicas = [
                (dataset, build_policy("ddqn-worker", dataset, **dict(TINY_DDQN, seed=0)))
                for dataset in datasets[: config.replicas]
            ]
            started = time.perf_counter()
            results = VectorizedRunner(
                replicas, runner_config, replica_threads=threads_count
            ).run()
            elapsed = time.perf_counter() - started
            fingerprints[threads_count] = _result_fingerprint(results)
            rows.append(
                {
                    "label": f"{len(replicas)}r-x{threads_count}thread",
                    "replicas": len(replicas),
                    "replica_threads": threads_count,
                    "elapsed_s": elapsed,
                }
            )
    finally:
        if previous is None:
            os.environ.pop(nn_threads.BUDGET_ENV_VAR, None)
        else:
            os.environ[nn_threads.BUDGET_ENV_VAR] = previous
    reference = fingerprints[config.thread_counts[0]]
    exact = all(fingerprints[count] == reference for count in config.thread_counts)
    for row in rows:
        row["results_identical_to_1thread"] = (
            fingerprints[row["replica_threads"]] == reference
        )
        base = next(r for r in rows if r["replica_threads"] == 1)
        row["speedup_vs_1thread"] = (
            base["elapsed_s"] / row["elapsed_s"] if row["elapsed_s"] > 0 else 0.0
        )
    return rows, exact


def run(config: ScalingConfig, cache_dir: Path) -> dict:
    serve_rows, serve_exact = _serve_grid(config, cache_dir)
    datasets = [
        generate_crowdspring(scale=config.scale, num_months=config.num_months, seed=seed + 1)
        for seed in range(max(config.replicas, 1))
    ]
    replica_rows, replica_exact = _replica_thread_grid(config, datasets)
    return {
        "benchmark": "multi-core scale-out: shards x replica threads",
        "config": asdict(config),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "threads": nn_threads.thread_info(),
        },
        "serve": serve_rows,
        "replica_threads": replica_rows,
        "exactness": {
            "sharded_serve_state_identical": serve_exact,
            "threaded_replicas_identical": replica_exact,
        },
    }


def render(report: dict) -> str:
    lines = [f"{'row':<22} {'ev/s':>9} {'rank p99':>9} {'elapsed':>8} {'speedup':>8} {'exact':>6}"]
    for row in report["serve"]:
        lines.append(
            f"{row['label']:<22} {row['events_per_s']:>9.1f} {row['rank_p99_ms']:>9.2f} "
            f"{row['elapsed_s']:>8.2f} {row['speedup_vs_1shard']:>7.2f}x "
            f"{str(row.get('state_identical_to_unsharded', '-')):>6}"
        )
    for row in report["replica_threads"]:
        lines.append(
            f"{row['label']:<22} {'-':>9} {'-':>9} {row['elapsed_s']:>8.2f} "
            f"{row['speedup_vs_1thread']:>7.2f}x {str(row['results_identical_to_1thread']):>6}"
        )
    exact = report["exactness"]
    lines.append(
        f"\nexactness: sharded serve state "
        f"{'PASS' if exact['sharded_serve_state_identical'] else 'FAIL'}, "
        f"threaded replicas {'PASS' if exact['threaded_replicas_identical'] else 'FAIL'} "
        f"(speedups informational; exactness is the gate)"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true", help="small grid (CI smoke run)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every exactness contract holds and every "
        "replay completed error-free (speedups are never gated)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None, help="dataset cache directory"
    )
    args = parser.parse_args(argv)

    config = ScalingConfig.quick() if args.quick else ScalingConfig()
    if args.cache_dir is not None:
        cache_context = None
        cache_dir = args.cache_dir
    else:
        cache_context = tempfile.TemporaryDirectory(prefix="bench-scaling-cache-")
        cache_dir = Path(cache_context.name)
    try:
        report = run(config, Path(cache_dir))
    finally:
        if cache_context is not None:
            cache_context.cleanup()
    report["mode"] = "quick" if args.quick else "full"
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(render(report))
    print(f"\nwrote {args.output}")
    if args.check:
        exact = report["exactness"]
        if not all(exact.values()):
            raise SystemExit(f"scale-out exactness violated: {exact}")
        errors = sum(row["errors"] for row in report["serve"])
        if errors:
            raise SystemExit(f"serve replays saw {errors} errors")
    return report


if __name__ == "__main__":  # pragma: no cover
    main()
