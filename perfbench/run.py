"""Run one benchmark workload and print its metrics (see ``perfbench/__init__.py``).

Usage, from the repository root::

    python3 perfbench/run.py --workload learn|serve|replicas|all \\
        --seed N --seconds S --trace 0|1

``all`` runs the three workloads one after another, each in its own process
(so each reports its own peak memory), and prints each report.

Exit status: 0 when every correctness check passed, 1 when one failed (the
result line still prints, with ``"correct": false``), 2 when the program
under test is not present next to the benchmark (nothing is printed).
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("learn", "serve", "replicas")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _context(seed: int, server_shards: int, server_blas: int | None) -> dict:
    """The parallelism the run was actually granted, recorded beside its numbers."""
    from repro.nn.threads import max_threads, num_threads

    return {
        "seed": seed,
        "affinity_cores": len(os.sched_getaffinity(0)),
        "thread_budget": max_threads(),
        "blas_threads": num_threads(),
        "server_shards": server_shards,
        "server_blas_threads": server_blas,
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool, size: str = "full"):
    """Run one workload in this process; returns its :class:`Report`."""
    from perfbench import offline, serving
    from perfbench.metrics import PER_LAYER

    if workload == "serve":
        report = serving.run(seed, seconds, traced, size=size, out_dir=OUT)
        shards, server_blas = 1, serving.SERVER_BLAS_THREADS
    else:
        report = offline.run(workload, seed, seconds, traced, size=size)
        shards, server_blas = 0, None
        report.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    report.context = _context(seed, shards, server_blas)
    if traced:
        # A layer this workload does not reach, or cannot see from outside
        # the server, spent no measured time here.
        for layer in PER_LAYER:
            if layer.name not in report.metrics:
                report.put(layer.name, 0.0, f"not measured on {workload}")
    return report


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False,
            ).returncode
            for workload in WORKLOADS
        ]
        return max(codes)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    text = report.render()
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.txt").write_text(text + "\n")
    print(text, flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    # Drop this file's own directory from the import path so sibling module
    # names can never shadow top-level packages; main() adds the repo root.
    sys.path.pop(0)
    sys.exit(main())
