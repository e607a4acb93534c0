"""Steady-state train steps reuse their memory instead of re-faulting it.

A learn-shape step (hidden 64, batch 64, float64, ~15-row states, ~144
branches per batch) frees tens of megabytes of temporaries.  Before the heap
top pad that ``repro.nn.threads`` applies at import, and before gradient
buffers were adopted rather than copied, a worker thread faulted them back
in every step (~2,900 minor faults per step); now a steady-state step takes
a handful, on the main thread and on a worker thread, which allocates from
its own glibc arena as the async trainer does.  At this fixed shape the
copy-free accumulation alone stays within budget; the pad's share shows on
the ``learn`` workload, whose batch shapes vary from step to step (README
"Performance").

Each case runs in a fresh interpreter, as the ``learn`` workload does: fault
counts are per process, and how well freed memory can be reused depends on
what the process allocated before.  In this suite's own process, after the
benchmark reproductions have fragmented its heap, a main-thread step still
took ~4,800 faults.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.nn import threads

#: Minor faults a steady-state learn-shape step may take.
FAULT_BUDGET = 100

MEASURE = """
import sys, threading
from benchmarks.perf.bench_engine import BenchConfig, build_learner, make_schema, minor_faults
from repro.core import StateTransformer

schema = make_schema()
learner, memory = build_learner(BenchConfig.learn(), schema, StateTransformer(schema))
measured = []

def steps():
    for _ in range(5):
        learner.train_step(memory)
    before = minor_faults()
    for _ in range(20):
        learner.train_step(memory)
    measured.append((minor_faults() - before) / 20)

if sys.argv[1] == "worker":
    worker = threading.Thread(target=steps)
    worker.start()
    worker.join()
else:
    steps()
print(measured[0])
"""


@pytest.mark.skipif(
    threads.thread_info()["heap_top_pad"] is None, reason="glibc mallopt unavailable"
)
@pytest.mark.parametrize("thread", ["main", "worker"])
def test_steady_state_learn_shape_step_stays_within_fault_budget(thread):
    run = subprocess.run(
        [sys.executable, "-c", MEASURE, thread],
        cwd=Path(__file__).resolve().parents[2],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) < FAULT_BUDGET
