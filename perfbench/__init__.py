"""The repository benchmark: three named workloads over the task-arrangement engine.

Run one workload from the repository root::

    python3 perfbench/run.py --workload learn --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric by name with its unit;
``--trace 1`` re-runs the same work with spans around the public calls into
each layer and prints the per-layer metrics plus the tracing overhead.  The
last stdout line is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); a failed correctness check exits non-zero.  ``BENCHMARK.json``
at the repository root lists the workloads and the metrics with their bounds,
and :mod:`perfbench.metrics` records which end-to-end metric each per-layer
metric should move, on which workload.

Everything the benchmark writes lands under ``perfbench/out/``.
"""
