"""Microbenchmark harness for the batched tensor engine.

Times the hot paths that the batched engine and the fused-kernel work
rewrote — Q-network forward, the prioritized-replay ops, the fused QKV
projection and the flat-buffer Adam — *before* (per-sample / unfused
reference implementations) and *after* (batched / fused paths), plus the
Double-DQN ``train_step`` alone in ms/step, once on the small fixture below
and once at the ``learn`` workload's shape (``train_step_learn``, with its
minor page faults per step), and writes the timings to
``BENCH_engine.json``.  A ``--dtype`` axis additionally reruns the
forward/train_step benchmarks per precision, so the report records the
float32-vs-float64 speedup of the compute core.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_engine            # full run
    PYTHONPATH=src python -m benchmarks.perf.bench_engine --quick    # tiny shapes
    PYTHONPATH=src python -m benchmarks.perf.bench_engine --dtype float32

The full configuration mirrors the paper's training setup (hidden width 128,
batch size 64, the framework's default 2-4 future-state branches per
transition and CI-scale task pools); ``--quick`` shrinks every dimension so
the harness doubles as a CI smoke test.  All timings are the minimum over
``repeats`` runs after a warm-up, which makes the numbers robust to noisy
shared machines.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core import (
    DoubleDQNLearner,
    PrioritizedReplayMemory,
    SetQNetwork,
    StateTransformer,
    SumTree,
    Transition,
)
from repro.crowd import FeatureSchema
from repro.nn import Adam, Tensor
from repro.nn import threads as nn_threads

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "BENCH_engine.json"

#: Precisions the --dtype axis accepts.
DTYPE_CHOICES = ("float64", "float32")


@dataclass
class BenchConfig:
    """Shapes and repeat counts for one harness run."""

    hidden_dim: int = 128
    num_heads: int = 4
    batch_size: int = 64
    memory_size: int = 200
    pool_min: int = 3
    pool_max: int = 6
    #: Future-state branch counts each transition draws from, uniformly.
    branches: tuple[int, ...] = (2, 3, 4)
    forward_states: int = 64
    tree_capacity: int = 1024
    tree_updates: int = 512
    warmup: int = 3
    repeats: int = 10
    repeats_slow: int = 4

    @classmethod
    def quick(cls) -> "BenchConfig":
        return cls(
            hidden_dim=32,
            num_heads=2,
            batch_size=8,
            memory_size=30,
            pool_min=2,
            pool_max=4,
            branches=(2,),
            forward_states=8,
            tree_capacity=64,
            tree_updates=32,
            warmup=1,
            repeats=3,
            repeats_slow=2,
        )

    @classmethod
    def learn(cls) -> "BenchConfig":
        """The shape the ``learn`` workload trains at, in both modes.

        A traced ``perfbench/run.py --workload learn`` run reads 15.2 rows
        per state and 144.1 non-empty branches per step; here states hold
        10-20 rows (mean 15) and transitions 2 or 3 branches (mean 2.25,
        144 per batch of 64).  Five warm-up steps reach the steady state
        the fault count is read in.
        """
        return cls(
            hidden_dim=64,
            batch_size=64,
            pool_min=10,
            pool_max=20,
            branches=(2, 2, 2, 3),
            warmup=5,
            repeats=10,
        )


def _timeit(fn, repeats: int, warmup: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` after ``warmup`` calls."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def make_schema() -> FeatureSchema:
    return FeatureSchema(num_categories=4, num_domains=3, award_bins=(100.0, 300.0))


def random_state(schema, transformer, num_tasks: int, seed: int):
    rng = np.random.default_rng(seed)
    worker = rng.dirichlet(np.ones(schema.worker_dim))
    tasks = np.zeros((num_tasks, schema.task_dim))
    for row in range(num_tasks):
        tasks[row, rng.integers(0, schema.num_categories)] = 1.0
        tasks[row, schema.num_categories + rng.integers(0, schema.num_domains)] = 1.0
    return transformer.transform(worker, tasks, list(range(num_tasks)))


def build_learner(config: BenchConfig, schema, transformer, dtype: str = "float64"):
    """A learner plus a filled prioritized memory with branchy transitions."""
    network = SetQNetwork(
        transformer.row_dim,
        hidden_dim=config.hidden_dim,
        num_heads=config.num_heads,
        seed=3,
        dtype=dtype,
    )
    learner = DoubleDQNLearner(
        network, gamma=0.5, batch_size=config.batch_size, target_sync_interval=100
    )
    memory = PrioritizedReplayMemory(capacity=1_000, seed=7)
    rng = np.random.default_rng(1)
    for i in range(config.memory_size):
        state = random_state(
            schema, transformer, int(rng.integers(config.pool_min, config.pool_max + 1)), 100 + i
        )
        branches = int(rng.choice(config.branches))
        futures = [
            (
                1.0 / branches,
                random_state(
                    schema,
                    transformer,
                    int(rng.integers(config.pool_min, config.pool_max + 1)),
                    1_000 + 10 * i + b,
                ),
            )
            for b in range(branches)
        ]
        memory.push(
            Transition(
                state=state,
                action_index=int(rng.integers(0, state.num_tasks)),
                reward=float(rng.random()),
                future_states=futures,
            )
        )
    return learner, memory


def minor_faults() -> int:
    """Minor page faults this process has taken so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


# --------------------------------------------------------------------- #
# Individual benchmarks: each returns (before_seconds, after_seconds),
# except the train_step rows (per step).
# --------------------------------------------------------------------- #
def bench_forward(
    config: BenchConfig, schema, transformer, dtype: str = "float64"
) -> tuple[float, float]:
    """Per-state ``q_values`` loop vs one ``q_values_batch`` call."""
    network = SetQNetwork(
        transformer.row_dim,
        hidden_dim=config.hidden_dim,
        num_heads=config.num_heads,
        seed=0,
        dtype=dtype,
    )
    rng = np.random.default_rng(0)
    states = [
        random_state(
            schema, transformer, int(rng.integers(config.pool_min, config.pool_max + 1)), s
        )
        for s in range(config.forward_states)
    ]

    def before():
        return [network.q_values(state) for state in states]

    def after():
        return network.q_values_batch(states)

    return (
        _timeit(before, config.repeats_slow, 1),
        _timeit(after, config.repeats, config.warmup),
    )


def bench_train_step(
    config: BenchConfig, schema, transformer, dtype: str = "float64"
) -> float:
    """Milliseconds per batched ``train_step``.

    The learner is warmed so the timing reflects steady state (target caches
    populated, as during real training between hard syncs).
    """
    learner, memory = build_learner(config, schema, transformer, dtype)
    return 1e3 * _timeit(lambda: learner.train_step(memory), config.repeats, config.warmup)


def bench_train_step_learn(schema, transformer) -> dict:
    """``train_step`` at the learn workload's shape: ms and minor faults per step.

    Faults are counted over the timed steps after the warm-up; a step that
    reuses its memory takes next to none (see README "Performance").
    """
    config = BenchConfig.learn()
    learner, memory = build_learner(config, schema, transformer)
    for _ in range(config.warmup):
        learner.train_step(memory)
    faults = minor_faults()
    seconds = _timeit(lambda: learner.train_step(memory), config.repeats, 0)
    return {
        "ms_per_step": 1e3 * seconds,
        "minflt_per_step": (minor_faults() - faults) / config.repeats,
        "shape": {
            "hidden_dim": config.hidden_dim,
            "batch_size": config.batch_size,
            "rows": [config.pool_min, config.pool_max],
            "branches": list(config.branches),
        },
    }


def bench_qkv_fused(config: BenchConfig, dtype: str = "float64") -> tuple[float, float]:
    """PR-1's three-projection attention forward+backward vs the fused layer.

    The reference replicates the unfused data path exactly — three separate
    ``(·, E) @ (E, E)`` projections (weights are copies of the fused
    parameter's column blocks) followed by the same head-split attention —
    while the fused layer launches one ``(·, E) @ (E, 3E)`` GEMM and peels
    Q/K/V off a packed view with :meth:`Tensor.unbind` (cheap backward, no
    per-projection copies).
    """
    from repro.nn import MultiHeadSelfAttention, scaled_dot_product_attention
    from repro.nn.layers import Parameter

    embed = config.hidden_dim
    heads = config.num_heads
    head_dim = embed // heads
    layer = MultiHeadSelfAttention(embed, heads, rng=np.random.default_rng(0), dtype=dtype)
    rng = np.random.default_rng(1)
    batch = (config.batch_size, config.pool_max, embed)
    x = rng.standard_normal(batch).astype(layer.in_proj_weight.data.dtype)
    fused_w, fused_b = layer.in_proj_weight, layer.in_proj_bias
    split_params = [
        (
            Parameter(fused_w.data[:, i * embed : (i + 1) * embed].copy()),
            Parameter(fused_b.data[i * embed : (i + 1) * embed].copy()),
        )
        for i in range(3)
    ]
    rows = config.pool_max
    split_axes = (0, 2, 1, 3)

    def before():
        inputs = Tensor(x).reshape((-1, embed))
        projected = [inputs @ w + b for w, b in split_params]
        q, k, v = (
            t.reshape((config.batch_size, rows, heads, head_dim)).transpose(split_axes)
            for t in projected
        )
        attended = scaled_dot_product_attention(q, k, v)
        merged = attended.transpose(split_axes).reshape((config.batch_size, rows, embed))
        loss = layer.output_proj(merged).sum()
        layer.zero_grad()
        for w, b in split_params:
            w.zero_grad()
            b.zero_grad()
        loss.backward()

    def after():
        loss = layer(Tensor(x)).sum()
        layer.zero_grad()
        loss.backward()

    return (
        _timeit(before, config.repeats, config.warmup),
        _timeit(after, config.repeats, config.warmup),
    )


def bench_adam_flat(
    config: BenchConfig, schema, transformer, dtype: str = "float64"
) -> tuple[float, float]:
    """The old per-parameter Adam engine vs the fused flat-buffer pass.

    Both sides update the parameters of an identically initialised Q-network
    from identical gradient values, *including how gradients arrive*: the
    reference allocates a fresh per-parameter gradient buffer per step (what
    the old autograd accumulation did) and runs the pre-flat-buffer 14-loop
    update verbatim; the flat path writes into the optimiser's preassigned
    flat-gradient views (what ``backward`` now does) and runs one fused pass.
    """

    def make_network():
        network = SetQNetwork(
            transformer.row_dim,
            hidden_dim=config.hidden_dim,
            num_heads=config.num_heads,
            seed=5,
            dtype=dtype,
        )
        params = list(network.parameters())
        rng = np.random.default_rng(9)
        grads = [
            rng.standard_normal(p.data.shape).astype(p.data.dtype) for p in params
        ]
        return params, grads

    params_flat, grads_flat = make_network()
    optimizer = Adam(params_flat, lr=1e-3)

    def after():
        for param, grad in zip(params_flat, grads_flat):
            # What _accumulate does in steady state: copy into the
            # preassigned flat-gradient view (no allocation).
            np.copyto(param._grad_view, grad)
            param.grad = param._grad_view
        optimizer.step()

    params_ref, grads_ref = make_network()
    first_moment = [np.zeros_like(p.data) for p in params_ref]
    second_moment = [np.zeros_like(p.data) for p in params_ref]
    step_count = [0]
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 1e-3

    def before():
        step_count[0] += 1
        bias_correction1 = 1.0 - beta1 ** step_count[0]
        bias_correction2 = 1.0 - beta2 ** step_count[0]
        for param, grad, m, v in zip(params_ref, grads_ref, first_moment, second_moment):
            grad = np.array(grad, copy=True)  # the old per-backward allocation
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            m_hat = m / bias_correction1
            v_hat = v / bias_correction2
            param.data = param.data - lr * m_hat / (np.sqrt(v_hat) + eps)

    return (
        _timeit(before, config.repeats, config.warmup),
        _timeit(after, config.repeats, config.warmup),
    )


def bench_replay_update(config: BenchConfig) -> tuple[float, float]:
    """Scalar ``SumTree.update`` loop vs one ``update_batch`` call."""
    rng = np.random.default_rng(0)
    indices = rng.integers(0, config.tree_capacity, size=config.tree_updates)
    priorities = rng.random(config.tree_updates) * 5.0
    tree_before = SumTree(config.tree_capacity)
    tree_after = SumTree(config.tree_capacity)

    def before():
        for index, priority in zip(indices, priorities):
            tree_before.update(int(index), float(priority))

    def after():
        tree_after.update_batch(indices, priorities)

    return (
        _timeit(before, config.repeats, config.warmup),
        _timeit(after, config.repeats, config.warmup),
    )


def bench_replay_sample(config: BenchConfig, schema, transformer) -> tuple[float, float]:
    """The seed's per-slot sampling loop vs the vectorized ``sample``."""
    _, memory_before = build_learner(config, schema, transformer)
    _, memory_after = build_learner(config, schema, transformer)

    def before():
        # Faithful reimplementation of the seed per-slot loop.
        memory = memory_before
        count = min(config.batch_size, len(memory))
        total = memory._tree.total
        segment = total / count
        indices = np.empty(count, dtype=np.int64)
        priorities = np.empty(count, dtype=np.float64)
        for slot in range(count):
            target = memory.rng.uniform(slot * segment, (slot + 1) * segment)
            index = min(memory._tree.find(target), len(memory) - 1)
            indices[slot] = index
            priorities[slot] = max(memory._tree.get(index), 1e-12)
        probabilities = priorities / total
        weights = (len(memory) * probabilities) ** (-memory.beta)
        weights /= weights.max()
        return [memory._storage[int(i)] for i in indices], indices, weights

    def after():
        return memory_after.sample(config.batch_size)

    return (
        _timeit(before, config.repeats, config.warmup),
        _timeit(after, config.repeats, config.warmup),
    )


# --------------------------------------------------------------------- #
def bench_dtype_axis(config: BenchConfig, schema, transformer, dtypes: list[str]) -> dict:
    """Batched forward / train_step timings per precision.

    Only the *after* (batched) paths are retimed per dtype — the slow
    reference paths would double the harness runtime without adding
    information.  When both precisions run, the float32-vs-float64 speedup is
    recorded explicitly.
    """
    per_dtype: dict[str, dict[str, float]] = {}
    for dtype in dtypes:
        network = SetQNetwork(
            transformer.row_dim,
            hidden_dim=config.hidden_dim,
            num_heads=config.num_heads,
            seed=0,
            dtype=dtype,
        )
        rng = np.random.default_rng(0)
        states = [
            random_state(
                schema, transformer, int(rng.integers(config.pool_min, config.pool_max + 1)), s
            )
            for s in range(config.forward_states)
        ]
        forward_s = _timeit(
            lambda: network.q_values_batch(states), config.repeats, config.warmup
        )
        learner, memory = build_learner(config, schema, transformer, dtype)
        train_s = _timeit(lambda: learner.train_step(memory), config.repeats, config.warmup)
        per_dtype[dtype] = {"forward_s": forward_s, "train_step_s": train_s}
    report: dict = {"per_dtype": per_dtype}
    if "float64" in per_dtype and "float32" in per_dtype:
        report["float32_speedup"] = {
            metric: per_dtype["float64"][f"{metric}_s"] / per_dtype["float32"][f"{metric}_s"]
            for metric in ("forward", "train_step")
        }
    return report


def run(config: BenchConfig, dtypes: list[str] | None = None) -> dict:
    schema = make_schema()
    transformer = StateTransformer(schema)
    dtypes = list(dtypes) if dtypes else ["float64"]

    results: dict[str, dict] = {
        "train_step": {"ms_per_step": bench_train_step(config, schema, transformer)},
        "train_step_learn": bench_train_step_learn(schema, transformer),
    }
    for name, runner in (
        ("forward", lambda: bench_forward(config, schema, transformer)),
        ("qkv_fused", lambda: bench_qkv_fused(config)),
        ("adam_flat", lambda: bench_adam_flat(config, schema, transformer)),
        ("replay_update", lambda: bench_replay_update(config)),
        ("replay_sample", lambda: bench_replay_sample(config, schema, transformer)),
    ):
        before, after = runner()
        results[name] = {
            "before_s": before,
            "after_s": after,
            "speedup": before / after if after > 0 else float("inf"),
        }

    return {
        "benchmark": "batched tensor engine",
        "config": asdict(config),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "threads": nn_threads.thread_info(),
        },
        "results": results,
        "dtypes": bench_dtype_axis(config, schema, transformer, dtypes),
    }


def render(report: dict) -> str:
    lines = [f"{'op':<16} {'before':>12} {'after':>12} {'speedup':>9}"]
    for name, entry in report["results"].items():
        if "ms_per_step" in entry:
            faults = entry.get("minflt_per_step")
            note = "" if faults is None else f"  {faults:.0f} minor faults/step"
            lines.append(
                f"{name:<16} {'':>12} {entry['ms_per_step']:>10.2f}ms   ms/step{note}"
            )
            continue
        lines.append(
            f"{name:<16} {entry['before_s'] * 1e3:>10.2f}ms {entry['after_s'] * 1e3:>10.2f}ms "
            f"{entry['speedup']:>8.1f}x"
        )
    dtypes = report.get("dtypes", {})
    per_dtype = dtypes.get("per_dtype", {})
    if per_dtype:
        lines.append("")
        lines.append(f"{'dtype':<10} {'forward':>12} {'train_step':>12}")
        for dtype, entry in per_dtype.items():
            lines.append(
                f"{dtype:<10} {entry['forward_s'] * 1e3:>10.2f}ms "
                f"{entry['train_step_s'] * 1e3:>10.2f}ms"
            )
        speedup = dtypes.get("float32_speedup")
        if speedup:
            lines.append(
                "float32 speedup vs float64: "
                + ", ".join(f"{k} {v:.2f}x" for k, v in speedup.items())
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--quick", action="store_true", help="tiny shapes (CI smoke run, seconds not minutes)"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--dtype",
        nargs="+",
        choices=DTYPE_CHOICES,
        default=list(DTYPE_CHOICES),
        help="precisions for the per-dtype forward/train_step axis "
        "(default: both, so the report records the float32 speedup)",
    )
    args = parser.parse_args(argv)

    config = BenchConfig.quick() if args.quick else BenchConfig()
    report = run(config, dtypes=args.dtype)
    report["mode"] = "quick" if args.quick else "full"
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(render(report))
    print(f"\nwrote {args.output}")
    return report


if __name__ == "__main__":
    main()
