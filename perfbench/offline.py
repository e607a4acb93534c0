"""The in-process workloads: ``learn`` and ``replicas``.

Both drive the program's public replica loop
(:meth:`repro.eval.runner.ReplicaRun.loop`) through
:class:`repro.crowd.vectorized.VectorizedPlatform` rounds, so the benchmark
can time every decision and every update itself; ``RunnerConfig.max_arrivals``
ends each loop once the timed phase's arrivals are done.  ``learn`` runs
one loop answered with the serial ``rank_tasks`` / ``observe_feedback``
calls; ``replicas`` runs eight loops answered with the lockstep
``decide_lockstep`` / ``observe_lockstep`` calls, which is what
``run_spec(..., vectorize=8)`` executes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api import DatasetSpec, ExperimentSpec, PolicySpec, build_policy, run_spec
from repro.core import vectorized
from repro.crowd.vectorized import VectorizedPlatform, partition_requests
from repro.datasets import generate_crowdspring
from repro.eval.runner import ReplicaRun, RunnerConfig

from .metrics import Report, p50, tail
from .tracing import Tracer, span_cost_s

#: Workload shapes.  "tiny" exists for the benchmark's own tests.  ``rate``
#: sizes the timed phase: it completes ``rate * --seconds`` online arrivals,
#: which takes about ``--seconds`` on a 2-core x86 box.  Fixed work keeps
#: memory, quality and counts comparable between commits; a faster commit
#: simply finishes sooner.
SHAPES = {
    "learn": {
        "full": dict(
            scale=0.1, months=3, warmup_cap=48, rate=3.0,
            policy=dict(hidden_dim=64, num_heads=4, batch_size=64, train_interval=1, dtype="float64"),
        ),
        "tiny": dict(
            scale=0.03, months=2, warmup_cap=12, rate=40.0,
            policy=dict(hidden_dim=8, num_heads=2, batch_size=8, train_interval=1, dtype="float64"),
        ),
    },
    "replicas": {
        "full": dict(
            scale=0.03, months=6, replicas=8, warmup_cap=24, rate=180.0, check_arrivals=16,
            policy=dict(hidden_dim=8, num_heads=2, batch_size=4, dtype="float32", max_tasks=12),
        ),
        "tiny": dict(
            scale=0.03, months=2, replicas=2, warmup_cap=8, rate=100.0, check_arrivals=4,
            policy=dict(hidden_dim=8, num_heads=2, batch_size=4, dtype="float32", max_tasks=12),
        ),
    },
}

#: Set-ups timed per untraced run; setup_s is their median.  They follow the
#: timed phase because a process's set-ups before it ran 25-35 % slower on
#: ``learn``, by an amount that varied with the process's history rather
#: than with the program's set-up work.
SETUPS = 4
#: Every seed replays the same trace (the CI trace seed of bench_endtoend):
#: ``--seed`` picks the policies' initialisation, exploration and replay
#: sampling and the simulated workers' behaviour.  A per-seed trace would
#: change pool sizes, and with them the work per arrival, by up to 2x.
TRACE_SEED = 7


@dataclass
class _Live:
    """One set-up workload instance, parked at its first online arrival."""

    policies: list
    platform: VectorizedPlatform
    rounds: object
    batch: list
    phases: dict = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return sum(self.phases.values())


@dataclass
class _Timed:
    """What one timed phase measured."""

    elapsed_s: float
    arrivals: int
    decision_ms: list
    update_ms: list
    permutation_errors: int
    train_steps: int
    results: list


# ---------------------------------------------------------------------- #
# Answering the loops' requests
# ---------------------------------------------------------------------- #
def _rank(workload: str, policies: list, ranks: list) -> dict:
    if workload == "replicas":
        rankings = vectorized.decide_lockstep([(policies[i], request[1]) for i, request in ranks])
        return {i: ranking for (i, _), ranking in zip(ranks, rankings)}
    return {i: policies[i].rank_tasks(request[1]) for i, request in ranks}


def _observe(workload: str, policies: list, observes: list) -> None:
    if workload == "replicas":
        vectorized.observe_lockstep([(policies[i], *request[1:]) for i, request in observes])
    else:
        for i, request in observes:
            policies[i].observe_feedback(*request[1:])


# ---------------------------------------------------------------------- #
# Set-up and the timed phase
# ---------------------------------------------------------------------- #
def _policy_seeds(shape: dict, seed: int) -> list[int]:
    count = shape.get("replicas", 1)
    return [seed * count + i for i in range(count)]


def _runner_config(shape: dict, seed: int, **overrides) -> RunnerConfig:
    return RunnerConfig(seed=seed, max_warmup_observations=shape["warmup_cap"], **overrides)


def set_up(workload: str, shape: dict, seed: int, arrivals: int) -> _Live:
    """Build trace and policies and run the warm-up month; time each phase.

    The loops stop after ``arrivals`` online arrivals in all (split evenly
    over the replicas).
    """
    started = time.perf_counter()
    dataset = generate_crowdspring(
        scale=shape["scale"], num_months=shape["months"], seed=TRACE_SEED
    )
    built = time.perf_counter()
    policies = [
        build_policy("ddqn", dataset, seed=policy_seed, **shape["policy"])
        for policy_seed in _policy_seeds(shape, seed)
    ]
    made = time.perf_counter()
    config = _runner_config(shape, seed, max_arrivals=math.ceil(arrivals / len(policies)))
    platform = VectorizedPlatform(
        [ReplicaRun(dataset, policy, config).loop() for policy in policies]
    )
    rounds = platform.rounds()
    batch = rounds.send(None)
    # Warm-up rounds hold only observe requests; the first rank request is
    # the first online arrival, where set-up ends.
    while not partition_requests(batch)[0]:
        _, observes = partition_requests(batch)
        _observe(workload, policies, observes)
        batch = rounds.send({i: None for i, _ in observes})
    ready = time.perf_counter()
    return _Live(
        policies, platform, rounds, batch,
        phases={"dataset": built - started, "policy": made - built, "warmup": ready - made},
    )


def run_timed(workload: str, live: _Live, tracer: Tracer | None = None) -> _Timed:
    """Answer online rounds until every loop has run its arrivals."""
    tracer = tracer if tracer is not None else Tracer()
    check_permutations = workload != "replicas"  # max_tasks truncates replica pools
    decision_ms: list[float] = []
    update_ms: list[float] = []
    permutation_errors = 0
    done = 0
    steps_before = _train_steps(live.policies)
    batch = live.batch
    started = finished = time.perf_counter()
    while True:
        ranks, observes = partition_requests(batch)
        responses: dict = {}
        if ranks:
            before = time.perf_counter()
            with tracer.span("decision"):
                responses.update(_rank(workload, live.policies, ranks))
            decision_ms.append(1e3 * (time.perf_counter() - before))
            if check_permutations:
                for i, request in ranks:
                    if sorted(responses[i]) != sorted(request[1].task_ids):
                        permutation_errors += 1
        if observes:
            before = time.perf_counter()
            with tracer.span("update"):
                _observe(workload, live.policies, observes)
            update_ms.append(1e3 * (time.perf_counter() - before))
            responses.update({i: None for i, _ in observes})
            done += len(observes)
            finished = time.perf_counter()
        try:
            batch = live.rounds.send(responses)
        except StopIteration:
            break
    return _Timed(
        elapsed_s=finished - started,
        arrivals=done,
        decision_ms=decision_ms,
        update_ms=update_ms,
        permutation_errors=permutation_errors,
        train_steps=_train_steps(live.policies) - steps_before,
        results=list(live.platform.results),
    )


# ---------------------------------------------------------------------- #
# Correctness checks
# ---------------------------------------------------------------------- #
def _agents(policies: list) -> list:
    return [
        agent
        for policy in policies
        for agent in (policy.agent_w, policy.agent_r)
        if agent is not None
    ]


def _train_steps(policies: list) -> int:
    return sum(agent.diagnostics.train_steps for agent in _agents(policies))


def expected_train_steps(agent) -> int:
    """Train steps the agent's cadence dictates for its observations so far."""
    config = agent.config
    return sum(
        1
        for k in range(1, agent.diagnostics.observations + 1)
        if k % config.train_interval == 0
        and min(k, config.buffer_size) >= config.min_buffer_before_training
    )


def check_learning(report: Report, policies: list) -> None:
    """Train-step counters match the cadence; Q-values and losses are finite."""
    mismatched = []
    not_finite = []
    for index, agent in enumerate(_agents(policies)):
        expected = expected_train_steps(agent)
        stored = min(agent.diagnostics.observations, agent.config.buffer_size)
        if agent.diagnostics.train_steps != expected or len(agent.memory) != stored:
            mismatched.append(
                f"agent {index}: {agent.diagnostics.train_steps} steps, cadence says {expected}"
            )
        transitions, _, _ = agent.memory.sample(8)
        q_values = [agent.q_values(transition.state) for transition in transitions]
        if not np.isfinite(agent.diagnostics.losses).all() or not all(
            np.isfinite(values).all() for values in q_values
        ):
            not_finite.append(f"agent {index}")
    steps = _train_steps(policies)
    report.check("train_steps", not mismatched, "; ".join(mismatched) or f"{steps} steps as dictated")
    report.check("finite", not not_finite, ", ".join(not_finite) or "Q-values and losses finite")


def check_lockstep_equals_serial(report: Report, shape: dict, seed: int) -> None:
    """Untimed pass: run_spec(vectorize=N) results equal the serial runs."""
    spec = ExperimentSpec(
        name="replicas-check",
        dataset=DatasetSpec(scale=shape["scale"], num_months=shape["months"], seed=TRACE_SEED),
        runner=_runner_config(shape, seed, max_arrivals=shape["check_arrivals"]),
        policies=[
            PolicySpec("ddqn", kwargs=dict(shape["policy"], seed=policy_seed), label=f"r{i}")
            for i, policy_seed in enumerate(_policy_seeds(shape, seed))
        ],
    )
    lockstep = run_spec(spec, vectorize=shape["replicas"])
    serial = run_spec(spec)

    def measures(result):
        return (
            result.arrivals, result.completions, result.cr, result.kcr,
            result.ndcg_cr, result.qg, result.kqg, result.ndcg_qg,
        )

    differing = [label for label in serial if measures(serial[label]) != measures(lockstep[label])]
    report.check(
        "lockstep_equals_serial",
        not differing,
        f"replicas {differing} differ" if differing else f"{len(serial)} replicas identical",
    )


# ---------------------------------------------------------------------- #
# Tracing
# ---------------------------------------------------------------------- #
def _transform_probe(tracer, args, kwargs) -> None:
    transformer, task_ids = args[0], (args[3] if len(args) > 3 else kwargs["task_ids"])
    tracer.counts["state_rows"] += transformer.max_tasks or len(task_ids)
    tracer.counts["states"] += 1


def instrument(tracer: Tracer) -> None:
    """Wrap the public calls into each layer (restored by ``tracer.restore``)."""
    from repro.core.learner import DoubleDQNLearner
    from repro.core.predictor import FutureStatePredictorR, FutureStatePredictorW
    from repro.core.qnetwork import SetQNetwork
    from repro.core.replay import PrioritizedReplayMemory
    from repro.core.state import StateTransformer
    from repro.nn.optim import Optimizer
    from repro.nn.tensor import Tensor

    # The target network of the learner whose targets are being computed:
    # its batched forwards are the branch targets the memo did not serve.
    current = {"target": None}

    def targets_probe(tracer, args, kwargs) -> None:
        learner, transitions = args[0], args[1]
        current["target"] = learner.target
        tracer.counts["target_calls"] += 1
        tracer.counts["branches"] += sum(
            1 for t in transitions for _, state in t.future_states if state.num_tasks
        )

    def forward_batch_probe(tracer, args, kwargs) -> None:
        network, states = args[0], args[1]
        rows = max(state.matrix.shape[0] for state in states)
        tracer.counts["batch_rows"] += rows * len(states)
        tracer.counts["real_rows"] += sum(state.num_tasks for state in states)
        if network is current["target"]:
            tracer.counts["target_misses"] += len(states)

    def fusion_probe(tracer, args, kwargs) -> None:
        tracer.counts["fused"] += len(args[0])

    tracer.wrap(StateTransformer, "transform", "transform", probe=_transform_probe)
    tracer.wrap(SetQNetwork, "q_values", "q_values")
    tracer.wrap(SetQNetwork, "forward_batch", "forward_batch", probe=forward_batch_probe)
    tracer.wrap(DoubleDQNLearner, "train_step", "train_step", keep_sample=True)
    tracer.wrap(DoubleDQNLearner, "td_targets_batch", "targets", probe=targets_probe)
    tracer.wrap(Tensor, "backward", "backward")
    tracer.wrap(Optimizer, "clip_grad_norm_", "optim")
    tracer.wrap(Optimizer, "step", "optim")
    tracer.wrap(PrioritizedReplayMemory, "sample", "sample")
    tracer.wrap(PrioritizedReplayMemory, "update_priorities", "priorities")
    tracer.wrap(PrioritizedReplayMemory, "push", "push")
    tracer.wrap(FutureStatePredictorW, "predict", "predict")
    tracer.wrap(FutureStatePredictorR, "predict", "predict")
    tracer.wrap(vectorized, "decide_lockstep", "decide_round", probe=fusion_probe)
    tracer.wrap(vectorized, "observe_lockstep", "observe_round")


#: The parts of the traced update time (ms per arrival), by span.
UPDATE_PARTS = (
    ("targets", ("targets",)),
    ("forward", ("forward_batch",)),
    ("backward", ("backward",)),
    ("optimiser", ("optim",)),
    ("replay", ("sample", "priorities", "push")),
    ("predictor", ("predict",)),
)


def layer_metrics(
    workload: str, report: Report, tracer: Tracer, timed: _Timed, untraced_s: float
) -> None:
    """Per-layer metrics of one traced timed phase (``*_ms`` are per arrival)."""
    arrivals = max(timed.arrivals, 1)
    counts = tracer.counts

    def per_arrival(*names: str) -> float:
        return tracer.self_ms(*names) / arrivals

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    wall_ms = 1e3 * timed.elapsed_s
    top_ms = 1e3 * (tracer.total_s["decision"] + tracer.total_s["update"])
    report.put("core.state.transform_ms", per_arrival("transform"))
    report.put("core.state.rows.mean", ratio(counts["state_rows"], counts["states"]))
    report.put("core.qnetwork.infer_ms", per_arrival("q_values"))
    # rank_tasks outside state building and scoring: aggregator, explorer, argsort.
    report.put("core.framework.decide_other_ms", per_arrival("decision"))
    report.put("eval.runner.self_ms", (wall_ms - top_ms) / arrivals)
    report.put("core.learner.train_steps", timed.train_steps, "diagnostics.train_steps delta")
    steps_ms = [1e3 * sample for sample in tracer.samples["train_step"]]
    if steps_ms:
        value, percentile, count = tail(steps_ms)
        report.put("core.learner.train_step_ms.p50", p50(steps_ms), f"{count} steps")
        report.put("core.learner.train_step_ms.tail", value, f"p{percentile:.2f} of {count} steps")
    report.put("core.learner.targets_ms", per_arrival("targets"))
    report.put("core.learner.branches_per_step", ratio(counts["branches"], counts["target_calls"]))
    if counts["branches"]:
        report.put(
            "core.learner.target_cache_hit", 1.0 - counts["target_misses"] / counts["branches"]
        )
    report.put("core.qnetwork.forward_batch_ms", per_arrival("forward_batch"))
    if counts["batch_rows"]:
        report.put("core.qnetwork.padded_share", 1.0 - counts["real_rows"] / counts["batch_rows"])
    report.put("nn.tensor.backward_ms", per_arrival("backward"))
    report.put("nn.optim.step_ms", per_arrival("optim"))
    report.put("core.replay.sample_ms", per_arrival("sample"))
    report.put("core.replay.priorities_ms", per_arrival("priorities"))
    report.put("core.replay.push_ms", per_arrival("push"))
    report.put("core.predictor.predict_ms", per_arrival("predict"))
    for name, span in (("decide_round_ms", "decide_round"), ("observe_round_ms", "observe_round")):
        report.put(f"core.vectorized.{name}", ratio(1e3 * tracer.total_s[span], tracer.calls[span]))
    report.put("core.vectorized.fusion_width", ratio(counts["fused"], tracer.calls["decide_round"]))
    report.put(
        "trace.overhead",
        ratio(timed.elapsed_s, untraced_s) - 1.0,
        f"{timed.arrivals} arrivals traced and untraced",
    )
    spans = sum(tracer.calls.values())
    cost_s = span_cost_s()
    report.lines.append(
        f"span cost {1e6 * cost_s:.2f} us x {spans} spans = "
        f"{100 * spans * cost_s / timed.elapsed_s:.2f} % of the traced wall time "
        "(the wall-clock overhead above also carries the box's run-to-run drift)"
    )
    # Update time no layer claims: observe_feedback and train_step glue.
    unattributed_ms = per_arrival("update", "train_step")
    report.put("trace.unattributed_share", ratio(unattributed_ms, wall_ms / arrivals))
    if workload == "learn":
        update_ms = 1e3 * tracer.total_s["update"] / arrivals
        parts = {part: per_arrival(*spans) for part, spans in UPDATE_PARTS}
        parts["unattributed"] = update_ms - sum(parts.values())
        report.lines.append(f"traced update_ms {update_ms:.3f} per arrival, made of:")
        for part, value in parts.items():
            report.lines.append(f"  {part:12s} {value:10.3f} ms  {100 * value / update_ms:5.1f} %")


# ---------------------------------------------------------------------- #
# The workloads
# ---------------------------------------------------------------------- #
def run(workload: str, seed: int, seconds: float, traced: bool, size: str = "full") -> Report:
    """Run one offline workload and return its report."""
    shape = SHAPES[workload][size]
    report = Report(workload=workload, seed=seed, traced=traced)
    if traced:
        _run_traced(workload, shape, seed, seconds, report)
    else:
        _run_untraced(workload, shape, seed, seconds, report)
    return report


def _run_untraced(workload: str, shape: dict, seed: int, seconds: float, report: Report) -> None:
    arrivals = math.ceil(shape["rate"] * seconds)
    live = set_up(workload, shape, seed, arrivals)
    first_s = live.setup_s
    timed = run_timed(workload, live)
    report.attempted = timed.arrivals
    report.put(
        "arrivals_per_s",
        timed.arrivals / timed.elapsed_s,
        f"{timed.arrivals} arrivals in {timed.elapsed_s:.2f} s",
    )
    report.put_samples("decision_ms", timed.decision_ms)
    report.put_samples("update_ms", timed.update_ms)
    report.put("failed_share", 0.0, f"0 of {timed.arrivals}")
    results = [result for result in timed.results if result is not None]
    report.put("ndcg_cr", float(np.mean([r.ndcg_cr.final for r in results])), f"mean of {len(results)}")
    report.put("ndcg_qg", float(np.mean([r.ndcg_qg.final for r in results])), f"mean of {len(results)}")
    _checks(workload, shape, seed, live, timed, report)
    live = None
    setups = [set_up(workload, shape, seed, arrivals).setup_s for _ in range(SETUPS)]
    report.put(
        "setup_s",
        p50(setups),
        f"median of {len(setups)}: " + " ".join(f"{s:.3f}" for s in setups)
        + f"; the process's first set-up took {first_s:.3f}",
    )


def _run_traced(workload: str, shape: dict, seed: int, seconds: float, report: Report) -> None:
    # Three identical set-ups: a warm pass absorbs the process's one-time
    # costs (first allocations of each array shape), then the traced pass,
    # then an untraced pass over the very same arrivals for the overhead.
    arrivals = math.ceil(shape["rate"] * seconds / 2)
    run_timed(workload, set_up(workload, shape, seed, math.ceil(arrivals / 2)))
    live = set_up(workload, shape, seed, arrivals)
    report.put("datasets.build_s", live.phases["dataset"])
    report.put("core.framework.init_s", live.phases["policy"])
    report.put("eval.runner.warmup_s", live.phases["warmup"])
    tracer = Tracer()
    instrument(tracer)
    tracer.active = True
    try:
        timed = run_timed(workload, live, tracer)
    finally:
        tracer.active = False
        tracer.restore()
    reference = run_timed(workload, set_up(workload, shape, seed, arrivals))
    report.attempted = timed.arrivals
    layer_metrics(workload, report, tracer, timed, reference.elapsed_s)
    _checks(workload, shape, seed, live, timed, report, lockstep_pass=False)


def _checks(workload, shape, seed, live, timed, report, lockstep_pass: bool = True) -> None:
    report.check(
        "rankings_are_permutations",
        timed.permutation_errors == 0,
        f"{timed.permutation_errors} bad rankings" if timed.permutation_errors else "",
    )
    check_learning(report, live.policies)
    if workload == "replicas" and lockstep_pass:
        check_lockstep_equals_serial(report, shape, seed)
