"""One entry point per paper table / figure.

Each function builds a declarative :class:`repro.api.ExperimentSpec` (every
policy is constructed through the registry — no baseline is imported here),
executes it through :func:`repro.api.run_spec` and returns a structured
result object that both the benchmark harness and the examples print.  The
functions accept a ``scale`` (fraction of the paper's full CrowdSpring
volume) and ``num_months`` so that CI runs stay fast while full-scale
reproductions remain a single call away.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..api.registry import build_policy
from ..api.spec import DatasetSpec, ExperimentSpec, PolicySpec, run_spec
from ..api.sweep import SweepAxis, SweepSpec
from ..core import FrameworkConfig
from ..core.interfaces import ArrangementPolicy
from ..crowd.entities import MINUTES_PER_DAY, Worker
from ..crowd.platform import ArrivalContext
from ..datasets import (
    CrowdDataset,
    add_worker_quality_noise,
    compute_arrival_gaps,
    compute_monthly_statistics,
    generate_crowdspring,
    resample_arrival_density,
    scalability_snapshot,
)
from .metrics import EvaluationResult
from .runner import RunnerConfig

__all__ = [
    "ExperimentScale",
    "benchmark_framework_config",
    "framework_kwargs",
    "make_dataset",
    "worker_benefit_spec",
    "requester_benefit_spec",
    "balance_spec",
    "efficiency_spec",
    "density_spec",
    "balance_sweep_spec",
    "density_sweep_spec",
    "train_interval_sweep_spec",
    "worker_benefit_policies",
    "requester_benefit_policies",
    "run_worker_benefit_experiment",
    "run_requester_benefit_experiment",
    "run_balance_experiment",
    "run_efficiency_experiment",
    "run_arrival_density_experiment",
    "run_quality_noise_experiment",
    "run_scalability_experiment",
    "run_trace_statistics",
    "BenefitExperimentResult",
    "BalanceExperimentResult",
    "EfficiencyResult",
    "ScalabilityResult",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Scaling knobs shared by the experiment entry points.

    ``paper()`` reproduces the full 13-month, full-volume setting; ``ci()``
    is the scaled-down configuration used by the benchmark suite (recorded in
    EXPERIMENTS.md together with the resulting numbers).
    """

    scale: float = 1.0
    num_months: int = 13
    hidden_dim: int = 128
    num_heads: int = 4
    batch_size: int = 64
    train_interval: int = 1
    learning_rate: float = 1e-3
    perturb_probability: float = 0.1
    max_arrivals: int | None = None
    seed: int = 7

    @classmethod
    def paper(cls) -> "ExperimentScale":
        return cls()

    @classmethod
    def ci(cls) -> "ExperimentScale":
        return cls(
            scale=0.06,
            num_months=5,
            hidden_dim=32,
            num_heads=2,
            batch_size=12,
            train_interval=2,
            learning_rate=3e-3,
            perturb_probability=0.05,
            max_arrivals=900,
        )


def make_dataset(scale: ExperimentScale) -> CrowdDataset:
    """Generate the CrowdSpring-like dataset for the given scale."""
    return generate_crowdspring(scale=scale.scale, num_months=scale.num_months, seed=scale.seed)


def framework_kwargs(scale: ExperimentScale, **overrides) -> dict:
    """Registry kwargs for the DDQN builders, matched to the experiment scale."""
    kwargs = dict(
        hidden_dim=scale.hidden_dim,
        num_heads=scale.num_heads,
        batch_size=scale.batch_size,
        train_interval=scale.train_interval,
        learning_rate=scale.learning_rate,
        perturb_probability=scale.perturb_probability,
        seed=scale.seed,
    )
    kwargs.update(overrides)
    return kwargs


def benchmark_framework_config(scale: ExperimentScale, **overrides) -> FrameworkConfig:
    """Framework configuration matched to the experiment scale."""
    base = FrameworkConfig(**framework_kwargs(scale))
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


# --------------------------------------------------------------------- #
# Declarative specs: the paper's policy line-ups as data
# --------------------------------------------------------------------- #
def _spec(scale: ExperimentScale, name: str, policies: list[PolicySpec]) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        dataset=DatasetSpec(scale=scale.scale, num_months=scale.num_months, seed=scale.seed),
        runner=RunnerConfig(seed=scale.seed, max_arrivals=scale.max_arrivals),
        policies=policies,
    )


def worker_benefit_spec(scale: ExperimentScale) -> ExperimentSpec:
    """The six methods compared in Fig. 7 (worker benefit), as a spec."""
    return _spec(
        scale,
        "worker-benefit",
        [
            PolicySpec("random", {"seed": scale.seed}),
            PolicySpec("taskrec", {"seed": scale.seed}),
            PolicySpec("greedy-cosine", {"objective": "worker"}),
            PolicySpec("greedy-nn", {"objective": "worker", "seed": scale.seed}),
            PolicySpec("linucb", {"objective": "worker"}),
            PolicySpec("ddqn-worker", framework_kwargs(scale)),
        ],
    )


def requester_benefit_spec(scale: ExperimentScale) -> ExperimentSpec:
    """The five methods compared in Fig. 8 (requester benefit), as a spec."""
    return _spec(
        scale,
        "requester-benefit",
        [
            PolicySpec("random", {"seed": scale.seed}),
            PolicySpec("greedy-cosine", {"objective": "requester"}),
            PolicySpec("greedy-nn", {"objective": "requester", "seed": scale.seed}),
            PolicySpec("linucb", {"objective": "requester"}),
            PolicySpec("ddqn-requester", framework_kwargs(scale)),
        ],
    )


def balance_spec(
    weights: tuple[float, ...], scale: ExperimentScale
) -> ExperimentSpec:
    """Fig. 9's aggregator-weight sweep as one spec (one DDQN entry per w).

    Each entry carries an explicit label (its display name): a spec that
    repeats the same registry policy must disambiguate the entries, or its
    JSON round-trip is rejected.
    """
    return _spec(
        scale,
        "balance",
        [
            PolicySpec(
                "ddqn",
                {"worker_weight": weight, **framework_kwargs(scale)},
                label=f"DDQN(w={weight:g})",
            )
            for weight in weights
        ],
    )


def efficiency_spec(scale: ExperimentScale) -> ExperimentSpec:
    """Table I's four methods (model-update cost), as a spec."""
    return _spec(
        scale,
        "efficiency",
        [
            PolicySpec("taskrec", {"seed": scale.seed}),
            PolicySpec("greedy-nn", {"objective": "worker", "seed": scale.seed}),
            PolicySpec("linucb", {"objective": "worker"}),
            PolicySpec("ddqn-worker", framework_kwargs(scale)),
        ],
    )


def density_spec(scale: ExperimentScale) -> ExperimentSpec:
    """The five methods shown in Fig. 10: Random, Greedy CS, LinUCB, Greedy NN, DDQN."""
    return _spec(
        scale,
        "arrival-density",
        [
            PolicySpec("random", {"seed": scale.seed}),
            PolicySpec("greedy-cosine", {"objective": "worker"}),
            PolicySpec("linucb", {"objective": "worker"}),
            PolicySpec("greedy-nn", {"objective": "worker", "seed": scale.seed}),
            PolicySpec("ddqn-worker", framework_kwargs(scale)),
        ],
    )


# --------------------------------------------------------------------- #
# Declarative sweeps: the sensitivity/scalability grids as data
# --------------------------------------------------------------------- #
def balance_sweep_spec(
    weights: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    seeds: tuple[int, ...] = (7, 8, 9),
    scale: ExperimentScale | None = None,
) -> SweepSpec:
    """Fig. 9 as a sweep: aggregation weight w × dataset seed replicates.

    One DDQN entry in the base spec; the weight axis varies its
    ``worker_weight`` kwarg, the seed axis regenerates the trace, and the
    aggregated document reports mean ± std of every measure per weight.
    """
    scale = scale if scale is not None else ExperimentScale.ci()
    base = _spec(
        scale,
        "balance-cell",
        [PolicySpec("ddqn", framework_kwargs(scale), label="DDQN")],
    )
    return SweepSpec(
        name="fig9-balance-sweep",
        base=base,
        axes=[
            SweepAxis(target="policy", key="worker_weight", values=list(weights), policy="ddqn"),
            SweepAxis(target="dataset", key="seed", values=list(seeds)),
        ],
        replicate_axis="dataset.seed",
    )


def train_interval_sweep_spec(
    intervals: tuple[int, ...] = (1, 2, 4, 8, 16),
    seeds: tuple[int, ...] = (7, 8, 9),
    scale: ExperimentScale | None = None,
) -> SweepSpec:
    """Async amortisation frontier: ``train_interval`` × dataset seed replicates.

    The asynchronous trainer amortises train steps it cannot keep up with
    (free-running mode drops all but one due step per handoff), which is
    statistically equivalent to training on a coarser ``train_interval``.
    This sweep maps quality (CR/QG) against that interval so the amortisation
    the background trainer applies under load can be chosen deliberately: the
    recorded frontier backs the repository default of ``train_interval=4``
    (within noise of 1 on every measure at CI scale while quartering the
    update cost — see the README's asynchronous-training section).
    """
    scale = scale if scale is not None else ExperimentScale.ci()
    base = _spec(
        scale,
        "train-interval-cell",
        [PolicySpec("ddqn", framework_kwargs(scale), label="DDQN")],
    )
    return SweepSpec(
        name="train-interval-sweep",
        base=base,
        axes=[
            SweepAxis(
                target="policy", key="train_interval", values=list(intervals), policy="ddqn"
            ),
            SweepAxis(target="dataset", key="seed", values=list(seeds)),
        ],
        replicate_axis="dataset.seed",
    )


def density_sweep_spec(
    scales: tuple[float, ...] = (0.03, 0.06, 0.12),
    seeds: tuple[int, ...] = (7, 8),
    scale: ExperimentScale | None = None,
) -> SweepSpec:
    """Fig. 10-style scalability sweep: trace volume × dataset seed replicates.

    Varies the generator's ``scale`` (the arrival volume knob) for the Fig. 10
    policy line-up, replicated over dataset seeds.
    """
    scale = scale if scale is not None else ExperimentScale.ci()
    return SweepSpec(
        name="fig10-density-sweep",
        base=density_spec(scale),
        axes=[
            SweepAxis(target="dataset", key="scale", values=list(scales)),
            SweepAxis(target="dataset", key="seed", values=list(seeds)),
        ],
        replicate_axis="dataset.seed",
    )


def _build_spec_policies(
    spec: ExperimentSpec, dataset: CrowdDataset
) -> list[ArrangementPolicy]:
    return [build_policy(entry.policy, dataset, **entry.kwargs) for entry in spec.policies]


# --------------------------------------------------------------------- #
# Policy line-ups (instantiated from the specs, via the registry)
# --------------------------------------------------------------------- #
def worker_benefit_policies(
    dataset: CrowdDataset, scale: ExperimentScale
) -> list[ArrangementPolicy]:
    """The six methods compared in Fig. 7 (worker benefit)."""
    return _build_spec_policies(worker_benefit_spec(scale), dataset)


def requester_benefit_policies(
    dataset: CrowdDataset, scale: ExperimentScale
) -> list[ArrangementPolicy]:
    """The five methods compared in Fig. 8 (requester benefit)."""
    return _build_spec_policies(requester_benefit_spec(scale), dataset)


# --------------------------------------------------------------------- #
# Fig. 7 / Fig. 8 — benefit of workers / requesters
# --------------------------------------------------------------------- #
@dataclass
class BenefitExperimentResult:
    """Results of a multi-policy comparison run."""

    results: list[EvaluationResult]

    def by_policy(self) -> dict[str, EvaluationResult]:
        return {result.policy_name: result for result in self.results}

    def final(self, measure: str) -> dict[str, float]:
        """Final value of ``measure`` ('CR', 'kCR', ..., 'nDCG-QG') per policy."""
        return {
            result.policy_name: float(result.summary_row()[measure]) for result in self.results
        }

    def ranking(self, measure: str) -> list[str]:
        """Policy names sorted best-first on the final value of ``measure``."""
        finals = self.final(measure)
        return sorted(finals, key=finals.get, reverse=True)


def run_worker_benefit_experiment(
    scale: ExperimentScale | None = None,
    dataset: CrowdDataset | None = None,
) -> BenefitExperimentResult:
    """Fig. 7: CR / kCR / nDCG-CR for the six worker-benefit methods."""
    scale = scale if scale is not None else ExperimentScale.ci()
    results = run_spec(worker_benefit_spec(scale), dataset=dataset)
    return BenefitExperimentResult(list(results.values()))


def run_requester_benefit_experiment(
    scale: ExperimentScale | None = None,
    dataset: CrowdDataset | None = None,
) -> BenefitExperimentResult:
    """Fig. 8: QG / kQG / nDCG-QG for the five requester-benefit methods."""
    scale = scale if scale is not None else ExperimentScale.ci()
    results = run_spec(requester_benefit_spec(scale), dataset=dataset)
    return BenefitExperimentResult(list(results.values()))


# --------------------------------------------------------------------- #
# Fig. 9 — balance of benefits
# --------------------------------------------------------------------- #
@dataclass
class BalanceExperimentResult:
    """CR/QG trade-off as a function of the aggregation weight w."""

    weights: list[float]
    results: list[EvaluationResult]

    def series(self, measure: str) -> list[float]:
        return [float(result.summary_row()[measure]) for result in self.results]


def run_balance_experiment(
    weights: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    scale: ExperimentScale | None = None,
    dataset: CrowdDataset | None = None,
) -> BalanceExperimentResult:
    """Fig. 9: sweep the aggregator weight w over {0, 0.25, 0.5, 0.75, 1}."""
    scale = scale if scale is not None else ExperimentScale.ci()
    results = run_spec(balance_spec(tuple(weights), scale), dataset=dataset)
    return BalanceExperimentResult(weights=list(weights), results=list(results.values()))


# --------------------------------------------------------------------- #
# Table I — efficiency (model update time)
# --------------------------------------------------------------------- #
@dataclass
class EfficiencyResult:
    """Mean per-update seconds for each method (Table I)."""

    per_feedback_seconds: dict[str, float]
    per_retrain_seconds: dict[str, float]

    def reported_update_seconds(self) -> dict[str, float]:
        """Table I semantics: supervised methods report the daily re-training
        time, RL methods report the per-feedback update time."""
        combined: dict[str, float] = {}
        for name, retrain in self.per_retrain_seconds.items():
            feedback = self.per_feedback_seconds.get(name, 0.0)
            combined[name] = retrain if retrain > feedback else feedback
        return combined


def run_efficiency_experiment(
    scale: ExperimentScale | None = None,
    dataset: CrowdDataset | None = None,
) -> EfficiencyResult:
    """Table I: average model-update time of Taskrec, Greedy NN, LinUCB, DDQN."""
    scale = scale if scale is not None else ExperimentScale.ci()
    results = run_spec(efficiency_spec(scale), dataset=dataset).values()
    per_feedback = {r.policy_name: r.mean_update_seconds for r in results}
    per_retrain = {r.policy_name: r.mean_retrain_seconds for r in results}
    return EfficiencyResult(per_feedback_seconds=per_feedback, per_retrain_seconds=per_retrain)


# --------------------------------------------------------------------- #
# Fig. 10(a,b) — arrival density, Fig. 10(c) — worker-quality noise
# --------------------------------------------------------------------- #
def run_arrival_density_experiment(
    sampling_rates: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0),
    scale: ExperimentScale | None = None,
) -> dict[float, BenefitExperimentResult]:
    """Fig. 10(a,b): CR and QG as the worker-arrival volume is resampled."""
    scale = scale if scale is not None else ExperimentScale.ci()
    base_dataset = make_dataset(scale)
    outcomes: dict[float, BenefitExperimentResult] = {}
    spec = density_spec(scale)
    for rate in sampling_rates:
        dataset = resample_arrival_density(base_dataset, rate, seed=scale.seed)
        outcomes[rate] = BenefitExperimentResult(list(run_spec(spec, dataset=dataset).values()))
    return outcomes


def run_quality_noise_experiment(
    noise_means: tuple[float, ...] = (-0.4, -0.2, 0.0, 0.2),
    scale: ExperimentScale | None = None,
) -> dict[float, BenefitExperimentResult]:
    """Fig. 10(c): QG as Gaussian noise N(µ, 0.2) is added to worker qualities."""
    scale = scale if scale is not None else ExperimentScale.ci()
    base_dataset = make_dataset(scale)
    outcomes: dict[float, BenefitExperimentResult] = {}
    spec = requester_benefit_spec(scale)
    for mean in noise_means:
        dataset = add_worker_quality_noise(base_dataset, mean, seed=scale.seed)
        outcomes[mean] = BenefitExperimentResult(list(run_spec(spec, dataset=dataset).values()))
    return outcomes


# --------------------------------------------------------------------- #
# Fig. 10(d) — scalability of the per-update cost
# --------------------------------------------------------------------- #
@dataclass
class ScalabilityResult:
    """Per-update seconds versus the number of available tasks."""

    pool_sizes: list[int]
    seconds_by_policy: dict[str, list[float]] = field(default_factory=dict)


def run_scalability_experiment(
    pool_sizes: tuple[int, ...] = (10, 50, 100, 500, 1_000),
    hidden_dim: int = 32,
    repeats: int = 3,
    seed: int = 0,
) -> ScalabilityResult:
    """Fig. 10(d): update cost of LinUCB and DDQN as the pool grows.

    For each pool size a synthetic snapshot of available tasks is built, one
    recommendation round is simulated, and the time of one model update
    (``observe_feedback``) is measured.
    """
    result = ScalabilityResult(pool_sizes=list(pool_sizes))
    result.seconds_by_policy = {"LinUCB": [], "DDQN": []}
    for pool_size in pool_sizes:
        tasks, worker, schema = scalability_snapshot(pool_size, seed=seed)
        context = _snapshot_context(tasks, worker, schema)
        linucb = build_policy("linucb", schema, objective="worker")
        ddqn = build_policy(
            "ddqn-worker",
            schema,
            hidden_dim=hidden_dim,
            num_heads=2,
            batch_size=8,
            train_interval=1,
            seed=seed,
        )
        result.seconds_by_policy["LinUCB"].append(
            _measure_update(linucb, context, repeats=repeats)
        )
        result.seconds_by_policy["DDQN"].append(_measure_update(ddqn, context, repeats=repeats))
    return result


def _snapshot_context(tasks, worker: Worker, schema) -> ArrivalContext:
    task_features = np.stack([schema.task_features(task) for task in tasks])
    return ArrivalContext(
        timestamp=MINUTES_PER_DAY,
        worker=worker,
        worker_feature=schema.empty_worker_features(),
        available_tasks=list(tasks),
        task_features=task_features,
        task_qualities=np.zeros(len(tasks)),
    )


def _measure_update(policy: ArrangementPolicy, context: ArrivalContext, repeats: int) -> float:
    """Mean seconds of one ``observe_feedback`` call (the model update)."""
    from ..crowd.platform import Feedback

    ranked = policy.rank_tasks(context)
    feedback = Feedback(
        timestamp=context.timestamp,
        worker_id=context.worker.worker_id,
        presented_task_ids=ranked,
        completed_task_id=ranked[0],
        completed_rank=0,
        completion_reward=1.0,
        quality_gain=0.5,
        updated_worker_feature=context.worker_feature,
    )
    durations = []
    for _ in range(repeats):
        policy.rank_tasks(context)
        started = time.perf_counter()
        policy.observe_feedback(context, ranked, feedback)
        durations.append(time.perf_counter() - started)
    return float(np.mean(durations))


# --------------------------------------------------------------------- #
# Fig. 5 / Fig. 6 — trace statistics
# --------------------------------------------------------------------- #
def run_trace_statistics(scale: ExperimentScale | None = None, dataset: CrowdDataset | None = None):
    """Fig. 5 and Fig. 6: arrival-gap histograms and per-month trace counts."""
    scale = scale if scale is not None else ExperimentScale.ci()
    dataset = dataset if dataset is not None else make_dataset(scale)
    gaps = compute_arrival_gaps(dataset.trace)
    monthly = compute_monthly_statistics(dataset)
    return gaps, monthly
