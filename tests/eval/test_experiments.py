"""Tests for the experiment entry points (fast pieces only).

The heavy multi-policy comparisons are exercised by the benchmark suite; here
we test the configuration plumbing, the policy line-ups and the cheap
experiment helpers end to end on tiny inputs.
"""

import numpy as np
import pytest

from repro.baselines import RandomPolicy
from repro.core import TaskArrangementFramework
from repro.eval import RunnerConfig, SimulationRunner
from repro.eval.experiments import (
    BenefitExperimentResult,
    EfficiencyResult,
    ExperimentScale,
    benchmark_framework_config,
    make_dataset,
    requester_benefit_policies,
    run_scalability_experiment,
    run_trace_statistics,
    worker_benefit_policies,
)


class TestExperimentScale:
    def test_paper_scale_matches_paper_hyperparameters(self):
        scale = ExperimentScale.paper()
        assert scale.scale == 1.0
        assert scale.num_months == 13
        assert scale.hidden_dim == 128
        assert scale.num_heads == 4
        assert scale.batch_size == 64
        assert scale.train_interval == 1

    def test_ci_scale_is_smaller(self):
        paper = ExperimentScale.paper()
        ci = ExperimentScale.ci()
        assert ci.scale < paper.scale
        assert ci.hidden_dim < paper.hidden_dim
        assert ci.max_arrivals is not None

    def test_benchmark_framework_config_applies_scale_and_overrides(self):
        scale = ExperimentScale.ci()
        config = benchmark_framework_config(scale, gamma_worker=0.0, prioritized_replay=False)
        assert config.hidden_dim == scale.hidden_dim
        assert config.learning_rate == scale.learning_rate
        assert config.gamma_worker == 0.0
        assert config.prioritized_replay is False


class TestPolicyLineUps:
    @pytest.fixture(scope="class")
    def tiny(self):
        scale = ExperimentScale(scale=0.03, num_months=2, hidden_dim=16, num_heads=2, seed=1)
        return scale, make_dataset(scale)

    def test_worker_line_up_matches_fig7(self, tiny):
        scale, dataset = tiny
        policies = worker_benefit_policies(dataset, scale)
        names = [policy.name for policy in policies]
        assert names == ["Random", "Taskrec", "Greedy CS", "Greedy NN", "LinUCB", "DDQN"]
        assert isinstance(policies[-1], TaskArrangementFramework)
        assert policies[-1].agent_r is None

    def test_requester_line_up_matches_fig8(self, tiny):
        scale, dataset = tiny
        policies = requester_benefit_policies(dataset, scale)
        names = [policy.name for policy in policies]
        assert names == ["Random", "Greedy CS", "Greedy NN", "LinUCB", "DDQN"]
        assert policies[-1].agent_w is None

    def test_run_policies_produces_rankable_results(self, tiny):
        scale, dataset = tiny
        runner = SimulationRunner(
            dataset, RunnerConfig(seed=scale.seed, max_arrivals=scale.max_arrivals)
        )
        outcome = BenefitExperimentResult(
            [runner.run(RandomPolicy(seed=0)), runner.run(RandomPolicy(seed=1))]
        )
        finals = outcome.final("nDCG-CR")
        assert len(finals) >= 1
        ranking = outcome.ranking("nDCG-CR")
        assert set(ranking) == set(finals)


class TestCheapExperiments:
    def test_trace_statistics_entry_point(self):
        scale = ExperimentScale(scale=0.03, num_months=2, seed=1)
        gaps, monthly = run_trace_statistics(scale)
        assert len(gaps.any_worker_gaps) > 0
        assert monthly.num_months >= 2

    def test_scalability_experiment_tiny(self):
        result = run_scalability_experiment(pool_sizes=(5, 20), hidden_dim=16, repeats=1)
        assert result.pool_sizes == [5, 20]
        assert set(result.seconds_by_policy) == {"LinUCB", "DDQN"}
        for series in result.seconds_by_policy.values():
            assert len(series) == 2
            assert all(value > 0 for value in series)

    def test_efficiency_result_reporting_rule(self):
        result = EfficiencyResult(
            per_feedback_seconds={"Taskrec": 0.00001, "DDQN": 0.02},
            per_retrain_seconds={"Taskrec": 3.0, "DDQN": 0.0},
        )
        reported = result.reported_update_seconds()
        assert reported["Taskrec"] == pytest.approx(3.0)
        assert reported["DDQN"] == pytest.approx(0.02)
