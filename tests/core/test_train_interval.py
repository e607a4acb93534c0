"""``train_interval``: amortising the dominant per-arrival update path.

The per-arrival gradient step dominates DDQN end-to-end throughput;
``train_interval=N`` trains only on every N-th stored transition.  The knob
is exposed end to end — ``AgentConfig`` → ``FrameworkConfig`` → the ``ddqn*``
registry kwargs / JSON specs — and ``train_interval=1`` is pinned
bit-identical to the historical update-after-every-feedback behaviour.
"""

import numpy as np
import pytest

from repro.api import build_policy
from repro.core import FrameworkConfig
from repro.core.agent import AgentConfig
from repro.datasets import generate_crowdspring
from repro.eval import RunnerConfig, SimulationRunner
from tests.eval.test_determinism import assert_results_identical

TINY = {"hidden_dim": 8, "num_heads": 2, "batch_size": 4, "seed": 0, "max_tasks": 12}


@pytest.fixture(scope="module")
def dataset():
    return generate_crowdspring(scale=0.03, num_months=2, seed=1)


def run(dataset, **kwargs):
    policy = build_policy("ddqn-worker", dataset, **kwargs)
    result = SimulationRunner(
        dataset, RunnerConfig(seed=0, max_arrivals=20, max_warmup_observations=12)
    ).run(policy)
    return policy, result


class TestTrainInterval:
    def test_registry_threads_the_knob_through_to_both_agents(self, dataset):
        policy = build_policy("ddqn", dataset, train_interval=3, **TINY)
        assert policy.config.train_interval == 3
        assert policy.agent_w.config.train_interval == 3
        assert policy.agent_r.config.train_interval == 3
        assert FrameworkConfig().train_interval == 1
        assert AgentConfig().train_interval == 1

    def test_interval_one_is_bit_identical_to_the_default(self, dataset):
        _, explicit = run(dataset, train_interval=1, **TINY)
        _, default = run(dataset, **TINY)
        assert_results_identical(explicit, default)

    def test_larger_interval_trains_less_often(self, dataset):
        policy_every, _ = run(dataset, train_interval=1, **TINY)
        policy_amortised, _ = run(dataset, train_interval=4, **TINY)
        every = policy_every.agent_w.diagnostics
        amortised = policy_amortised.agent_w.diagnostics
        # The two runs diverge (training changes rankings, rankings change
        # feedback), so observation counts differ slightly; the cadence claim
        # is per-run: interval 4 performs roughly a quarter of the steps.
        assert 0 < amortised.train_steps < every.train_steps
        assert amortised.train_steps <= amortised.observations // 4
        # The cadence is exact: one step per train_interval observations once
        # the buffer floor is reached.
        assert amortised.train_steps == sum(
            1
            for count in range(1, amortised.observations + 1)
            if count % 4 == 0
            and count >= policy_amortised.agent_w.config.min_buffer_before_training
        )

    def test_agent_should_train_matches_sync_trainer(self):
        from repro.core import DQNAgent, SyncTrainer
        from repro.core.replay import Transition
        from repro.core.state import StateMatrix

        agent_config = AgentConfig(
            hidden_dim=8, num_heads=2, batch_size=4, train_interval=2,
            min_buffer_before_training=2, seed=0,
        )
        agent = DQNAgent(6, agent_config)
        trainer = SyncTrainer()
        rng = np.random.default_rng(0)
        steps = []
        for i in range(6):
            matrix = rng.standard_normal((3, 6))
            state = StateMatrix(matrix=matrix, mask=np.zeros(3, bool), task_ids=[0, 1, 2])
            before = agent.diagnostics.train_steps
            trainer.submit([(agent, [Transition(state=state, action_index=0, reward=1.0)])])
            steps.append(agent.diagnostics.train_steps > before)
        # Buffer floor 2, cadence 2: observations 2, 4, 6 train.
        assert steps == [False, True, False, True, False, True]
