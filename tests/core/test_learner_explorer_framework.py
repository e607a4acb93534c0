"""Tests for the learner, explorers, aggregator, agent and end-to-end framework."""

import numpy as np
import pytest

from repro.core import (
    AgentConfig,
    DQNAgent,
    DoubleDQNLearner,
    EpsilonGreedyExplorer,
    FrameworkConfig,
    GaussianPerturbationExplorer,
    PrioritizedReplayMemory,
    QValueAggregator,
    ReplayMemory,
    SetQNetwork,
    StateTransformer,
    SyncTrainer,
    TaskArrangementFramework,
    Transition,
)
from repro.crowd import (
    CascadeBehavior,
    CrowdsourcingPlatform,
    Event,
    EventType,
    FeatureSchema,
    InterestModel,
    Task,
    Worker,
)
from tests.core.reference import td_target


@pytest.fixture
def schema():
    return FeatureSchema(num_categories=3, num_domains=2, award_bins=(100.0,))


def make_state(schema, transformer, num_tasks=4, seed=0):
    rng = np.random.default_rng(seed)
    worker = rng.dirichlet(np.ones(schema.worker_dim))
    tasks = np.zeros((num_tasks, schema.task_dim))
    for row in range(num_tasks):
        tasks[row, rng.integers(0, schema.num_categories)] = 1.0
    return transformer.transform(worker, tasks, list(range(num_tasks)))


def fill_memory(schema, transformer, memory, count=20):
    for i in range(count):
        state = make_state(schema, transformer, seed=i)
        memory.push(
            Transition(
                state=state,
                action_index=i % state.num_tasks,
                reward=float(i % 2),
                future_states=[(1.0, state)],
            )
        )


class TestDoubleDQNLearner:
    def test_td_target_without_future_states_is_reward(self, schema):
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=16, num_heads=2, seed=0)
        learner = DoubleDQNLearner(network, gamma=0.5)
        state = make_state(schema, transformer)
        transition = Transition(state=state, action_index=0, reward=0.7, future_states=[])
        assert td_target(learner, transition) == pytest.approx(0.7)

    def test_td_target_adds_discounted_future_value(self, schema):
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=16, num_heads=2, seed=0)
        learner = DoubleDQNLearner(network, gamma=0.5)
        state = make_state(schema, transformer)
        future = make_state(schema, transformer, seed=1)
        transition = Transition(state=state, action_index=0, reward=1.0, future_states=[(1.0, future)])
        online_values = learner.online.q_values(future)
        best = int(np.argmax(online_values))
        expected = 1.0 + 0.5 * learner.target.q_values(future)[best]
        assert td_target(learner, transition) == pytest.approx(expected)

    def test_td_target_weights_branches_by_probability(self, schema):
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=16, num_heads=2, seed=0)
        learner = DoubleDQNLearner(network, gamma=1.0)
        state = make_state(schema, transformer)
        branch_a = make_state(schema, transformer, seed=2)
        branch_b = make_state(schema, transformer, seed=3)
        transition = Transition(
            state=state,
            action_index=0,
            reward=0.0,
            future_states=[(0.25, branch_a), (0.75, branch_b)],
        )
        value = td_target(learner, transition)
        value_a = learner.target.q_values(branch_a)[int(np.argmax(learner.online.q_values(branch_a)))]
        value_b = learner.target.q_values(branch_b)[int(np.argmax(learner.online.q_values(branch_b)))]
        assert value == pytest.approx(0.25 * value_a + 0.75 * value_b)

    def test_train_step_updates_parameters_and_reduces_loss(self, schema):
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=16, num_heads=2, seed=0)
        learner = DoubleDQNLearner(network, gamma=0.3, learning_rate=3e-3, batch_size=8)
        memory = ReplayMemory(capacity=100, seed=0)
        fill_memory(schema, transformer, memory, count=30)
        before = network.state_dict()
        reports = [learner.train_step(memory) for _ in range(30)]
        after = network.state_dict()
        assert any(not np.allclose(before[name], after[name]) for name in before)
        first = np.mean([r.loss for r in reports[:5]])
        last = np.mean([r.loss for r in reports[-5:]])
        assert last < first

    def test_target_network_sync_interval(self, schema):
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=16, num_heads=2, seed=0)
        learner = DoubleDQNLearner(network, target_sync_interval=3, batch_size=4)
        memory = ReplayMemory(capacity=50, seed=0)
        fill_memory(schema, transformer, memory, count=10)
        for _ in range(2):
            learner.train_step(memory)
        state = make_state(schema, transformer, seed=42)
        assert not np.allclose(learner.online.q_values(state), learner.target.q_values(state))
        learner.train_step(memory)  # third update triggers the hard copy
        np.testing.assert_allclose(
            learner.online.q_values(state), learner.target.q_values(state)
        )

    def test_train_step_on_empty_memory_returns_none(self, schema):
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=16, num_heads=2, seed=0)
        learner = DoubleDQNLearner(network)
        assert learner.train_step(ReplayMemory(capacity=5)) is None

    def test_prioritized_memory_priorities_are_refreshed(self, schema):
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=16, num_heads=2, seed=0)
        learner = DoubleDQNLearner(network, batch_size=4)
        memory = PrioritizedReplayMemory(capacity=50, seed=0)
        fill_memory(schema, transformer, memory, count=10)
        report = learner.train_step(memory)
        assert report is not None
        assert report.batch_size == 4

    def test_invalid_hyperparameters(self, schema):
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=16, num_heads=2, seed=0)
        with pytest.raises(ValueError):
            DoubleDQNLearner(network, gamma=1.5)
        with pytest.raises(ValueError):
            DoubleDQNLearner(network, batch_size=0)
        with pytest.raises(ValueError):
            DoubleDQNLearner(network, target_sync_interval=0)


class TestExplorers:
    def test_epsilon_greedy_schedule(self):
        explorer = EpsilonGreedyExplorer(exploit_start=0.5, exploit_end=1.0, anneal_steps=10)
        assert explorer.exploit_probability == pytest.approx(0.5)
        for _ in range(10):
            explorer.step()
        assert explorer.exploit_probability == pytest.approx(1.0)

    def test_epsilon_greedy_exploits_when_probability_is_one(self):
        explorer = EpsilonGreedyExplorer(exploit_start=1.0, exploit_end=1.0)
        rng = np.random.default_rng(0)
        q = np.array([0.1, 0.9, 0.3])
        assert all(explorer.select(q, rng) == 1 for _ in range(20))

    def test_epsilon_greedy_explores_when_probability_is_zero(self):
        explorer = EpsilonGreedyExplorer(exploit_start=0.0, exploit_end=0.0)
        rng = np.random.default_rng(0)
        q = np.array([0.1, 0.9, 0.3])
        picks = {explorer.select(q, rng) for _ in range(100)}
        assert picks == {0, 1, 2}

    def test_epsilon_greedy_empty_actions_raises(self):
        with pytest.raises(ValueError):
            EpsilonGreedyExplorer().select(np.array([]), np.random.default_rng(0))

    def test_gaussian_explorer_no_perturbation_when_probability_zero(self):
        explorer = GaussianPerturbationExplorer(perturb_probability=0.0)
        q = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(explorer.perturb(q, np.random.default_rng(0)), q)

    def test_gaussian_explorer_perturbs_with_probability_one(self):
        explorer = GaussianPerturbationExplorer(perturb_probability=1.0)
        q = np.array([1.0, 2.0, 3.0])
        assert not np.allclose(explorer.perturb(q, np.random.default_rng(0)), q)

    def test_gaussian_noise_scale_decays(self):
        explorer = GaussianPerturbationExplorer(
            perturb_probability=1.0, decay_start=1.0, decay_end=0.1, anneal_steps=100
        )
        assert explorer.decay_factor == pytest.approx(1.0)
        for _ in range(100):
            explorer.step()
        assert explorer.decay_factor == pytest.approx(0.1)

    def test_gaussian_rank_returns_permutation(self):
        explorer = GaussianPerturbationExplorer(perturb_probability=0.5)
        ranking = explorer.rank(np.array([0.2, 0.9, 0.5]), np.random.default_rng(0))
        assert sorted(ranking.tolist()) == [0, 1, 2]

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            EpsilonGreedyExplorer(exploit_start=1.5)
        with pytest.raises(ValueError):
            GaussianPerturbationExplorer(perturb_probability=-0.1)


class TestAggregator:
    def test_weighted_sum_without_normalisation(self):
        aggregator = QValueAggregator(worker_weight=0.25, normalize=False)
        combined = aggregator.combine(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(combined, [0.25, 0.75])

    def test_single_objective_passthrough(self):
        aggregator = QValueAggregator(worker_weight=0.5)
        np.testing.assert_allclose(aggregator.combine(np.array([1.0, 2.0]), None), [1.0, 2.0])
        np.testing.assert_allclose(aggregator.combine(None, np.array([3.0, 4.0])), [3.0, 4.0])

    def test_both_none_raises(self):
        with pytest.raises(ValueError):
            QValueAggregator().combine(None, None)

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError):
            QValueAggregator().combine(np.zeros(3), np.zeros(4))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            QValueAggregator(worker_weight=1.5)
        aggregator = QValueAggregator(0.5)
        with pytest.raises(ValueError):
            aggregator.worker_weight = -0.1

    def test_extreme_weights_follow_single_objective_ranking(self):
        aggregator = QValueAggregator(worker_weight=1.0)
        worker_q = np.array([0.1, 0.9, 0.5])
        requester_q = np.array([0.9, 0.1, 0.5])
        combined = aggregator.combine(worker_q, requester_q)
        assert np.argmax(combined) == np.argmax(worker_q)
        aggregator.worker_weight = 0.0
        combined = aggregator.combine(worker_q, requester_q)
        assert np.argmax(combined) == np.argmax(requester_q)


class TestDQNAgent:
    def test_sync_trainer_respects_interval_and_minimum(self, schema):
        transformer = StateTransformer(schema)
        config = AgentConfig(
            hidden_dim=16, num_heads=2, batch_size=4, train_interval=2,
            min_buffer_before_training=4, seed=0,
        )
        agent = DQNAgent(transformer.row_dim, config)
        state = make_state(schema, transformer)
        transition = Transition(state=state, action_index=0, reward=1.0, future_states=[])
        trainer = SyncTrainer()
        steps = []
        for _ in range(8):
            trainer.submit([(agent, [transition])])
            steps.append(agent.diagnostics.train_steps)
        assert agent.diagnostics.observations == 8
        # No training before the buffer minimum, then one step every 2 observations.
        assert steps == [0, 0, 0, 1, 1, 2, 2, 3]

    def test_uniform_replay_option(self, schema):
        transformer = StateTransformer(schema)
        agent = DQNAgent(
            transformer.row_dim,
            AgentConfig(hidden_dim=16, num_heads=2, prioritized_replay=False),
        )
        assert isinstance(agent.memory, ReplayMemory)


def build_platform_and_framework(schema, seed=0, **config_overrides):
    tasks = {
        i: Task(
            task_id=i,
            requester_id=0,
            category=i % schema.num_categories,
            domain=i % schema.num_domains,
            award=100.0 + 50.0 * i,
            created_at=0.0,
            deadline=100_000.0,
        )
        for i in range(6)
    }
    rng = np.random.default_rng(seed)
    workers = {
        i: Worker(
            worker_id=i,
            quality=0.6,
            category_preference=rng.dirichlet(np.ones(schema.num_categories)),
            domain_preference=rng.dirichlet(np.ones(schema.num_domains)),
            award_sensitivity=0.3,
        )
        for i in range(3)
    }
    platform = CrowdsourcingPlatform(
        tasks, workers, schema, CascadeBehavior(InterestModel()), seed=seed
    )
    defaults = dict(
        hidden_dim=16, num_heads=2, batch_size=4, train_interval=2,
        explorer_anneal_steps=50, seed=seed,
    )
    defaults.update(config_overrides)
    framework = TaskArrangementFramework(schema, FrameworkConfig(**defaults))
    return platform, framework


class TestTaskArrangementFramework:
    def test_requires_at_least_one_mdp(self, schema):
        with pytest.raises(ValueError):
            TaskArrangementFramework(
                schema, FrameworkConfig(use_worker_mdp=False, use_requester_mdp=False)
            )

    def test_rank_returns_all_available_tasks(self, schema):
        platform, framework = build_platform_and_framework(schema)
        for task_id in range(6):
            platform.apply_event(Event(0.0, EventType.TASK_CREATED, task_id))
        context = platform.apply_event(Event(5.0, EventType.WORKER_ARRIVAL, 0))
        ranked = framework.rank_tasks(context)
        assert sorted(ranked) == list(range(6))

    def test_rank_empty_pool(self, schema):
        platform, framework = build_platform_and_framework(schema)
        context = platform.apply_event(Event(5.0, EventType.WORKER_ARRIVAL, 0))
        assert framework.rank_tasks(context) == []

    def test_feedback_stores_transitions_in_both_agents(self, schema):
        platform, framework = build_platform_and_framework(schema)
        for task_id in range(6):
            platform.apply_event(Event(0.0, EventType.TASK_CREATED, task_id))
        platform.behavior.interest_model.base_rate = 0.999
        context = platform.apply_event(Event(5.0, EventType.WORKER_ARRIVAL, 0))
        ranked = framework.rank_tasks(context)
        feedback = platform.submit_list(context, ranked)
        framework.observe_feedback(context, ranked, feedback)
        assert framework.agent_w.diagnostics.observations >= 1
        assert framework.agent_r.diagnostics.observations >= 1

    def test_worker_only_variant_has_single_agent(self, schema):
        framework = TaskArrangementFramework.worker_only(
            schema, FrameworkConfig(hidden_dim=16, num_heads=2)
        )
        assert framework.agent_w is not None
        assert framework.agent_r is None
        assert framework.config.worker_weight == 1.0

    def test_requester_only_variant_has_single_agent(self, schema):
        framework = TaskArrangementFramework.requester_only(
            schema, FrameworkConfig(hidden_dim=16, num_heads=2)
        )
        assert framework.agent_w is None
        assert framework.agent_r is not None

    def test_balanced_variant_sets_weight(self, schema):
        framework = TaskArrangementFramework.balanced(
            schema, worker_weight=0.25, config=FrameworkConfig(hidden_dim=16, num_heads=2)
        )
        assert framework.aggregator.worker_weight == pytest.approx(0.25)
        assert "0.25" in framework.name

    def test_reset_reinitialises_learning_state(self, schema):
        platform, framework = build_platform_and_framework(schema)
        for task_id in range(6):
            platform.apply_event(Event(0.0, EventType.TASK_CREATED, task_id))
        platform.behavior.interest_model.base_rate = 0.999
        context = platform.apply_event(Event(5.0, EventType.WORKER_ARRIVAL, 0))
        ranked = framework.rank_tasks(context)
        feedback = platform.submit_list(context, ranked)
        framework.observe_feedback(context, ranked, feedback)
        framework.reset()
        assert framework.agent_w.diagnostics.observations == 0
        assert len(framework.agent_w.memory) == 0

    def test_feedback_without_prior_rank_is_tolerated(self, schema):
        platform, framework = build_platform_and_framework(schema)
        for task_id in range(6):
            platform.apply_event(Event(0.0, EventType.TASK_CREATED, task_id))
        platform.behavior.interest_model.base_rate = 0.999
        context = platform.apply_event(Event(5.0, EventType.WORKER_ARRIVAL, 0))
        ranked = context.task_ids
        feedback = platform.submit_list(context, ranked)
        framework.observe_feedback(context, ranked, feedback)
        assert framework.agent_w.diagnostics.observations >= 1

    def test_online_learning_improves_ranking_of_preferred_tasks(self, schema):
        """After observing repeated completions of one category, its Q rises."""
        platform, framework = build_platform_and_framework(
            schema,
            perturb_probability=0.0,
            train_interval=1,
            batch_size=8,
            learning_rate=5e-3,
            use_requester_mdp=False,
        )
        for task_id in range(6):
            platform.apply_event(Event(0.0, EventType.TASK_CREATED, task_id))
        platform.behavior.interest_model.base_rate = 0.999
        # Worker 0 always completes task of category 0 (task ids 0 and 3).
        preferred_ids = {0, 3}
        timestamp = 5.0
        for _ in range(80):
            context = platform.apply_event(Event(timestamp, EventType.WORKER_ARRIVAL, 0))
            ranked = framework.rank_tasks(context)
            chosen = next(tid for tid in ranked if tid in preferred_ids)
            feedback = platform.submit_list(context, [chosen])
            framework.observe_feedback(context, [chosen], feedback)
            timestamp += 30.0
        context = platform.apply_event(Event(timestamp, EventType.WORKER_ARRIVAL, 0))
        state_w, _ = framework._build_states(context)
        q_values = framework.agent_w.q_values(state_w)
        preferred_scores = [q for tid, q in zip(state_w.task_ids, q_values) if tid in preferred_ids]
        other_scores = [q for tid, q in zip(state_w.task_ids, q_values) if tid not in preferred_ids]
        assert np.mean(preferred_scores) > np.mean(other_scores)
