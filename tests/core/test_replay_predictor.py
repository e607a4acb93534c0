"""Tests for replay memories, the sum tree and the future-state predictors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FutureStatePredictorR,
    FutureStatePredictorW,
    PrioritizedReplayMemory,
    ReplayMemory,
    StateTransformer,
    SumTree,
    Transition,
    expiry_branches,
)
from repro.core.replay import find_leaves
from repro.crowd import FeatureSchema, WorkerArrivalStatistics


@pytest.fixture
def schema():
    return FeatureSchema(num_categories=3, num_domains=2, award_bins=(100.0,))


def make_state(schema, transformer, num_tasks=4, seed=0, with_quality=False):
    rng = np.random.default_rng(seed)
    worker = rng.dirichlet(np.ones(schema.worker_dim))
    tasks = np.zeros((num_tasks, schema.task_dim))
    for row in range(num_tasks):
        tasks[row, rng.integers(0, schema.num_categories)] = 1.0
    kwargs = {"worker_quality": 0.5, "task_qualities": np.zeros(num_tasks)} if with_quality else {}
    return transformer.transform(worker, tasks, list(range(num_tasks)), **kwargs)


def make_transition(schema, transformer, reward=1.0, seed=0):
    state = make_state(schema, transformer, seed=seed)
    return Transition(state=state, action_index=0, reward=reward, future_states=[(1.0, state)])


class TestReplayMemory:
    def test_push_and_sample(self, schema):
        transformer = StateTransformer(schema)
        memory = ReplayMemory(capacity=10, seed=0)
        for i in range(5):
            memory.push(make_transition(schema, transformer, seed=i))
        transitions, indices, weights = memory.sample(3)
        assert len(transitions) == 3
        np.testing.assert_allclose(weights, np.ones(3))

    def test_capacity_is_ring_buffer(self, schema):
        transformer = StateTransformer(schema)
        memory = ReplayMemory(capacity=3, seed=0)
        for i in range(7):
            memory.push(make_transition(schema, transformer, reward=float(i)))
        assert len(memory) == 3

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            ReplayMemory(capacity=3).sample(1)

    def test_sample_more_than_stored_returns_all(self, schema):
        transformer = StateTransformer(schema)
        memory = ReplayMemory(capacity=10, seed=0)
        memory.push(make_transition(schema, transformer))
        transitions, _, _ = memory.sample(5)
        assert len(transitions) == 1

    def test_clear(self, schema):
        transformer = StateTransformer(schema)
        memory = ReplayMemory(capacity=5)
        memory.push(make_transition(schema, transformer))
        memory.clear()
        assert len(memory) == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ReplayMemory(capacity=0)


def set_leaf(tree: SumTree, index: int, priority: float) -> None:
    tree.update_batch(np.array([index]), np.array([priority]))


def find(tree: SumTree, value: float) -> int:
    return int(find_leaves(tree._tree[np.newaxis], np.array([[value]]))[0, 0])


class TestSumTree:
    def test_total_tracks_updates(self):
        tree = SumTree(8)
        set_leaf(tree, 0, 1.0)
        set_leaf(tree, 3, 2.0)
        assert tree.total == pytest.approx(3.0)
        set_leaf(tree, 0, 0.5)
        assert tree.total == pytest.approx(2.5)

    def test_find_returns_leaf_in_range(self):
        tree = SumTree(4)
        set_leaf(tree, 0, 1.0)
        set_leaf(tree, 1, 2.0)
        set_leaf(tree, 2, 3.0)
        assert find(tree, 0.5) == 0
        assert find(tree, 2.5) == 1
        assert find(tree, 5.9) == 2

    def test_rejects_invalid_updates(self):
        """Bad leaves and priorities are refused before anything is written.

        One bad entry among good ones, in a single-leaf write, a small batch
        (the per-leaf walk) and a batch of more than 8 leaves (vectorized).
        """
        tree = SumTree(16)
        tree.update_batch(np.arange(16), np.ones(16))
        before = tree._tree.copy()
        bad_entries = ((16, 1.0, IndexError), (-1, 1.0, IndexError), (0, -1.0, ValueError))
        for size in (1, 3, 12):
            for index, priority, error in bad_entries:
                indices, priorities = np.arange(size), np.full(size, 2.0)
                indices[size // 2], priorities[size // 2] = index, priority
                with pytest.raises(error):
                    tree.update_batch(indices, priorities)
                np.testing.assert_array_equal(tree._tree, before)

    @settings(max_examples=30, deadline=None)
    @given(
        priorities=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=16),
        fraction=st.floats(min_value=0.0, max_value=0.999),
    )
    def test_find_respects_cumulative_distribution(self, priorities, fraction):
        """The descent returns the leaf whose cumulative interval contains v."""
        tree = SumTree(len(priorities))
        for index, priority in enumerate(priorities):
            set_leaf(tree, index, priority)
        value = fraction * tree.total
        leaf = find(tree, value)
        cumulative = np.cumsum(priorities)
        expected = int(np.searchsorted(cumulative, value, side="left"))
        expected = min(expected, len(priorities) - 1)
        assert leaf == expected


class TestPrioritizedReplay:
    def test_importance_weights_in_unit_interval(self, schema):
        transformer = StateTransformer(schema)
        memory = PrioritizedReplayMemory(capacity=20, seed=0)
        for i in range(10):
            memory.push(make_transition(schema, transformer, seed=i))
        _, _, weights = memory.sample(5)
        assert (weights > 0).all()
        assert (weights <= 1.0 + 1e-9).all()

    def test_high_priority_items_are_sampled_more(self, schema):
        transformer = StateTransformer(schema)
        memory = PrioritizedReplayMemory(capacity=10, alpha=1.0, seed=0)
        for i in range(10):
            memory.push(make_transition(schema, transformer, reward=float(i), seed=i))
        # Give transition 0 a huge TD error and the rest tiny ones.
        memory.update_priorities(np.arange(10), np.array([100.0] + [0.001] * 9))
        counts = np.zeros(10)
        for _ in range(200):
            _, indices, _ = memory.sample(1)
            counts[int(indices[0])] += 1
        assert counts[0] > 100

    def test_beta_anneals_towards_one(self, schema):
        transformer = StateTransformer(schema)
        memory = PrioritizedReplayMemory(capacity=10, beta_start=0.4, beta_increment=0.1, seed=0)
        memory.push(make_transition(schema, transformer))
        for _ in range(10):
            memory.sample(1)
        assert memory.beta == pytest.approx(1.0)

    def test_capacity_eviction(self, schema):
        transformer = StateTransformer(schema)
        memory = PrioritizedReplayMemory(capacity=4, seed=0)
        for i in range(9):
            memory.push(make_transition(schema, transformer, seed=i))
        assert len(memory) == 4

    def test_clear_resets_tree(self, schema):
        transformer = StateTransformer(schema)
        memory = PrioritizedReplayMemory(capacity=4, seed=0)
        memory.push(make_transition(schema, transformer))
        memory.clear()
        assert len(memory) == 0
        memory.push(make_transition(schema, transformer))
        transitions, _, _ = memory.sample(1)
        assert len(transitions) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PrioritizedReplayMemory(capacity=0)
        with pytest.raises(ValueError):
            PrioritizedReplayMemory(alpha=2.0)


class TestExpiryBranches:
    def test_no_expiries_yields_single_branch(self):
        centers = np.array([5.0, 15.0, 25.0])
        probs = np.array([0.2, 0.3, 0.5])
        branches = expiry_branches(centers, probs, {}, max_branches=4)
        assert len(branches) == 1
        probability, expired = branches[0]
        assert probability == pytest.approx(1.0)
        assert expired == set()

    def test_probabilities_sum_to_one(self):
        centers = np.array([5.0, 15.0, 25.0, 35.0])
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        branches = expiry_branches(centers, probs, {1: 10.0, 2: 30.0}, max_branches=4)
        assert sum(p for p, _ in branches) == pytest.approx(1.0)

    def test_later_branches_contain_more_expired_tasks(self):
        centers = np.array([5.0, 15.0, 25.0, 35.0])
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        branches = expiry_branches(centers, probs, {1: 10.0, 2: 30.0}, max_branches=4)
        sizes = [len(expired) for _, expired in branches]
        assert sizes == sorted(sizes)
        assert sizes[-1] == 2

    def test_max_branches_is_respected(self):
        centers = np.linspace(1, 100, 100)
        probs = np.full(100, 0.01)
        offsets = {task_id: float(task_id * 7 + 1) for task_id in range(10)}
        branches = expiry_branches(centers, probs, offsets, max_branches=3)
        assert len(branches) <= 3

    def test_rejects_bad_max_branches(self):
        with pytest.raises(ValueError):
            expiry_branches(np.array([1.0]), np.array([1.0]), {}, max_branches=0)


class TestFutureStatePredictors:
    def _statistics(self, schema, gaps=(30.0, 60.0, 1_440.0)):
        stats = WorkerArrivalStatistics(schema.worker_dim)
        now = 0.0
        for index, gap in enumerate(np.cumsum(gaps)):
            stats.record_arrival(1, float(gap), np.ones(schema.worker_dim) / schema.worker_dim)
        return stats

    def test_predictor_w_branches_have_updated_worker_feature(self, schema):
        transformer = StateTransformer(schema)
        stats = self._statistics(schema)
        predictor = FutureStatePredictorW(transformer, stats, max_branches=3)
        state = make_state(schema, transformer, num_tasks=3, seed=1)
        new_feature = np.zeros(schema.worker_dim)
        new_feature[0] = 1.0
        branches = predictor.predict(state, now=2_000.0, task_deadlines={0: 2_500.0, 1: 9_999.0, 2: 99_999.0}, updated_worker_feature=new_feature)
        assert branches
        assert sum(probability for probability, _ in branches) == pytest.approx(1.0)
        for _, future in branches:
            worker_block = future.matrix[: future.num_tasks, schema.task_dim : schema.task_dim + schema.worker_dim]
            np.testing.assert_allclose(worker_block, np.tile(new_feature, (future.num_tasks, 1)))

    def test_predictor_w_removes_expiring_tasks_in_later_branches(self, schema):
        transformer = StateTransformer(schema)
        stats = WorkerArrivalStatistics(schema.worker_dim)
        # Same worker returns after ~2 days quite often.
        for gap_index in range(20):
            stats.same_worker_gaps.observe(2 * 1_440.0)
        predictor = FutureStatePredictorW(transformer, stats, max_branches=4)
        state = make_state(schema, transformer, num_tasks=3, seed=2)
        deadlines = {0: 100.0 + 60.0, 1: 100.0 + 3 * 1_440.0, 2: 100.0 + 30 * 1_440.0}
        branches = predictor.predict(state, now=100.0, task_deadlines=deadlines, updated_worker_feature=np.zeros(schema.worker_dim))
        # The dominant branch (~2 days later) must have task 0 expired.
        dominant = max(branches, key=lambda item: item[0])
        assert 0 not in dominant[1].task_ids
        assert 1 in dominant[1].task_ids

    def test_predictor_r_uses_expected_worker_feature(self, schema):
        transformer = StateTransformer(schema, include_quality=True)
        stats = self._statistics(schema)
        predictor = FutureStatePredictorR(transformer, stats, max_branches=2)
        state = make_state(schema, transformer, num_tasks=3, seed=3, with_quality=True)
        lookup = lambda worker_id: np.ones(schema.worker_dim) / schema.worker_dim
        branches = predictor.predict(state, now=2_000.0, task_deadlines={0: 99_999.0, 1: 99_999.0, 2: 99_999.0}, feature_lookup=lookup)
        assert branches
        assert sum(probability for probability, _ in branches) == pytest.approx(1.0)
        expected_feature = stats.expected_next_worker_feature(2_000.0, lookup)
        worker_block = branches[0][1].matrix[:3, schema.task_dim : schema.task_dim + schema.worker_dim]
        np.testing.assert_allclose(worker_block[0], expected_feature)
