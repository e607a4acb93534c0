"""Batched-vs-unbatched equivalence tests for the execution engine.

The batched engine (``SetQNetwork.forward_batch``, the two-forward TD-target
computation and the vectorized prioritized replay) must be a pure
performance change: every result has to match the per-sample reference path
to float tolerance (≤ 1e-9), with the same RNG draws.
"""

import contextlib
import copy

import numpy as np
import pytest

from repro.core import (
    DoubleDQNLearner,
    PrioritizedReplayMemory,
    ReplayMemory,
    SetQNetwork,
    StateTransformer,
    SumTree,
    Transition,
    pad_state_batch,
)
from repro.core.learner import _group_forward, row_buckets
from repro.core.replay import find_leaves
from repro.core.state import distinct_states
from repro.crowd import FeatureSchema
from repro.nn import no_grad
from tests.core.reference import sumtree_find, sumtree_update, td_target, train_step_unbatched

TOL = 1e-9


@pytest.fixture
def schema():
    return FeatureSchema(num_categories=4, num_domains=3, award_bins=(100.0, 300.0))


def random_state(schema, transformer, num_tasks, seed):
    rng = np.random.default_rng(seed)
    worker = rng.dirichlet(np.ones(schema.worker_dim))
    tasks = np.zeros((num_tasks, schema.task_dim))
    for row in range(num_tasks):
        tasks[row, rng.integers(0, schema.num_categories)] = 1.0
        tasks[row, schema.num_categories + rng.integers(0, schema.num_domains)] = 1.0
    return transformer.transform(worker, tasks, list(range(num_tasks)))


def build_learner_and_memory(schema, transformer, seed=7, count=60, max_branches=3):
    network = SetQNetwork(transformer.row_dim, hidden_dim=32, num_heads=4, seed=3)
    learner = DoubleDQNLearner(network, gamma=0.5, batch_size=16, target_sync_interval=4)
    memory = PrioritizedReplayMemory(capacity=200, seed=seed)
    rng = np.random.default_rng(seed)
    for i in range(count):
        state = random_state(schema, transformer, int(rng.integers(1, 8)), 100 + i)
        branches = []
        for b in range(int(rng.integers(0, max_branches + 1))):
            # Include empty-pool branches: they contribute nothing to targets.
            branches.append(
                (float(rng.random()) / max_branches,
                 random_state(schema, transformer, int(rng.integers(0, 6)), 1000 + 10 * i + b))
            )
        memory.push(
            Transition(
                state=state,
                action_index=int(rng.integers(0, state.num_tasks)),
                reward=float(rng.random()),
                future_states=branches,
            )
        )
    return learner, memory


def build_learner_and_shared_memory(schema, transformer, seed=7, feedbacks=30):
    """Like :func:`build_learner_and_memory`, but stored the way the framework stores.

    Each feedback becomes one to three sibling transitions (the completed
    task plus skipped ones) over one ``state`` object and one
    ``future_states`` list.
    """
    learner, _ = build_learner_and_memory(schema, transformer, seed=seed, count=0)
    memory = PrioritizedReplayMemory(capacity=200, seed=seed)
    rng = np.random.default_rng(seed)
    for i in range(feedbacks):
        state = random_state(schema, transformer, int(rng.integers(3, 8)), 100 + i)
        branches = [
            (1.0 / 3, random_state(schema, transformer, int(rng.integers(0, 6)), 1000 + 10 * i + b))
            for b in range(int(rng.integers(1, 4)))
        ]
        reward = float(rng.random())
        actions = rng.permutation(state.num_tasks)[: int(rng.integers(1, 4))]
        for k, action in enumerate(actions):
            memory.push(
                Transition(
                    state=state,
                    action_index=int(action),
                    reward=reward if k == 0 else 0.0,
                    future_states=branches,
                )
            )
    return learner, memory


def build_learner_and_bimodal_memory(
    schema, transformer, seed=7, feedbacks=60, hidden_dim=64, batch_size=64
):
    """A ``learn``-shaped memory: states of 1-5 or 14-20 rows, stored as the framework stores.

    Each feedback is one to three sibling transitions over one ``state``
    object and one ``future_states`` list, and each branch keeps its state's
    row count, its expired tasks turned into padding rows
    (``StateMatrix.without_tasks``).
    """
    network = SetQNetwork(transformer.row_dim, hidden_dim=hidden_dim, num_heads=4, seed=3)
    learner = DoubleDQNLearner(
        network, gamma=0.5, batch_size=batch_size, target_sync_interval=4
    )
    memory = PrioritizedReplayMemory(capacity=500, seed=seed)
    rng = np.random.default_rng(seed)
    for i in range(feedbacks):
        rows = int(rng.integers(1, 6) if rng.random() < 0.6 else rng.integers(14, 21))
        state = random_state(schema, transformer, rows, 100 + i)
        branches = [
            (1.0 / 3, state.without_tasks(set(rng.permutation(rows)[: int(rng.integers(0, rows))])))
            for _ in range(int(rng.integers(2, 4)))
        ]
        reward = float(rng.random())
        for k, action in enumerate(rng.permutation(rows)[: int(rng.integers(1, 4))]):
            memory.push(
                Transition(
                    state=state,
                    action_index=int(action),
                    reward=reward if k == 0 else 0.0,
                    future_states=branches,
                )
            )
    return learner, memory


class TestForwardBatchEquivalence:
    def test_forward_batch_matches_per_state_forward(self, schema):
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=32, num_heads=4, seed=0)
        states = [random_state(schema, transformer, n, seed) for seed, n in
                  enumerate([3, 7, 1, 5, 2, 6])]
        batched = network.q_values_batch(states)
        assert len(batched) == len(states)
        for state, q_batched in zip(states, batched):
            np.testing.assert_allclose(network.q_values(state), q_batched, atol=TOL)

    def test_forward_batch_with_internally_padded_states(self, schema):
        """Mixing states padded to different max_tasks still matches."""
        padded = StateTransformer(schema, max_tasks=9)
        unpadded = StateTransformer(schema)
        network = SetQNetwork(padded.row_dim, hidden_dim=32, num_heads=4, seed=1)
        states = [
            random_state(schema, padded, 4, 0),
            random_state(schema, unpadded, 2, 1),
            random_state(schema, padded, 6, 2),
        ]
        batched = network.q_values_batch(states)
        for state, q_batched in zip(states, batched):
            assert q_batched.shape == (state.num_tasks,)
            np.testing.assert_allclose(network.q_values(state), q_batched, atol=TOL)

    def test_forward_batch_with_empty_state_in_batch(self, schema):
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=32, num_heads=4, seed=2)
        states = [
            random_state(schema, transformer, 3, 0),
            random_state(schema, transformer, 0, 1),
        ]
        batched = network.q_values_batch(states)
        np.testing.assert_allclose(network.q_values(states[0]), batched[0], atol=TOL)
        assert batched[1].shape == (0,)

    def test_q_values_batch_empty_input(self, schema):
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=32, num_heads=4, seed=0)
        assert network.q_values_batch([]) == []

    def test_pad_state_batch_shapes_and_masks(self, schema):
        transformer = StateTransformer(schema)
        states = [random_state(schema, transformer, n, n) for n in (2, 5, 3)]
        batch, mask = pad_state_batch(states)
        assert batch.shape == (3, 5, transformer.row_dim)
        assert mask.shape == (3, 5)
        np.testing.assert_array_equal(mask[0], [False, False, True, True, True])
        np.testing.assert_allclose(batch[0, 2:], 0.0)

    def test_pad_state_batch_rejects_empty_list(self):
        with pytest.raises(ValueError):
            pad_state_batch([])


class TestTrainStepEquivalence:
    def test_td_targets_batch_matches_scalar_td_target(self, schema):
        transformer = StateTransformer(schema)
        learner, memory = build_learner_and_memory(schema, transformer)
        transitions, _, _ = memory.sample(16)
        batched = learner.td_targets_batch(transitions)
        scalar = np.array([td_target(learner, t) for t in transitions])
        np.testing.assert_allclose(batched, scalar, atol=TOL)

    def test_td_targets_cache_is_invalidated_on_sync(self, schema):
        transformer = StateTransformer(schema)
        learner, memory = build_learner_and_memory(schema, transformer)
        transitions, _, _ = memory.sample(8)
        first = learner.td_targets_batch(transitions)
        np.testing.assert_allclose(first, learner.td_targets_batch(transitions), atol=TOL)
        # Perturb online weights and hard-sync: cached target values must refresh.
        for param in learner.online.parameters():
            param.data = param.data + 0.05
        learner.sync_target()
        refreshed = learner.td_targets_batch(transitions)
        scalar = np.array([td_target(learner, t) for t in transitions])
        np.testing.assert_allclose(refreshed, scalar, atol=TOL)
        assert not np.allclose(first, refreshed)

    def test_learners_sharing_transitions_do_not_share_caches(self, schema):
        """Two learners over the same memory must not serve each other's
        cached target values (each learner keeps its own memo)."""
        transformer = StateTransformer(schema)
        _, memory = build_learner_and_memory(schema, transformer)
        network_a = SetQNetwork(transformer.row_dim, hidden_dim=32, num_heads=4, seed=1)
        network_b = SetQNetwork(transformer.row_dim, hidden_dim=32, num_heads=4, seed=2)
        learner_a = DoubleDQNLearner(network_a, gamma=0.5, batch_size=16)
        learner_b = DoubleDQNLearner(network_b, gamma=0.5, batch_size=16)
        transitions, _, _ = memory.sample(16)
        targets_a = learner_a.td_targets_batch(transitions)
        targets_b = learner_b.td_targets_batch(transitions)
        scalar_a = np.array([td_target(learner_a, t) for t in transitions])
        scalar_b = np.array([td_target(learner_b, t) for t in transitions])
        np.testing.assert_allclose(targets_a, scalar_a, atol=TOL)
        np.testing.assert_allclose(targets_b, scalar_b, atol=TOL)

    def test_siblings_reuse_memoised_target_values(self, schema, monkeypatch):
        """Siblings share one future list: a step on one memoises it for the other."""
        transformer = StateTransformer(schema)
        learner, _ = build_learner_and_memory(schema, transformer, count=0)
        state = random_state(schema, transformer, 4, 1)
        future = [(0.5, random_state(schema, transformer, 3, 10 + b)) for b in range(2)]
        siblings = [
            Transition(state=state, action_index=action, reward=reward, future_states=future)
            for action, reward in ((0, 1.0), (1, 0.0))
        ]
        forwarded = []
        forward_batch = learner.target.forward_batch

        def spy(states):
            forwarded.append(len(states))
            return forward_batch(states)

        monkeypatch.setattr(learner.target, "forward_batch", spy)
        for transition in siblings:
            memory = ReplayMemory(capacity=1)
            memory.push(transition)
            learner.train_step(memory)
        assert forwarded == [len(future)]
        np.testing.assert_allclose(
            learner.td_targets_batch(siblings), [td_target(learner, t) for t in siblings], atol=TOL
        )
        assert forwarded == [len(future)]
        # A checkpoint boundary drops the memo, so the branches are forwarded again.
        learner.invalidate_target_cache()
        learner.td_targets_batch(siblings)
        assert forwarded == [len(future), len(future)]

    @staticmethod
    def assert_steps_match_reference(build):
        """Same RNG draws, same loss and same post-step parameters as the reference."""
        learner_a, memory_a = build()
        learner_b, memory_b = build()
        for step in range(6):  # crosses a target sync (interval 4)
            report_a = learner_a.train_step(memory_a)
            report_b = train_step_unbatched(learner_b, memory_b)
            assert report_a.batch_size == report_b.batch_size
            assert abs(report_a.loss - report_b.loss) <= TOL, step
            assert abs(report_a.mean_abs_td_error - report_b.mean_abs_td_error) <= TOL
            assert abs(report_a.gradient_norm - report_b.gradient_norm) <= 1e-6
        params_a = learner_a.online.state_dict()
        params_b = learner_b.online.state_dict()
        for name in params_a:
            np.testing.assert_allclose(params_a[name], params_b[name], atol=TOL)

    def test_train_step_matches_unbatched_reference(self, schema):
        transformer = StateTransformer(schema)
        self.assert_steps_match_reference(lambda: build_learner_and_memory(schema, transformer))

    def test_td_targets_batch_forwards_each_distinct_state_once(self, schema, monkeypatch):
        """Siblings share branch objects: each is forwarded once, same bits as unshared."""
        transformer = StateTransformer(schema)
        learner, memory = build_learner_and_shared_memory(schema, transformer)
        transitions, _, _ = memory.sample(16)
        # Deep copies one by one: equal values, no object shared between them.
        unshared = [copy.deepcopy(transition) for transition in transitions]
        branches = [
            state for t in transitions for _, state in t.future_states if state.num_tasks
        ]
        distinct = {id(state) for state in branches}
        assert len(distinct) < len(branches), "the sample should repeat branch objects"

        forwarded = []
        forward_batch = SetQNetwork.forward_batch

        def spy(network, states):
            forwarded.append((network, len(states)))
            return forward_batch(network, states)

        monkeypatch.setattr(SetQNetwork, "forward_batch", spy)
        shared_targets = learner.td_targets_batch(transitions)
        assert forwarded == [(learner.target, len(distinct)), (learner.online, len(distinct))]

        forwarded.clear()
        unshared_targets = learner.td_targets_batch(unshared)
        assert forwarded == [(learner.target, len(branches)), (learner.online, len(branches))]
        assert np.array_equal(shared_targets, unshared_targets)
        scalar = np.array([td_target(learner, t) for t in transitions])
        np.testing.assert_allclose(shared_targets, scalar, atol=TOL)

    def test_shared_state_train_step_matches_unbatched_reference(self, schema):
        """Each distinct state is scored once; the step still matches the reference."""
        transformer = StateTransformer(schema)
        learner, memory = build_learner_and_shared_memory(schema, transformer)
        # deepcopy keeps the memory's own sharing, so this is the first batch.
        first, _, _ = copy.deepcopy(memory).sample(learner.batch_size)
        assert len({id(t.state) for t in first}) < len(first), "expected shared states"
        self.assert_steps_match_reference(
            lambda: build_learner_and_shared_memory(schema, transformer)
        )

    def test_train_step_gradients_match_reference(self, schema):
        """One step: parameter gradients agree before the optimizer update."""
        transformer = StateTransformer(schema)
        learner_a, memory_a = build_learner_and_memory(schema, transformer)
        learner_b, memory_b = build_learner_and_memory(schema, transformer)
        # Capture gradients by disabling the update: lr has to stay positive,
        # so use a tiny value and compare grads directly after the step.
        grads = {}
        for learner, memory, key in ((learner_a, memory_a, "batched"),
                                     (learner_b, memory_b, "unbatched")):
            if key == "batched":
                learner.train_step(memory)
            else:
                train_step_unbatched(learner, memory)
            grads[key] = {
                name: param.grad.copy()
                for name, param in learner.online.named_parameters()
                if param.grad is not None
            }
        assert grads["batched"].keys() == grads["unbatched"].keys()
        assert grads["batched"], "expected non-empty gradients"
        for name in grads["batched"]:
            np.testing.assert_allclose(
                grads["batched"][name], grads["unbatched"][name], atol=TOL, err_msg=name
            )

    def test_train_step_with_no_future_branches(self, schema):
        transformer = StateTransformer(schema)
        learner, memory = build_learner_and_memory(schema, transformer, max_branches=0)
        report = learner.train_step(memory)
        assert report is not None
        transitions, _, _ = memory.sample(8)
        targets = learner.td_targets_batch(transitions)
        np.testing.assert_allclose(targets, [t.reward for t in transitions], atol=TOL)


class TestRowCountBuckets:
    """A lone learner's ragged train-step forwards split into row-count buckets."""

    @staticmethod
    def spy_forwards(monkeypatch) -> list:
        forwarded = []
        forward_batch = SetQNetwork.forward_batch

        def spy(network, states):
            forwarded.append((network, len(states)))
            return forward_batch(network, states)

        monkeypatch.setattr(SetQNetwork, "forward_batch", spy)
        return forwarded

    def test_split_targets_match_reference_and_an_unshared_copy(self, schema, monkeypatch):
        """Buckets follow the batch as sampled, so a copy sharing no state splits alike."""
        transformer = StateTransformer(schema)
        learner, memory = build_learner_and_bimodal_memory(schema, transformer)
        forwarded = self.spy_forwards(monkeypatch)
        for _ in range(10):
            transitions, _, _ = memory.sample(learner.batch_size)
            unshared = [copy.deepcopy(transition) for transition in transitions]
            branches = [
                state for t in transitions for _, state in t.future_states if state.num_tasks
            ]
            distinct = {id(state) for state in branches}
            assert len(distinct) < len(branches), "the sample should repeat branch objects"

            forwarded.clear()
            learner.invalidate_target_cache()
            shared_targets = learner.td_targets_batch(transitions)
            for role in (learner.target, learner.online):
                sizes = [size for network, size in forwarded if network is role]
                assert len(sizes) > 1, "expected a split forward"
                assert sum(sizes) == len(distinct)

            forwarded.clear()
            unshared_targets = learner.td_targets_batch(unshared)
            for role in (learner.target, learner.online):
                sizes = [size for network, size in forwarded if network is role]
                assert sum(sizes) == len(branches)
            assert np.array_equal(shared_targets, unshared_targets)
            scalar = np.array([td_target(learner, t) for t in transitions])
            np.testing.assert_allclose(shared_targets, scalar, atol=TOL)
            np.testing.assert_allclose(unshared_targets, scalar, atol=TOL)

    def test_split_train_step_matches_unbatched_reference(self, schema, monkeypatch):
        transformer = StateTransformer(schema)
        forwarded = self.spy_forwards(monkeypatch)
        TestTrainStepEquivalence.assert_steps_match_reference(
            lambda: build_learner_and_bimodal_memory(schema, transformer)
        )
        # The reference scores state by state, so every call seen is the
        # batched step's; six steps with one call per role would make <= 18.
        assert len(forwarded) > 18, "expected split forwards"

    @pytest.mark.parametrize("graph", [False, True])
    def test_each_state_gets_its_bucket_calls_values(self, schema, graph):
        transformer = StateTransformer(schema)
        learner, memory = build_learner_and_bimodal_memory(schema, transformer)
        transitions, _, _ = memory.sample(learner.batch_size)
        unique, inverse = distinct_states([t.state for t in transitions])
        rows = np.array([state.matrix.shape[0] for state in unique])
        network = learner.online
        with contextlib.nullcontext() if graph else no_grad():
            bounds = row_buckets(rows[inverse], network.hidden_dim, graph)
            assert len(bounds) > 1, "expected a split"
            values = _group_forward([network], [(unique, inverse)])
            assert values.requires_grad == graph
            low = 0
            for bound in bounds:
                members = np.flatnonzero((rows > low) & (rows <= bound))
                alone = network.forward_batch([unique[i] for i in members]).numpy()
                assert alone.shape == (len(members), bound)
                assert np.array_equal(values.numpy()[0, members, :bound], alone)
                low = bound

    def test_uniform_and_serve_shaped_batches_take_one_call(self, schema, monkeypatch):
        for graph in (False, True):
            # A fixed max_tasks pads every state to one shape: one bucket at any width.
            assert row_buckets(np.full(64, 12), 64, graph) == [12]
            # A serve tenant (hidden 16, batch 8, up to three branches per
            # transition) at the widest spread: half its states 1 row, half 20.
            for count in (8, 24):
                assert row_buckets(np.repeat([1, 20], count // 2), 16, graph) == [20]
        fixed = StateTransformer(schema, max_tasks=20)
        uniform, uniform_memory = build_learner_and_bimodal_memory(schema, fixed)
        serve, serve_memory = build_learner_and_bimodal_memory(
            schema, StateTransformer(schema), hidden_dim=16, batch_size=8
        )
        forwarded = self.spy_forwards(monkeypatch)
        for learner, memory in ((uniform, uniform_memory), (serve, serve_memory)):
            forwarded.clear()
            learner.train_step(memory)
            assert [network for network, _ in forwarded] == [
                learner.target, learner.online, learner.online
            ]


def descend(tree: SumTree, values) -> np.ndarray:
    """``find_leaves`` over a one-tree stack: the descent a one-memory draw makes."""
    queries = np.asarray(values, dtype=np.float64)[np.newaxis]
    return find_leaves(tree._tree[np.newaxis], queries)[0]


class TestVectorizedSumTree:
    def test_update_batch_matches_scalar_updates(self):
        rng = np.random.default_rng(0)
        for capacity in (1, 5, 16, 33):
            scalar_tree, batch_tree = SumTree(capacity), SumTree(capacity)
            indices = rng.integers(0, capacity, size=4 * capacity)
            priorities = rng.random(4 * capacity) * 10
            for index, priority in zip(indices, priorities):
                sumtree_update(scalar_tree, int(index), float(priority))
            batch_tree.update_batch(indices, priorities)
            np.testing.assert_array_equal(scalar_tree._tree, batch_tree._tree)

    def test_update_batch_duplicate_indices_last_write_wins(self):
        tree = SumTree(8)
        tree.update_batch(np.array([2, 2, 2]), np.array([1.0, 5.0, 3.0]))
        assert tree.get(2) == 3.0
        assert tree.total == pytest.approx(3.0)

    def test_stacked_descent_matches_scalar_find(self):
        rng = np.random.default_rng(1)
        tree = SumTree(20)
        tree.update_batch(np.arange(20), rng.random(20) * 3)
        queries = rng.uniform(0, tree.total, size=200)
        scalar = np.array([sumtree_find(tree, float(v)) for v in queries])
        np.testing.assert_array_equal(scalar, descend(tree, queries))
        # Zero leaves, an empty right half and queries on the boundaries: a
        # query at or just past a subtree's sum must stay out of empty ones.
        sparse = SumTree(20)
        priorities = rng.random(13) * 3
        priorities[[2, 5, 6]] = 0.0
        sparse.update_batch(np.arange(13), priorities)
        total = sparse.total
        edges = np.concatenate([[0.0, total, np.nextafter(total, np.inf)], np.cumsum(priorities)])
        scalar = np.array([sumtree_find(sparse, float(v)) for v in edges])
        np.testing.assert_array_equal(scalar, descend(sparse, edges))

    def test_randomized_interleaved_update_find_sequences(self):
        rng = np.random.default_rng(2)
        scalar_tree, batch_tree = SumTree(12), SumTree(12)
        for _ in range(30):
            k = int(rng.integers(1, 6))
            indices = rng.integers(0, 12, size=k)
            priorities = rng.random(k)
            for index, priority in zip(indices, priorities):
                sumtree_update(scalar_tree, int(index), float(priority))
            batch_tree.update_batch(indices, priorities)
            if scalar_tree.total > 0:
                queries = rng.uniform(0, scalar_tree.total, size=8)
                expected = np.array([sumtree_find(scalar_tree, float(v)) for v in queries])
                np.testing.assert_array_equal(expected, descend(batch_tree, queries))

    def test_update_batch_validates_input(self):
        tree = SumTree(4)
        with pytest.raises(IndexError):
            tree.update_batch(np.array([4]), np.array([1.0]))
        with pytest.raises(ValueError):
            tree.update_batch(np.array([0]), np.array([-1.0]))
        with pytest.raises(ValueError):
            tree.update_batch(np.array([0, 1]), np.array([1.0]))
        tree.update_batch(np.array([], dtype=np.int64), np.array([]))  # no-op


class TestVectorizedReplaySampling:
    def test_sample_draws_match_scalar_reference_stream(self, schema):
        """The vectorized stratified draw consumes the RNG identically."""
        transformer = StateTransformer(schema)
        _, memory = build_learner_and_memory(schema, transformer, seed=11)
        reference_rng = np.random.default_rng(11)
        # Advance the reference stream exactly as the memory's rng was used
        # so far: it has not been used before the first sample() call.
        count = 16
        total = memory._tree.total
        segment = total / count
        expected_targets = np.array(
            [reference_rng.uniform(slot * segment, (slot + 1) * segment) for slot in range(count)]
        )
        expected_indices = np.minimum(
            np.array([sumtree_find(memory._tree, float(v)) for v in expected_targets]),
            len(memory) - 1,
        )
        _, indices, _ = memory.sample(count)
        np.testing.assert_array_equal(indices, expected_indices)

    def test_update_priorities_matches_scalar_semantics(self, schema):
        transformer = StateTransformer(schema)
        _, memory_a = build_learner_and_memory(schema, transformer, seed=5)
        _, memory_b = build_learner_and_memory(schema, transformer, seed=5)
        indices = np.array([0, 3, 3, 7])
        errors = np.array([0.5, 1.5, 0.25, 2.0])
        # Scalar reference (the seed implementation).
        for index, error in zip(indices, errors):
            priority = float(abs(error)) + memory_a.epsilon
            memory_a._max_priority = max(memory_a._max_priority, priority)
            sumtree_update(memory_a._tree, int(index), priority**memory_a.alpha)
        memory_b.update_priorities(indices, errors)
        assert memory_a._max_priority == pytest.approx(memory_b._max_priority)
        np.testing.assert_allclose(memory_a._tree._tree, memory_b._tree._tree, atol=1e-12)
