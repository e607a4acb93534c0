"""Tests for the state transformer and the set Q-network."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SetQNetwork, StateTransformer
from repro.crowd import FeatureSchema
from repro.nn import Adam, Tensor, mse_loss


@pytest.fixture
def schema():
    return FeatureSchema(num_categories=4, num_domains=3, award_bins=(100.0, 300.0))


def random_state(schema, transformer, num_tasks=5, seed=0, with_quality=False):
    rng = np.random.default_rng(seed)
    worker = rng.dirichlet(np.ones(schema.worker_dim))
    tasks = np.zeros((num_tasks, schema.task_dim))
    for row in range(num_tasks):
        tasks[row, rng.integers(0, schema.num_categories)] = 1.0
        tasks[row, schema.num_categories + rng.integers(0, schema.num_domains)] = 1.0
        tasks[row, schema.num_categories + schema.num_domains + rng.integers(0, schema.num_award_bins)] = 1.0
    kwargs = {}
    if with_quality:
        kwargs = {"worker_quality": 0.7, "task_qualities": rng.random(num_tasks)}
    return transformer.transform(worker, tasks, list(range(num_tasks)), **kwargs)


class TestStateTransformer:
    def test_row_dim_without_quality(self, schema):
        transformer = StateTransformer(schema, interaction=False)
        assert transformer.row_dim == schema.task_dim + schema.worker_dim

    def test_row_dim_with_interaction_and_quality(self, schema):
        transformer = StateTransformer(schema, include_quality=True, interaction=True)
        assert transformer.row_dim == 3 * schema.task_dim + 2

    def test_transform_shapes_without_padding(self, schema):
        transformer = StateTransformer(schema)
        state = random_state(schema, transformer, num_tasks=6)
        assert state.matrix.shape == (6, transformer.row_dim)
        assert state.mask.shape == (6,)
        assert not state.mask.any()
        assert state.task_ids == list(range(6))

    def test_transform_pads_to_max_tasks(self, schema):
        transformer = StateTransformer(schema, max_tasks=10)
        state = random_state(schema, transformer, num_tasks=4)
        assert state.matrix.shape == (10, transformer.row_dim)
        assert state.mask.sum() == 6
        np.testing.assert_allclose(state.matrix[4:], 0.0)

    def test_transform_truncates_overflow(self, schema):
        transformer = StateTransformer(schema, max_tasks=3)
        state = random_state(schema, transformer, num_tasks=5)
        assert state.num_tasks == 3
        assert state.task_ids == [0, 1, 2]

    def test_interaction_block_is_elementwise_product(self, schema):
        transformer = StateTransformer(schema, interaction=True)
        state = random_state(schema, transformer, num_tasks=3, seed=1)
        task_block = state.matrix[:, : schema.task_dim]
        worker_block = state.matrix[:, schema.task_dim : schema.task_dim + schema.worker_dim]
        interaction = state.matrix[:, schema.task_dim + schema.worker_dim :]
        np.testing.assert_allclose(interaction, task_block * worker_block[:, : schema.task_dim])

    def test_quality_columns_are_appended(self, schema):
        transformer = StateTransformer(schema, include_quality=True, interaction=False)
        state = random_state(schema, transformer, num_tasks=3, with_quality=True)
        assert np.allclose(state.matrix[:3, -2], 0.7)

    def test_quality_required_for_mdp_r(self, schema):
        transformer = StateTransformer(schema, include_quality=True)
        with pytest.raises(ValueError):
            random_state(schema, transformer, num_tasks=2, with_quality=False)

    def test_dimension_validation(self, schema):
        transformer = StateTransformer(schema)
        with pytest.raises(ValueError):
            transformer.transform(np.zeros(3), np.zeros((2, schema.task_dim)), [0, 1])
        with pytest.raises(ValueError):
            transformer.transform(
                np.zeros(schema.worker_dim), np.zeros((2, schema.task_dim + 1)), [0, 1]
            )
        with pytest.raises(ValueError):
            transformer.transform(np.zeros(schema.worker_dim), np.zeros((2, schema.task_dim)), [0])

    def test_replace_worker_feature_updates_worker_and_interaction(self, schema):
        transformer = StateTransformer(schema, interaction=True)
        state = random_state(schema, transformer, num_tasks=3, seed=2)
        new_worker = np.zeros(schema.worker_dim)
        new_worker[0] = 1.0
        updated = transformer.replace_worker_feature(state, new_worker)
        worker_block = updated.matrix[:, schema.task_dim : schema.task_dim + schema.worker_dim]
        np.testing.assert_allclose(worker_block, np.tile(new_worker, (3, 1)))
        interaction = updated.matrix[:, schema.task_dim + schema.worker_dim :]
        np.testing.assert_allclose(
            interaction, updated.matrix[:, : schema.task_dim] * new_worker[: schema.task_dim]
        )
        # Original untouched.
        assert not np.allclose(state.matrix, updated.matrix)

    def test_replace_task_quality(self, schema):
        transformer = StateTransformer(schema, include_quality=True)
        state = random_state(schema, transformer, num_tasks=3, with_quality=True)
        updated = transformer.replace_task_quality(state, task_id=1, new_quality=9.0)
        assert updated.matrix[1, -1] == 9.0
        assert state.matrix[1, -1] != 9.0

    def test_replace_task_quality_requires_quality_mode(self, schema):
        transformer = StateTransformer(schema, include_quality=False)
        state = random_state(schema, transformer, num_tasks=2)
        with pytest.raises(ValueError):
            transformer.replace_task_quality(state, 0, 1.0)

    def test_without_tasks_removes_rows_and_ids(self, schema):
        transformer = StateTransformer(schema)
        state = random_state(schema, transformer, num_tasks=4)
        smaller = state.without_tasks({1, 3})
        assert smaller.task_ids == [0, 2]
        assert smaller.num_tasks == 2
        np.testing.assert_allclose(smaller.matrix[0], state.matrix[0])
        np.testing.assert_allclose(smaller.matrix[1], state.matrix[2])


class TestSetQNetwork:
    def test_outputs_one_value_per_row(self, schema):
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=16, num_heads=2, seed=0)
        state = random_state(schema, transformer, num_tasks=7)
        assert network.q_values(state).shape == (7,)

    def test_empty_state_returns_empty_values(self, schema):
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=16, num_heads=2)
        state = transformer.transform(
            np.zeros(schema.worker_dim), np.zeros((0, schema.task_dim)), []
        )
        assert network.q_values(state).shape == (0,)

    def test_padding_does_not_affect_real_q_values(self, schema):
        unpadded = StateTransformer(schema)
        padded = StateTransformer(schema, max_tasks=12)
        network = SetQNetwork(unpadded.row_dim, hidden_dim=16, num_heads=2, seed=1)
        state_a = random_state(schema, unpadded, num_tasks=5, seed=3)
        state_b = random_state(schema, padded, num_tasks=5, seed=3)
        np.testing.assert_allclose(
            network.q_values(state_a), network.q_values(state_b), atol=1e-8
        )

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=500), num_tasks=st.integers(min_value=2, max_value=8))
    def test_permutation_invariance_of_q_values(self, schema, seed, num_tasks):
        """Reordering the available tasks permutes the Q values identically."""
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=16, num_heads=2, seed=0)
        state = random_state(schema, transformer, num_tasks=num_tasks, seed=seed)
        rng = np.random.default_rng(seed)
        permutation = rng.permutation(num_tasks)
        permuted = type(state)(
            matrix=state.matrix[permutation],
            mask=state.mask[permutation],
            task_ids=[state.task_ids[i] for i in permutation],
        )
        q_original = network.q_values(state)
        q_permuted = network.q_values(permuted)
        np.testing.assert_allclose(q_original[permutation], q_permuted, atol=1e-8)

    def test_q_values_depend_on_other_tasks_in_the_pool(self, schema):
        """The paper's point: tasks are competitive, so Q(s, t) is context-dependent."""
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=16, num_heads=2, seed=2)
        state_big = random_state(schema, transformer, num_tasks=6, seed=4)
        state_small = state_big.without_tasks(set(state_big.task_ids[3:]))
        q_big = network.q_values(state_big)[:3]
        q_small = network.q_values(state_small)
        assert not np.allclose(q_big, q_small)

    def test_clone_copies_parameters(self, schema):
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=16, num_heads=2, seed=0)
        clone = network.clone()
        state = random_state(schema, transformer, num_tasks=4)
        np.testing.assert_allclose(network.q_values(state), clone.q_values(state))

    def test_rejects_invalid_input_dim(self):
        with pytest.raises(ValueError):
            SetQNetwork(0)

    def test_network_is_trainable(self, schema):
        """A few gradient steps reduce a supervised regression loss."""
        transformer = StateTransformer(schema)
        network = SetQNetwork(transformer.row_dim, hidden_dim=16, num_heads=2, seed=0)
        optimizer = Adam(list(network.parameters()), lr=3e-3)
        rng = np.random.default_rng(0)
        states = [random_state(schema, transformer, num_tasks=5, seed=s) for s in range(10)]
        targets = [rng.random(5) for _ in range(10)]
        losses = []
        for _ in range(40):
            total = 0.0
            for state, target in zip(states, targets):
                values = network.forward(Tensor(state.matrix), mask=state.mask)
                loss = mse_loss(values, Tensor(target))
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                total += loss.item()
            losses.append(total)
        assert losses[-1] < losses[0] * 0.7
