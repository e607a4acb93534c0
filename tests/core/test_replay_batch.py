"""Batched replay paths: ``push_batch`` stores and ``sample_fused`` sampling.

``push`` is the one-transition call of ``push_batch`` and ``sample`` the
one-memory call of ``sample_fused``, which the vectorized train step calls
over many replicas' memories at once (one stacked SumTree descent).  Both
must be *bit-identical* to the paths they replaced: ``SumTree`` recomputes
each parent from its two children, so a batched push leaves the same tree as
one-leaf pushes, and the stacked draw makes each memory's RNG draws, leaves,
weights and beta annealing exactly those of a scalar tree walk per slot
(``tests/core/reference.py``), in a group of one or of M.
"""

import numpy as np
import pytest

from repro.core.replay import (
    PrioritizedReplayMemory,
    ReplayMemory,
    Transition,
    sample_fused,
)
from repro.core.state import StateMatrix
from tests.core.reference import prioritized_sample

FEATURE_DIM = 4


def make_transition(rng: np.random.Generator) -> Transition:
    num_tasks = int(rng.integers(1, 4))
    state = StateMatrix(
        matrix=rng.standard_normal((num_tasks, FEATURE_DIM)),
        mask=np.zeros(num_tasks, bool),
        task_ids=list(range(num_tasks)),
    )
    return Transition(
        state=state, action_index=0, reward=float(rng.uniform(-1.0, 1.0))
    )


def transitions(count: int, seed: int = 0) -> list[Transition]:
    rng = np.random.default_rng(seed)
    return [make_transition(rng) for _ in range(count)]


class TestPushBatch:
    @pytest.mark.parametrize("capacity,count", [(32, 10), (16, 16), (8, 30)])
    def test_tree_bitwise_equal_to_sequential_pushes(self, capacity, count):
        batched = PrioritizedReplayMemory(capacity=capacity, seed=0)
        serial = PrioritizedReplayMemory(capacity=capacity, seed=0)
        items = transitions(count)
        batched.push_batch(items)
        for item in items:
            serial.push(item)
        np.testing.assert_array_equal(batched._tree._tree, serial._tree._tree)
        assert len(batched) == len(serial)
        assert batched._cursor == serial._cursor

    def test_interleaved_with_priority_updates_stays_bitwise_equal(self):
        batched = PrioritizedReplayMemory(capacity=16, seed=0)
        serial = PrioritizedReplayMemory(capacity=16, seed=0)
        rng = np.random.default_rng(5)
        for round_index in range(6):
            items = transitions(5, seed=round_index)
            batched.push_batch(items)
            for item in items:
                serial.push(item)
            if len(serial) >= 4:
                indices = rng.integers(0, len(serial), size=3)
                errors = rng.uniform(0.0, 2.0, size=3)
                batched.update_priorities(indices, errors)
                serial.update_priorities(indices, errors)
        np.testing.assert_array_equal(batched._tree._tree, serial._tree._tree)

    def test_empty_batch_is_a_no_op(self):
        memory = PrioritizedReplayMemory(capacity=8, seed=0)
        memory.push_batch([])
        assert len(memory) == 0

    def test_uniform_memory_push_batch_matches_pushes(self):
        batched = ReplayMemory(capacity=8, seed=0)
        serial = ReplayMemory(capacity=8, seed=0)
        items = transitions(12)
        batched.push_batch(items)
        for item in items:
            serial.push(item)
        assert len(batched) == len(serial)
        assert [t.reward for t in batched._storage] == [t.reward for t in serial._storage]


def assert_sample_equal(fused, serial):
    fused_transitions, fused_indices, fused_weights = fused
    serial_transitions, serial_indices, serial_weights = serial
    # The fleets hold equal but distinct Transition objects; rewards identify
    # a draw unambiguously (each one is a fresh uniform float).
    assert [t.reward for t in fused_transitions] == [t.reward for t in serial_transitions]
    np.testing.assert_array_equal(fused_indices, serial_indices)
    np.testing.assert_array_equal(fused_weights, serial_weights)


def filled_memory(capacity: int, fill: int, seed: int) -> PrioritizedReplayMemory:
    memory = PrioritizedReplayMemory(capacity=capacity, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for item in transitions(fill, seed=seed):
        memory.push(item)
    if len(memory) >= 4:
        indices = rng.integers(0, len(memory), size=4)
        memory.update_priorities(indices, rng.uniform(0.1, 3.0, size=4))
    return memory


def assert_memories_equal(a, b):
    assert a.beta == b.beta
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


class TestSampleFused:
    @pytest.mark.parametrize("capacity,fill", [(1, 1), (8, 3), (32, 20), (1000, 700)])
    def test_one_memory_group_matches_reference_walks(self, capacity, fill):
        memory = filled_memory(capacity=capacity, fill=fill, seed=3)
        reference = filled_memory(capacity=capacity, fill=fill, seed=3)
        for batch_size in (1, 8, 64):
            [fused] = sample_fused([memory], batch_size=batch_size)
            assert_sample_equal(fused, prioritized_sample(reference, batch_size))
            expected = prioritized_sample(reference, batch_size)
            assert_sample_equal(memory.sample(batch_size), expected)
            assert_memories_equal(memory, reference)

    def test_m_memory_group_matches_reference_walks(self):
        make = lambda: [  # noqa: E731 - two identical fleets, fresh RNG state
            filled_memory(capacity=64, fill=40 + seed, seed=seed) for seed in range(4)
        ]
        fused_memories, reference_memories = make(), make()
        for _ in range(3):
            fused = sample_fused(fused_memories, batch_size=16)
            for sample, memory in zip(fused, reference_memories):
                assert_sample_equal(sample, prioritized_sample(memory, 16))
        for fused_memory, reference_memory in zip(fused_memories, reference_memories):
            assert_memories_equal(fused_memory, reference_memory)

    def test_empty_memory_still_refuses_to_sample(self):
        with pytest.raises(ValueError):
            PrioritizedReplayMemory(capacity=8, seed=0).sample(4)

    def test_bitwise_equal_to_serial_sampling(self):
        make = lambda: [  # noqa: E731 - two identical fleets, fresh RNG state
            filled_memory(capacity=32, fill=20, seed=seed) for seed in range(5)
        ]
        fused_memories, serial_memories = make(), make()
        for _ in range(4):
            fused = sample_fused(fused_memories, batch_size=8)
            serial = [memory.sample(8) for memory in serial_memories]
            for f, s in zip(fused, serial):
                assert_sample_equal(f, s)
        for fused_memory, serial_memory in zip(fused_memories, serial_memories):
            assert fused_memory.beta == serial_memory.beta
            assert (
                fused_memory.rng.bit_generator.state
                == serial_memory.rng.bit_generator.state
            )

    def test_mixed_sizes_and_kinds_fall_back_per_memory(self):
        def fleet():
            return [
                filled_memory(capacity=32, fill=20, seed=1),
                filled_memory(capacity=16, fill=16, seed=2),  # different tree
                filled_memory(capacity=32, fill=6, seed=3),  # short fill
                ReplayMemory(capacity=16, seed=4),
            ]

        fused_memories, serial_memories = fleet(), fleet()
        for memory in (fused_memories[3], serial_memories[3]):
            for item in transitions(10, seed=9):
                memory.push(item)
        fused = sample_fused(fused_memories, batch_size=8)
        serial = [memory.sample(8) for memory in serial_memories]
        for f, s in zip(fused, serial):
            assert_sample_equal(f, s)

    def test_empty_input(self):
        assert sample_fused([], batch_size=8) == []
