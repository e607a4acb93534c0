"""Experience replay memories.

The paper stores transitions ``(s_i, a_i, r_i, s_{i+1})`` in a bounded buffer
ordered by occurrence time (Sec. II-C) and trains with **prioritized
experience replay** [25] (Sec. IV-D).  Because the framework predicts future
states explicitly, a stored transition carries a *distribution* over future
states — a small list of ``(probability, StateMatrix)`` branches produced by
the predictor — rather than a single successor.

A prioritized draw is written once, in :func:`sample_fused`, over M memories
at a time: their stratified targets descend their stacked SumTrees together,
and :meth:`PrioritizedReplayMemory.sample` is its one-memory call.  Likewise
a store is written once, in :meth:`PrioritizedReplayMemory.push_batch`, and
``push`` is its one-transition call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .state import StateMatrix, distinct_states, pack_state_matrices, unpack_state_matrices

__all__ = [
    "Transition",
    "ReplayMemory",
    "PrioritizedReplayMemory",
    "SumTree",
    "find_leaves",
    "sample_fused",
]


def _pack_transitions(transitions: list[Transition]) -> dict:
    """Encode transitions (including their future-state branches) as arrays.

    Each distinct :class:`StateMatrix` object is packed once, into one
    :func:`pack_state_matrices` block.  ``state_refs`` lists, transition by
    transition, the block index of its ``state`` followed by those of its
    branches; ``future_counts`` records how many branches belong to each
    transition.  Sibling transitions of one feedback share their ``state``
    and ``future_states`` objects, and the learner scores each distinct
    object of a batch once (:func:`~repro.core.state.distinct_states`), so
    a restored memory must share them too, or it would train on
    differently shaped batches than the memory that kept running.
    Target-network caches are deliberately not persisted — they are a pure
    memoisation that the learner rebuilds.
    """
    flat: list[StateMatrix] = []
    future_counts = np.zeros(len(transitions), dtype=np.int64)
    future_probs: list[float] = []
    for i, transition in enumerate(transitions):
        flat.append(transition.state)
        future_counts[i] = len(transition.future_states)
        for probability, future_state in transition.future_states:
            future_probs.append(probability)
            flat.append(future_state)
    states, state_refs = distinct_states(flat)
    return {
        "states": pack_state_matrices(states),
        "state_refs": state_refs,
        "action_index": np.array([t.action_index for t in transitions], dtype=np.int64),
        "reward": np.array([t.reward for t in transitions], dtype=np.float64),
        "timestamp": np.array([t.timestamp for t in transitions], dtype=np.float64),
        "future_counts": future_counts,
        "future_probs": np.array(future_probs, dtype=np.float64),
    }


def _unpack_transitions(packed: dict) -> list[Transition]:
    """Inverse of :func:`_pack_transitions`.

    The ``repro.framework/2`` layout had no ``state_refs``: it stored every
    state and branch in order, once per transition, and loads that way —
    without the sharing the writer's memory had.
    """
    states = unpack_state_matrices(packed["states"])
    refs = packed.get("state_refs")
    refs = np.arange(len(states)) if refs is None else np.asarray(refs, dtype=np.int64)
    action_index = np.asarray(packed["action_index"], dtype=np.int64)
    reward = np.asarray(packed["reward"], dtype=np.float64)
    timestamp = np.asarray(packed["timestamp"], dtype=np.float64)
    future_counts = np.asarray(packed["future_counts"], dtype=np.int64)
    future_probs = np.asarray(packed["future_probs"], dtype=np.float64)
    if refs.size != action_index.size + int(future_counts.sum()) or (
        refs.size and not 0 <= refs.min() <= refs.max() < len(states)
    ):
        raise ValueError("replay state references do not match the packed states")
    transitions: list[Transition] = []
    cursor = 0
    prob_cursor = 0
    for i in range(action_index.size):
        state = states[refs[cursor]]
        cursor += 1
        branches = []
        for _ in range(int(future_counts[i])):
            branches.append((float(future_probs[prob_cursor]), states[refs[cursor]]))
            cursor += 1
            prob_cursor += 1
        transitions.append(
            Transition(
                state=state,
                action_index=int(action_index[i]),
                reward=float(reward[i]),
                future_states=branches,
                timestamp=float(timestamp[i]),
            )
        )
    return transitions


@dataclass
class Transition:
    """One stored interaction.

    ``action_index`` indexes into ``state.task_ids`` (the recommended /
    completed task for successful transitions, or a skipped suggested task
    for failed ones).  ``future_states`` is the explicit distribution over
    successor states predicted at feedback time; probabilities sum to ≤ 1
    (branches below the truncation threshold are dropped).
    """

    state: StateMatrix
    action_index: int
    reward: float
    future_states: list[tuple[float, StateMatrix]] = field(default_factory=list)
    timestamp: float = 0.0


class ReplayMemory:
    """Uniform-sampling ring buffer (the paper's buffer size is 1 000)."""

    def __init__(self, capacity: int = 1_000, seed: int = 0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.rng = np.random.default_rng(seed)
        self._storage: list[Transition] = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._storage)

    def push(self, transition: Transition) -> None:
        """Insert a transition, overwriting the oldest once at capacity."""
        if len(self._storage) < self.capacity:
            self._storage.append(transition)
        else:
            self._storage[self._cursor] = transition
            self._cursor = (self._cursor + 1) % self.capacity

    def push_batch(self, transitions: list[Transition]) -> None:
        """Insert several transitions in order (equivalent to repeated push)."""
        for transition in transitions:
            self.push(transition)

    def sample(self, batch_size: int) -> tuple[list[Transition], np.ndarray, np.ndarray]:
        """Sample ``batch_size`` transitions uniformly.

        Returns ``(transitions, indices, weights)`` where the importance
        weights are all 1 (uniform sampling needs no correction); the
        signature matches :class:`PrioritizedReplayMemory` so learners can
        use either interchangeably.
        """
        if not self._storage:
            raise ValueError("cannot sample from an empty replay memory")
        count = min(batch_size, len(self._storage))
        indices = self.rng.choice(len(self._storage), size=count, replace=False)
        transitions = [self._storage[int(i)] for i in indices]
        return transitions, indices, np.ones(count, dtype=np.float64)

    def update_priorities(self, indices: np.ndarray, priorities: np.ndarray) -> None:
        """No-op for uniform replay (keeps the learner code generic)."""

    def clear(self) -> None:
        self._storage.clear()
        self._cursor = 0

    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Full buffer contents plus sampling RNG state (checkpointing)."""
        return {
            "transitions": _pack_transitions(self._storage),
            "cursor": self._cursor,
            "rng_state": self.rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        transitions = _unpack_transitions(state["transitions"])
        if len(transitions) > self.capacity:
            raise ValueError(
                f"checkpoint holds {len(transitions)} transitions, capacity is {self.capacity}"
            )
        self._storage = transitions
        self._cursor = int(state["cursor"])
        self.rng.bit_generator.state = state["rng_state"]


class SumTree:
    """A binary indexed tree storing priorities, supporting O(log n) sampling."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        # The tree is laid out as a complete binary tree, so the leaf count is
        # rounded up to the next power of two; the extra leaves keep priority 0
        # and are therefore never selected.
        self._leaf_count = 1
        while self._leaf_count < capacity:
            self._leaf_count *= 2
        self._tree = np.zeros(2 * self._leaf_count, dtype=np.float64)

    @property
    def total(self) -> float:
        """Sum of all stored priorities."""
        return float(self._tree[1])

    def update_batch(self, indices: np.ndarray, priorities: np.ndarray) -> None:
        """Set many leaf priorities at once.

        Leaves are written directly and the ancestor sums are rebuilt with
        one vectorized level-by-level propagation, so a batch of ``k``
        updates costs ``O(log n)`` numpy calls instead of ``k`` Python tree
        walks.  Duplicate indices behave like sequential updates: the last
        value wins.  Ancestors are recomputed as the sum of their children —
        never maintained with ``+= delta`` — so every internal node is a pure
        function of the current leaves.  This keeps the tree bit-identical
        across maintenance orders: one-leaf updates, batches and a
        checkpoint-restore rebuild from the leaves all agree exactly, which
        run-state resume relies on (a delta-maintained root drifts by ulps
        from the rebuilt one and perturbs stratified sampling).
        """
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        priorities = np.asarray(priorities, dtype=np.float64).reshape(-1)
        if indices.shape != priorities.shape:
            raise ValueError("indices and priorities must have matching lengths")
        if indices.size == 0:
            return
        if indices.min() < 0 or indices.max() >= self.capacity:
            raise IndexError(f"leaf indices out of range [0, {self.capacity})")
        if priorities.min() < 0:
            raise ValueError("priorities must be non-negative")
        if indices.size <= 8:
            # Small batches (one push, a small replay batch's priorities): a
            # walk from each leaf to the root beats the fixed costs of the
            # vectorized rounds below.  Leaf writes happen in order (last
            # write wins), and the last walk through a node follows the last
            # write below it, so every parent ends as the sum of its final
            # children — bit-identical to the vectorized propagation.
            tree = self._tree
            for index, priority in zip(indices.tolist(), priorities.tolist()):
                node = index + self._leaf_count
                tree[node] = priority
                node //= 2
                while node >= 1:
                    tree[node] = tree[2 * node] + tree[2 * node + 1]
                    node //= 2
            return
        # Keep only the last occurrence of each index (last write wins):
        # first occurrence in the reversed array = last occurrence overall.
        reversed_first = np.unique(indices[::-1], return_index=True)[1]
        keep = indices.size - 1 - reversed_first
        nodes = indices[keep] + self._leaf_count
        self._tree[nodes] = priorities[keep]
        parents = np.unique(nodes // 2)
        while parents.size and parents[0] >= 1:
            self._tree[parents] = self._tree[2 * parents] + self._tree[2 * parents + 1]
            parents = np.unique(parents // 2)

    def get(self, index: int) -> float:
        return float(self._tree[index + self._leaf_count])

    def get_batch(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`get` for an array of leaf indices."""
        return self._tree[np.asarray(indices, dtype=np.int64) + self._leaf_count]


class PrioritizedReplayMemory:
    """Proportional prioritized experience replay (Schaul et al., 2015).

    Sampling probability of transition *i* is ``p_i^alpha / sum_j p_j^alpha``
    where ``p_i = |TD error| + eps``; importance-sampling weights
    ``(N * P(i))^-beta`` (normalised by their maximum) correct the induced
    bias, with ``beta`` annealed from ``beta_start`` to 1.
    """

    def __init__(
        self,
        capacity: int = 1_000,
        alpha: float = 0.6,
        beta_start: float = 0.4,
        beta_increment: float = 1e-3,
        epsilon: float = 1e-2,
        seed: int = 0,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.capacity = capacity
        self.alpha = alpha
        self.beta = beta_start
        self.beta_increment = beta_increment
        self.epsilon = epsilon
        self.rng = np.random.default_rng(seed)
        self._tree = SumTree(capacity)
        self._storage: list[Transition] = []
        self._cursor = 0
        self._max_priority = 1.0

    def __len__(self) -> int:
        return len(self._storage)

    def push(self, transition: Transition) -> None:
        """Insert with maximal priority so new transitions are replayed soon."""
        self.push_batch([transition])

    def push_batch(self, transitions: list[Transition]) -> None:
        """Insert several transitions in order, each at maximal priority.

        Every transition enters at the same priority (``max_priority**alpha``
        never changes during pushes), so the tree work of the whole batch is
        one :meth:`SumTree.update_batch` call.  Because every internal node
        is a pure function of the leaves, a batch leaves the same tree as
        pushing its transitions one at a time — including when a batch larger
        than the remaining ring revisits a leaf, where the last write wins.
        """
        if not transitions:
            return
        priority = self._max_priority**self.alpha
        indices = np.empty(len(transitions), dtype=np.int64)
        for j, transition in enumerate(transitions):
            if len(self._storage) < self.capacity:
                index = len(self._storage)
                self._storage.append(transition)
            else:
                index = self._cursor
                self._storage[index] = transition
                self._cursor = (self._cursor + 1) % self.capacity
            indices[j] = index
        self._tree.update_batch(indices, np.full(indices.size, priority, dtype=np.float64))

    def sample(self, batch_size: int) -> tuple[list[Transition], np.ndarray, np.ndarray]:
        """Priority-proportional sample with importance-sampling weights.

        The one-memory call of :func:`sample_fused`.
        """
        if not self._storage:
            raise ValueError("cannot sample from an empty replay memory")
        return sample_fused([self], batch_size)[0]

    def update_priorities(self, indices: np.ndarray, td_errors: np.ndarray) -> None:
        """Refresh priorities with the latest absolute TD errors (batched)."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        priorities = np.abs(np.asarray(td_errors, dtype=np.float64).reshape(-1)) + self.epsilon
        if indices.size == 0:
            return
        self._max_priority = max(self._max_priority, float(priorities.max()))
        self._tree.update_batch(indices, priorities**self.alpha)

    def clear(self) -> None:
        self._storage.clear()
        self._cursor = 0
        self._tree = SumTree(self.capacity)
        self._max_priority = 1.0

    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Buffer contents, leaf priorities, β annealing and RNG state."""
        n = len(self._storage)
        return {
            "transitions": _pack_transitions(self._storage),
            "cursor": self._cursor,
            "beta": self.beta,
            "max_priority": self._max_priority,
            "priorities": self._tree.get_batch(np.arange(n, dtype=np.int64)),
            "rng_state": self.rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        transitions = _unpack_transitions(state["transitions"])
        if len(transitions) > self.capacity:
            raise ValueError(
                f"checkpoint holds {len(transitions)} transitions, capacity is {self.capacity}"
            )
        self._storage = transitions
        self._cursor = int(state["cursor"])
        self.beta = float(state["beta"])
        self._max_priority = float(state["max_priority"])
        self._tree = SumTree(self.capacity)
        priorities = np.asarray(state["priorities"], dtype=np.float64)
        if priorities.size != len(transitions):
            raise ValueError("priority leaves do not align with the stored transitions")
        if priorities.size:
            self._tree.update_batch(np.arange(priorities.size, dtype=np.int64), priorities)
        self.rng.bit_generator.state = state["rng_state"]


def find_leaves(trees: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The leaf of each tree whose cumulative priority range holds each value.

    ``trees`` stacks M same-depth :class:`SumTree` arrays ``(M, tree)`` and
    ``values`` holds one row of queries per tree ``(M, k)``.  The tree is
    complete, so every query descends one level per round: left when it fits
    in the left subtree's sum (or the right subtree is empty), else right
    after subtracting that sum.  Every operation is elementwise, so a row's
    leaves do not depend on the other rows.
    """
    leaf_count = trees.shape[1] // 2
    nodes = np.ones(values.shape, dtype=np.int64)
    rows = np.arange(len(trees))[:, np.newaxis]
    while nodes[0, 0] < leaf_count:
        left = 2 * nodes
        left_sums = trees[rows, left]
        go_left = (values <= left_sums) | (trees[rows, left + 1] <= 0.0)
        nodes = np.where(go_left, left, left + 1)
        values = np.where(go_left, values, values - left_sums)
    return nodes - leaf_count


def sample_fused(
    memories: list, batch_size: int
) -> list[tuple[list[Transition], np.ndarray, np.ndarray]]:
    """Draw one replay batch from each memory, one stacked tree descent per group.

    The one prioritized draw: :meth:`PrioritizedReplayMemory.sample` is its
    one-memory call.  Non-empty prioritized memories group by tree depth and
    draw size.  Each member takes its stratified targets from its own RNG
    (one uniform draw per ``total / count`` segment), and the group descends
    the ``(M, tree)`` stack of its trees in one :func:`find_leaves` call, so
    M ``log2(n)``-round descents cost one round-trip of numpy calls.  Each
    memory's leaves, importance weights ``(N * P(i))^-beta`` (normalised by
    their maximum) and β annealing are the same in any group.  A one-memory
    group descends a ``(1, tree)`` view of its tree, with no copy.

    Uniform memories and empty ones answer through their own ``sample``.
    """
    results: list = [None] * len(memories)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, memory in enumerate(memories):
        if isinstance(memory, PrioritizedReplayMemory) and memory._storage:
            count = min(batch_size, len(memory._storage))
            groups.setdefault((memory._tree._leaf_count, count), []).append(i)
        else:
            results[i] = memory.sample(batch_size)
    for (leaf_count, count), members in groups.items():
        group = [memories[i] for i in members]
        if len(group) == 1:
            trees = group[0]._tree._tree[np.newaxis]
        else:
            trees = np.stack([memory._tree._tree for memory in group])
        totals = [memory._tree.total for memory in group]
        slots = np.arange(count, dtype=np.float64)
        values = np.empty((len(group), count), dtype=np.float64)
        for row, (memory, total) in enumerate(zip(group, totals)):
            segment = total / count
            lows = slots * segment
            values[row] = memory.rng.uniform(lows, lows + segment)
        leaves = find_leaves(trees, values)
        for row, (i, memory, total) in enumerate(zip(members, group, totals)):
            indices = np.minimum(leaves[row], len(memory._storage) - 1)
            priorities = np.maximum(trees[row, indices + leaf_count], 1e-12)
            weights = (len(memory._storage) * (priorities / total)) ** (-memory.beta)
            weights /= weights.max()
            memory.beta = min(1.0, memory.beta + memory.beta_increment)
            results[i] = ([memory._storage[int(index)] for index in indices], indices, weights)
    return results
