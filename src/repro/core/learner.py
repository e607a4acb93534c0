"""Double-DQN learner with the paper's revised Bellman targets (Eq. 3 / Eq. 6).

The learner maintains an online network ``Q`` and a target network ``Q̃``
(double Q-learning [27]): the online network selects the best future action
and the target network evaluates it, which counteracts over-estimation of Q
values.  Targets integrate over the explicitly predicted future-state
distribution::

    y_i = r_i + γ * Σ_b  Pr(s_b) * Q̃(s_b, argmax_a Q(s_b, a))

where the branches ``s_b`` come from the future-state predictors.  Training
minimises the (importance-weighted) mean-squared TD error over a replay
batch, with gradient clipping, and the target network is refreshed by a hard
parameter copy every ``target_sync_interval`` updates (the paper copies
``θ̃ ← θ`` every 100 iterations).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..nn import Adam, Tensor, no_grad
from .qnetwork import SetQNetwork
from .replay import PrioritizedReplayMemory, ReplayMemory, Transition
from .state import StateMatrix, distinct_states

__all__ = ["DoubleDQNLearner", "TargetBranches", "TrainStepReport"]


@dataclass
class TrainStepReport:
    """Diagnostics from one optimisation step."""

    loss: float
    mean_abs_td_error: float
    batch_size: int
    gradient_norm: float


@dataclass
class TargetBranches:
    """The non-empty future-state branches behind a batch's Bellman targets.

    :meth:`DoubleDQNLearner.td_targets_batch` and the lockstep group trainer
    (:mod:`repro.core.vectorized`) share this bookkeeping and differ only in
    how they run its two forwards: the *target* network on the branches
    whose memoised Q-vector is stale (:meth:`uncached`, stored back by
    :meth:`memoise`) and the *online* network on every branch, whose argmax
    picks the action the target network evaluates (:meth:`targets`).
    """

    learner: "DoubleDQNLearner"
    rewards: np.ndarray
    states: list[StateMatrix] = field(default_factory=list)
    owner: list[int] = field(default_factory=list)
    prob: list[float] = field(default_factory=list)
    source: list[tuple[Transition, int]] = field(default_factory=list)

    @classmethod
    def collect(
        cls, learner: "DoubleDQNLearner", transitions: list[Transition]
    ) -> "TargetBranches":
        branches = cls(learner, np.array([t.reward for t in transitions], dtype=np.float64))
        for i, transition in enumerate(transitions):
            for slot, (probability, future_state) in enumerate(transition.future_states):
                if future_state.num_tasks == 0:
                    continue
                branches.states.append(future_state)
                branches.owner.append(i)
                branches.prob.append(probability)
                branches.source.append((transition, slot))
        return branches

    def uncached(self) -> list[int]:
        """Branches whose target Q-vector was not memoised since the last sync."""
        version = self.learner._target_version
        return [
            j
            for j, (transition, _) in enumerate(self.source)
            if transition.target_cache_version != version
        ]

    def memoise(self, indices: list[int], values: np.ndarray) -> None:
        """Store target-network rows ``values[k]`` for branches ``indices[k]``."""
        version = self.learner._target_version
        for row, j in enumerate(indices):
            transition, slot = self.source[j]
            if transition.target_cache_version != version:
                transition.target_cache = [None] * len(transition.future_states)
                transition.target_cache_version = version
            transition.target_cache[slot] = values[row, : self.states[j].num_tasks].copy()

    def targets(self, online_values: np.ndarray) -> np.ndarray:
        """Rewards plus discounted expected target values at the online argmax."""
        # Restrict the argmax to each branch's real tasks (rows beyond
        # num_tasks are padding added by the batching).
        counts = np.array([state.num_tasks for state in self.states])
        columns = np.arange(online_values.shape[1])
        padded = columns[np.newaxis, :] >= counts[:, np.newaxis]
        best_actions = np.argmax(np.where(padded, -np.inf, online_values), axis=1)
        branch_values = np.empty(len(self.states), dtype=np.float64)
        for j, (transition, slot) in enumerate(self.source):
            branch_values[j] = transition.target_cache[slot][best_actions[j]]
        expected_future = np.zeros(len(self.rewards), dtype=np.float64)
        np.add.at(expected_future, np.asarray(self.owner), np.asarray(self.prob) * branch_values)
        return self.rewards + self.learner.gamma * expected_future


class DoubleDQNLearner:
    """Optimises a :class:`SetQNetwork` from a replay memory."""

    # Source of globally unique target-cache tokens: transitions may be
    # shared between learner instances (or a learner may be rebuilt over a
    # persisted memory), so a plain per-learner counter could collide and
    # serve another learner's cached target values.
    _cache_tokens = itertools.count(1)

    def __init__(
        self,
        network: SetQNetwork,
        gamma: float = 0.5,
        learning_rate: float = 1e-3,
        batch_size: int = 64,
        target_sync_interval: int = 100,
        grad_clip: float = 10.0,
    ) -> None:
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"discount factor must be in [0, 1], got {gamma}")
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if target_sync_interval <= 0:
            raise ValueError("target_sync_interval must be positive")
        self.online = network
        self.target = network.clone()
        self.gamma = gamma
        self.batch_size = batch_size
        self.target_sync_interval = target_sync_interval
        self.grad_clip = grad_clip
        self.optimizer = Adam(list(network.parameters()), lr=learning_rate)
        self.updates = 0
        # Refreshed on every hard target sync; invalidates the per-transition
        # target-network caches (see Transition.target_cache).
        self._target_version = next(DoubleDQNLearner._cache_tokens)

    # ------------------------------------------------------------------ #
    @no_grad()
    def td_targets_batch(self, transitions: list[Transition]) -> np.ndarray:
        """Revised Bellman targets for a whole batch in two batched forwards.

        Every non-empty future-state branch of every transition is flattened
        into one padded mega-batch; a single batched *online* forward selects
        the best future action per branch and the *target* network evaluates
        it (double Q-learning), instead of two forwards per branch.  Target
        Q-vectors are additionally memoised on the transition (the target
        network is frozen between hard syncs and ``future_states`` is
        immutable), so in steady state only branches that have never been
        seen since the last sync cost a target forward.

        Both forwards score each distinct branch object once
        (:func:`~repro.core.state.distinct_states`): sibling transitions of
        one feedback share their ``future_states``, so a batch repeats
        branch states.  Dropping the repeats only shrinks the GEMM row
        count, which leaves every value bit-identical (M-invariance, pinned
        for M >= 2 by ``tests/core/test_stacked_equivalence.py``).  Matches
        the per-transition reference in ``tests/core/reference.py`` to float
        tolerance.
        """
        branches = TargetBranches.collect(self, transitions)
        if not branches.states:
            return branches.rewards
        uncached = branches.uncached()
        if uncached:
            unique, inverse = distinct_states([branches.states[j] for j in uncached])
            branches.memoise(uncached, self.target.forward_batch(unique).numpy()[inverse])
        unique, inverse = distinct_states(branches.states)
        return branches.targets(self.online.forward_batch(unique).numpy()[inverse])

    # ------------------------------------------------------------------ #
    def train_step(
        self, memory: ReplayMemory | PrioritizedReplayMemory
    ) -> TrainStepReport | None:
        """Sample a batch, perform one gradient step, refresh priorities.

        This is the batched engine: all TD targets come from two batched
        forwards (:meth:`td_targets_batch`) and all predictions plus the
        weighted loss form **one** autograd graph over a padded
        ``(B, rows, dim)`` mega-batch, instead of ``O(batch_size)`` separate
        graphs.  ``B`` counts distinct state objects, not transitions:
        siblings of one feedback share their ``state``, so each distinct
        state is scored once and every transition gathers its
        ``(state, action)`` value from that row.  Numerically it matches the
        per-sample reference in ``tests/core/reference.py`` (same RNG draws,
        same targets to float tolerance).

        Returns ``None`` when the memory is still empty.
        """
        if len(memory) == 0:
            return None
        transitions, indices, weights = memory.sample(self.batch_size)
        return self.train_step_on(memory, transitions, indices, weights)

    def train_step_on(
        self,
        memory: ReplayMemory | PrioritizedReplayMemory,
        transitions: list[Transition],
        indices: np.ndarray,
        weights: np.ndarray,
        targets: np.ndarray | None = None,
    ) -> TrainStepReport:
        """One gradient step on an already-sampled batch.

        The tail of :meth:`train_step` after sampling, split out so the
        episode-vectorized group trainer (which samples every replica first,
        then fuses same-shaped forwards across replicas) can drive the exact
        same update path.  ``targets`` may be precomputed (the group trainer
        fuses the target forwards too); ``None`` computes them here.
        """
        if targets is None:
            targets = self.td_targets_batch(transitions)

        unique, inverse = distinct_states([t.state for t in transitions])
        values = self.online.forward_batch(unique)
        actions = np.array([t.action_index for t in transitions], dtype=np.int64)
        stacked = values[inverse, actions]

        # Targets and IS weights join the loss graph in the network's compute
        # dtype, so a float32 network never silently promotes back to float64.
        dtype = self.online.dtype
        weight_tensor = Tensor(np.asarray(weights, dtype=dtype))
        diff = stacked - Tensor(np.asarray(targets, dtype=dtype))
        loss = (weight_tensor * diff * diff).mean()

        return self._apply_update(memory, loss, targets, stacked.numpy(), indices, len(transitions))

    def _apply_update(
        self,
        memory: ReplayMemory | PrioritizedReplayMemory,
        loss: Tensor,
        targets: np.ndarray,
        predictions: np.ndarray,
        indices: np.ndarray,
        batch_size: int,
    ) -> TrainStepReport:
        """Backprop ``loss``, clip, step, refresh priorities and sync targets."""
        self.optimizer.zero_grad()
        loss.backward()
        return self._finish_update(
            memory, float(loss.item()), targets, predictions, indices, batch_size
        )

    def _finish_update(
        self,
        memory: ReplayMemory | PrioritizedReplayMemory,
        loss_value: float,
        targets: np.ndarray,
        predictions: np.ndarray,
        indices: np.ndarray,
        batch_size: int,
    ) -> TrainStepReport:
        """Clip, step, refresh priorities and sync targets — gradients already set.

        Shared by the serial path (after its own ``backward``) and the
        episode-vectorized group trainer, whose single backward over the
        stacked graph has already deposited this learner's gradients into the
        optimiser's flat buffer.
        """
        # Single reduction over the optimizer's flat gradient buffer; the
        # scaled flat gradient is exactly what the fused step consumes.
        gradient_norm = self.optimizer.clip_grad_norm_(self.grad_clip)
        self.optimizer.step()

        td_errors = targets - predictions
        memory.update_priorities(indices, np.abs(td_errors))

        self.updates += 1
        if self.updates % self.target_sync_interval == 0:
            self.sync_target()

        return TrainStepReport(
            loss=loss_value,
            mean_abs_td_error=float(np.mean(np.abs(td_errors))),
            batch_size=batch_size,
            gradient_norm=gradient_norm,
        )

    def sync_target(self) -> None:
        """Hard-copy online parameters into the target network (θ̃ ← θ)."""
        self.target.load_state_dict(self.online.state_dict())
        # Invalidate every per-transition target cache (lazily, by token).
        self._target_version = next(DoubleDQNLearner._cache_tokens)

    def invalidate_target_cache(self) -> None:
        """Drop all memoised target Q-vectors without touching the networks.

        Called at checkpoint boundaries: the caches are not persisted, so
        invalidating them on the live learner too guarantees that a restored
        learner and the one that kept running recompute identical values in
        identical batch shapes — bit-for-bit deterministic resume.
        """
        self._target_version = next(DoubleDQNLearner._cache_tokens)

    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Online + target parameters, optimiser moments and the update counter."""
        return {
            "online": self.online.state_dict(),
            "target": self.target.state_dict(),
            "optimizer": self.optimizer.state_dict(),
            "updates": self.updates,
        }

    def load_state_dict(self, state: dict) -> None:
        self.online.load_state_dict(state["online"])
        self.target.load_state_dict(state["target"])
        self.optimizer.load_state_dict(state["optimizer"])
        self.updates = int(state["updates"])
        self.invalidate_target_cache()
