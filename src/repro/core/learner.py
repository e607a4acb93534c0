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

The train step is written once, over a group of learners:
:func:`bellman_targets` computes the targets of N ``(learner, transitions)``
jobs and :func:`gradient_updates` applies N gradient steps.  Jobs whose
networks share one architecture and whose states share one shape run each
forward as one call over the networks' stacked parameters
(:func:`repro.core.qnetwork.q_forward`), and each learner's slice of it is
bit-identical to its own call.  A lone job is the ``N = 1`` group: it
forwards through its network's
:meth:`~repro.core.qnetwork.SetQNetwork.forward_batch`, once per row-count
bucket of a ragged batch (:func:`row_buckets`).  Serial, async and
serve training make one-job calls through :meth:`DoubleDQNLearner.train_step`;
lockstep replicas (:func:`repro.core.vectorized.fused_train_steps`) make one
call over every agent due to train.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from ..nn import Adam, Tensor, is_grad_enabled, no_grad
from .qnetwork import SetQNetwork, pad_state_batch, q_forward, stack_parameters
from .replay import PrioritizedReplayMemory, ReplayMemory, Transition
from .state import StateMatrix, distinct_states

__all__ = [
    "DoubleDQNLearner",
    "TargetBranches",
    "TrainStepReport",
    "UpdateJob",
    "bellman_targets",
    "gradient_updates",
]


@dataclass
class TrainStepReport:
    """Diagnostics from one optimisation step."""

    loss: float
    mean_abs_td_error: float
    batch_size: int
    gradient_norm: float


@dataclass
class TargetBranches:
    """The non-empty future-state branches behind one job's Bellman targets.

    :func:`bellman_targets` runs two forwards over them: the *target*
    network on the branches missing from the learner's memo
    (:meth:`uncached`, stored back by :meth:`memoise`) and the *online*
    network on every branch, whose argmax picks the action the target
    network evaluates (:meth:`targets`).
    """

    learner: "DoubleDQNLearner"
    rewards: np.ndarray
    states: list[StateMatrix] = field(default_factory=list)
    owner: list[int] = field(default_factory=list)
    prob: list[float] = field(default_factory=list)
    #: ``id`` of each branch object: its key in the learner's target memo.
    keys: list[int] = field(default_factory=list)

    @classmethod
    def collect(
        cls, learner: "DoubleDQNLearner", transitions: list[Transition]
    ) -> "TargetBranches":
        branches = cls(learner, np.array([t.reward for t in transitions], dtype=np.float64))
        for i, transition in enumerate(transitions):
            for probability, future_state in transition.future_states:
                if future_state.num_tasks == 0:
                    continue
                branches.states.append(future_state)
                branches.owner.append(i)
                branches.prob.append(probability)
        branches.keys = list(map(id, branches.states))
        return branches

    def uncached(self) -> list[StateMatrix]:
        """Branches whose target Q-vector was not memoised since the last sync."""
        memo = self.learner._target_memo
        return [state for state, key in zip(self.states, self.keys) if key not in memo]

    def memoise(self, states: list[StateMatrix], values: np.ndarray) -> None:
        """Store target-network rows ``values[k]`` for branches ``states[k]``."""
        memo = self.learner._target_memo
        for state, row in zip(states, values):
            memo[id(state)] = (state, row[: state.num_tasks].copy())

    def targets(self, online_values: np.ndarray) -> np.ndarray:
        """Rewards plus discounted expected target values at the online argmax."""
        # Restrict the argmax to each branch's real tasks (rows beyond
        # num_tasks are padding added by the batching).
        counts = np.array([state.num_tasks for state in self.states])
        columns = np.arange(online_values.shape[1])
        padded = columns[np.newaxis, :] >= counts[:, np.newaxis]
        best_actions = np.argmax(np.where(padded, -np.inf, online_values), axis=1)
        memo = self.learner._target_memo
        branch_values = np.array(
            [memo[key][1][action] for key, action in zip(self.keys, best_actions)],
            dtype=np.float64,
        )
        expected_future = np.zeros(len(self.rewards), dtype=np.float64)
        np.add.at(expected_future, np.asarray(self.owner), np.asarray(self.prob) * branch_values)
        return self.rewards + self.learner.gamma * expected_future


class UpdateJob(NamedTuple):
    """One learner's sampled batch and its Bellman targets, ready to train on."""

    learner: "DoubleDQNLearner"
    memory: ReplayMemory | PrioritizedReplayMemory
    transitions: list[Transition]
    indices: np.ndarray
    weights: np.ndarray
    targets: np.ndarray


# --------------------------------------------------------------------- #
# The train step, over a group of learners
# --------------------------------------------------------------------- #
def _fusion_groups(indices: list[int], key: Callable[[int], tuple | None]) -> Iterable[list[int]]:
    """Job indices grouped by ``key``; a lone job, or one keyed None, forms its own group."""
    if len(indices) == 1:
        return [indices]
    groups: dict[tuple, list[int]] = {}
    for index in indices:
        found = key(index)
        groups.setdefault(("alone", index) if found is None else found, []).append(index)
    return groups.values()


def _shape_key(network: SetQNetwork, states: list[StateMatrix]) -> tuple | None:
    """The network's architecture and the states' common shape; None when ragged."""
    shape = states[0].matrix.shape
    for state in states:
        if state.matrix.shape != shape:
            return None
    return network.signature, shape


#: The fixed cost of one more graph-free forward call, in padded rows times
#: network width: a train-step forward splits its batch into row-count
#: buckets only where the padded rows x width a split saves exceed it.  A
#: graph forward pays it twice, once more for the call's backward.  Measured
#: on a 2-core x86-64 box at widths 16-64, one more call cost about 1,500
#: units graph-free and 3,000 with its backward; on the train-step forwards
#: of the ``learn`` benchmark workload any value from 2,048 to 8,192 ran as
#: fast, and this one leaves almost every forward of a serve tenant (width
#: 16, batch 8) in one call.
SPLIT_COST = 4096


def row_buckets(rows: np.ndarray, width: int, graph: bool) -> list[int]:
    """Padded row counts of the contiguous row-count buckets a batch splits into.

    ``rows`` are the row counts of the batch as sampled, repeats included.
    With ``r_1 < ... < r_k`` its distinct counts (at least 1, as
    :func:`~repro.core.qnetwork.pad_state_batch` pads), a bucket is a run
    ``r_i..r_j`` padded to ``r_j``.  The partition with the least padded
    rows x ``width`` plus :data:`SPLIT_COST` per call (doubled when the
    forward builds a graph) wins; a tie goes to the longer last bucket.  A
    uniform batch is one bucket.
    """
    sizes = np.bincount(np.maximum(rows, 1))
    counts = np.flatnonzero(sizes)
    if len(counts) == 1:
        return counts.tolist()
    counts, below = counts.tolist(), [0] + np.cumsum(sizes[counts]).tolist()
    call = SPLIT_COST * (2 if graph else 1) / width
    # best[j]: the least cost of the first j counts; start[j]: where its last bucket starts.
    best, start = [0.0], [0]
    for j in range(1, len(counts) + 1):
        cost, first = min(
            (best[i] + (below[j] - below[i]) * counts[j - 1] + call, i) for i in range(j)
        )
        best.append(cost)
        start.append(first)
    bounds, j = [], len(counts)
    while j:
        bounds.append(counts[j - 1])
        j = start[j]
    return bounds[::-1]


def _group_forward(
    networks: Sequence[SetQNetwork], batches: Sequence[tuple[list[StateMatrix], np.ndarray]]
) -> Tensor:
    """``(N, B, rows)`` values of N networks, each on the distinct states of its batch.

    ``batches[i]`` is :func:`~repro.core.state.distinct_states` of network
    ``i``'s batch as sampled: its distinct states and where each sampled
    entry went.  A lone network runs its own
    :meth:`SetQNetwork.forward_batch` once per row-count bucket that
    :func:`row_buckets` picks from the sampled row counts (so a batch and a
    copy sharing no state split alike) and places each bucket's values at
    its states' positions, zero beyond the bucket's width.  A state's
    values are those of its bucket's call alone, bit for bit: the value
    head's per-item product keeps a row's bits independent of the other
    states in a call (see ``nn.Linear.forward``).  A uniform batch is one
    call.  A group stacks the networks' parameters; its lists share
    one state shape, and shorter lists are padded along the batch axis with
    all-masked states, which only adds GEMM rows and leaves every real
    row's bits unchanged (M-invariance, pinned for M >= 2 by
    ``tests/core/test_stacked_equivalence.py``).  The values are a graph
    tensor while gradients are enabled.
    """
    graph = is_grad_enabled()
    if len(networks) == 1:
        network, (states, inverse) = networks[0], batches[0]
        rows = np.array([state.matrix.shape[0] for state in states])
        bounds = row_buckets(rows[inverse], network.hidden_dim, graph)
        if len(bounds) == 1:
            values = network.forward_batch(states)
            return values.reshape((1,) + values.shape)
        bucket = np.searchsorted(bounds, np.maximum(rows, 1))
        members = [np.flatnonzero(bucket == b) for b in range(len(bounds))]
        pieces = [network.forward_batch([states[i] for i in index]) for index in members]
        return Tensor.assemble(pieces, members, (len(states), bounds[-1])).reshape(
            (1, len(states), bounds[-1])
        )
    dtype = networks[0].dtype
    padded = [pad_state_batch(states, dtype=dtype) for states, _ in batches]
    longest = max(len(batch) for batch, _ in padded)
    batch = np.zeros((len(padded), longest) + padded[0][0].shape[1:], dtype=dtype)
    mask = np.ones(batch.shape[:-1], dtype=bool)
    for i, (states_batch, states_mask) in enumerate(padded):
        batch[i, : len(states_batch)] = states_batch
        mask[i, : len(states_mask)] = states_mask
    params = stack_parameters(
        [network.parameter_map if graph else network.parameter_arrays() for network in networks]
    )
    values = q_forward(params, batch, mask, networks[0].num_heads)
    return values if graph else Tensor(values)


def _distinct_values(
    networks: Sequence[SetQNetwork], state_lists: Sequence[list[StateMatrix]]
) -> list[np.ndarray]:
    """Graph-free values of each network on its list, scoring each distinct state once."""
    distinct = [distinct_states(states) for states in state_lists]
    values = _group_forward(networks, distinct).numpy()
    return [values[i, inverse] for i, (_, inverse) in enumerate(distinct)]


@no_grad()
def bellman_targets(
    jobs: Sequence[tuple["DoubleDQNLearner", list[Transition]]]
) -> list[np.ndarray]:
    """Revised Bellman targets of N ``(learner, transitions)`` jobs.

    Every non-empty future-state branch of a job joins two graph-free
    forwards: the *target* network over the branches missing from the
    learner's memo, and the *online* network over all of them, whose argmax
    picks the action the target network evaluates (double Q-learning).  The
    target network is frozen between hard syncs and a branch never changes,
    so the memo keys target Q-vectors on the branch object until the next
    sync: sibling transitions of one feedback share their ``future_states``,
    and a step on one serves the others.  Each forward scores a job's
    distinct branch objects once (:func:`~repro.core.state.distinct_states`),
    which only shrinks the GEMM row count.  Jobs whose networks share one
    architecture and whose branches share one shape make one stacked call
    per network role, and a lone job's ragged branches split into row-count
    buckets (:func:`_group_forward`).  Matches the per-transition
    reference in ``tests/core/reference.py`` to float tolerance.
    """
    collected = [TargetBranches.collect(learner, transitions) for learner, transitions in jobs]
    targets = [branches.rewards for branches in collected]
    pending = [i for i, branches in enumerate(collected) if branches.states]
    for group in _fusion_groups(
        pending, lambda i: _shape_key(collected[i].learner.online, collected[i].states)
    ):
        members = [collected[i] for i in group]
        stale = [(branches, branches.uncached()) for branches in members]
        stale = [(branches, states) for branches, states in stale if states]
        if stale:
            fresh = _distinct_values(
                [branches.learner.target for branches, _ in stale],
                [states for _, states in stale],
            )
            for (branches, states), values in zip(stale, fresh):
                branches.memoise(states, values)
        online = _distinct_values(
            [branches.learner.online for branches in members],
            [branches.states for branches in members],
        )
        for i, branches, values in zip(group, members, online):
            targets[i] = branches.targets(values)
    return targets


def gradient_updates(jobs: Sequence[UpdateJob]) -> list[TrainStepReport]:
    """Apply N gradient steps, one per job.

    A job's loss is the importance-weighted mean squared TD error of its
    sampled ``(state, action)`` predictions against its targets.  The
    prediction graph scores each distinct state object once (siblings of one
    feedback share their ``state``) and every transition gathers its value
    from that row.  Jobs whose networks share one architecture, whose states
    share one shape, and that have as many distinct states and as many
    transitions form one ``(N, B, rows)`` graph: one forward, one gather, one
    loss per job and one backward that seeds each loss with gradient 1.0, as
    its own scalar backward would, and leaves each learner's gradient in its
    own parameters.  Every update then clips, steps, refreshes its sampled
    priorities and syncs its target network.  Each job's numbers are
    bit-identical to its one-job call.
    """
    distinct = [distinct_states([t.state for t in job.transitions]) for job in jobs]

    def key(i: int) -> tuple | None:
        unique = distinct[i][0]
        shape = _shape_key(jobs[i].learner.online, unique)
        return None if shape is None else (shape, len(unique), len(jobs[i].transitions))

    reports: list[TrainStepReport] = [None] * len(jobs)  # type: ignore[list-item]
    for group in _fusion_groups(list(range(len(jobs))), key):
        members = [jobs[i] for i in group]
        dtype = members[0].learner.online.dtype
        values = _group_forward(
            [job.learner.online for job in members], [distinct[i] for i in group]
        )
        # One gather and one loss graph for the group.  Per job this is the
        # one-job chain bit for bit: the advanced-index gather scatters one
        # contribution per transition, in transition order, into that job's
        # (distinct state, action) entries; the elementwise ops act per
        # element; and the axis-1 mean reduces each job's row in the order of
        # a 1-D mean.
        gathered = values[
            np.arange(len(group))[:, np.newaxis],
            np.array([distinct[i][1] for i in group]),
            np.array([[t.action_index for t in job.transitions] for job in members]),
        ]
        # Targets and IS weights join the loss graph in the network's compute
        # dtype, so a float32 network never silently promotes back to float64.
        diff = gathered - Tensor(np.array([job.targets for job in members], dtype=dtype))
        weights = Tensor(np.array([job.weights for job in members], dtype=dtype))
        losses = (weights * diff * diff).mean(axis=1)
        for job in members:
            job.learner.optimizer.zero_grad()
        losses.backward(np.ones(len(group)))
        loss_values, predictions = losses.numpy(), gathered.numpy()
        for i, job, loss, prediction in zip(group, members, loss_values, predictions):
            reports[i] = job.learner._finish_update(
                job.memory, float(loss), job.targets, prediction, job.indices, len(job.transitions)
            )
    return reports


class DoubleDQNLearner:
    """Optimises a :class:`SetQNetwork` from a replay memory."""

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
        #: Target-network Q-vectors of future-state branches since the last
        #: hard sync, keyed by the branch object's ``id``.  Sibling
        #: transitions share one ``future_states`` list, so one entry serves
        #: them all; each entry holds its branch, so the id is not reused.
        self._target_memo: dict[int, tuple[StateMatrix, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    def td_targets_batch(self, transitions: list[Transition]) -> np.ndarray:
        """Revised Bellman targets of one batch: the one-job :func:`bellman_targets`."""
        return bellman_targets([(self, transitions)])[0]

    def train_step(
        self, memory: ReplayMemory | PrioritizedReplayMemory
    ) -> TrainStepReport | None:
        """Sample a batch, perform one gradient step, refresh priorities.

        The one-job call of :func:`bellman_targets` (through
        :meth:`td_targets_batch`) and :func:`gradient_updates`: every target
        comes from two batched forwards, and every prediction plus the
        weighted loss form **one** autograd graph over the distinct sampled
        states, padded per row-count bucket.  Numerically
        it matches the per-sample reference in ``tests/core/reference.py``
        (same RNG draws, same targets to float tolerance).

        Returns ``None`` when the memory is still empty.
        """
        if len(memory) == 0:
            return None
        transitions, indices, weights = memory.sample(self.batch_size)
        targets = self.td_targets_batch(transitions)
        return gradient_updates(
            [UpdateJob(self, memory, transitions, indices, weights, targets)]
        )[0]

    def _finish_update(
        self,
        memory: ReplayMemory | PrioritizedReplayMemory,
        loss_value: float,
        targets: np.ndarray,
        predictions: np.ndarray,
        indices: np.ndarray,
        batch_size: int,
    ) -> TrainStepReport:
        """Clip, step, refresh priorities and sync targets — gradients already set."""
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
        self._target_memo.clear()

    def invalidate_target_cache(self) -> None:
        """Drop all memoised target Q-vectors without touching the networks.

        Called at checkpoint boundaries: the caches are not persisted, so
        invalidating them on the live learner too guarantees that a restored
        learner and the one that kept running recompute identical values in
        identical batch shapes — bit-for-bit deterministic resume.
        """
        self._target_memo.clear()

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
