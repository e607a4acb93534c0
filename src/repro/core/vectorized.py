"""Replica-batched decision and update paths for lockstep multi-replica runs.

The episode-vectorized platform (:mod:`repro.eval.runner`) advances N
independent replicas — different dataset seeds and/or policy instances — one
arrival at a time, together.  At every lockstep step the replicas' framework
policies all need (a) their candidate pools scored and (b) their freshly
stored transitions trained on.  Both are embarrassingly batchable *across*
replicas: this module fuses

* the N per-replica candidate scorings into one stacked forward per group
  of same-architecture scorers (:func:`decide_lockstep`), and
* the N per-replica gradient steps into one stacked forward/backward per
  agent role (:func:`observe_lockstep` → :func:`fused_train_steps`), with the
  target-side forwards of the revised Bellman targets fused the same way.

Per-replica replay memories, RNG streams, explorer schedules and optimiser
states remain completely independent — fusion only changes *how many python
ops and gufunc launches* the work costs, not any number: every call here is
the one Q-network forward (:func:`repro.core.qnetwork.q_forward`) over the
replicas' stacked parameters, and each replica's slice of it is
bit-identical to the ``N = 1`` call the serial path makes, which is what
keeps a vectorized run float-for-float equal to N serial runs.

Work only fuses when shapes allow it — replicas whose network architectures
or state-matrix shapes differ at a step fall back to the serial calls for
that step (``FrameworkConfig.max_tasks`` pins the row count and makes fusion
the steady state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..crowd.platform import ArrivalContext, Feedback
from ..nn import Tensor
from .agent import DQNAgent
from .framework import TaskArrangementFramework
from .learner import DoubleDQNLearner, TargetBranches
from .qnetwork import QScorer, pad_state_batch, q_forward, stack_parameters
from .replay import Transition, sample_fused
from .state import StateMatrix, distinct_states

__all__ = [
    "decide_lockstep",
    "observe_lockstep",
    "fused_train_steps",
]


def _infer(scorers: Sequence[QScorer], batch: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Raw ``(N, B, rows)`` values of N same-signature scorers, one batch each."""
    params = stack_parameters([scorer.parameter_arrays() for scorer in scorers])
    return q_forward(params, batch, mask, scorers[0].num_heads)


# --------------------------------------------------------------------- #
# Decision path
# --------------------------------------------------------------------- #
def decide_lockstep(
    pairs: Sequence[tuple[TaskArrangementFramework, ArrivalContext]]
) -> list[list[int]]:
    """Rank one arrival per framework, fusing the network forwards.

    Equivalent to ``[framework.rank_tasks(context) for ...]`` — each
    framework's ``before_decision`` hook runs first (a snapshot refresh or
    handoff barrier for async-trained frameworks), every agent scores on its
    trainer's :meth:`~repro.core.trainer.TrainerLoop.scorer`, and
    exploration noise, pending-decision bookkeeping and annealing run per
    framework on its own RNG, in order; only the (RNG-free) forwards are
    batched.  Scorings whose architecture and state shape match share one
    stacked forward; a lone scoring is its ``N = 1`` case, the call
    ``q_values`` makes.
    """
    for framework, _ in pairs:
        framework.trainer.before_decision()
    states = [framework._build_states(context) for framework, context in pairs]
    jobs: list[tuple[QScorer, StateMatrix]] = []
    owners: list[tuple[int, int]] = []
    for slot, ((framework, _), role_states) in enumerate(zip(pairs, states)):
        agents = (framework.agent_w, framework.agent_r)
        for role, (agent, state) in enumerate(zip(agents, role_states)):
            if agent is not None:
                jobs.append((framework.trainer.scorer(agent), state))
                owners.append((slot, role))
    groups: dict[tuple, list[int]] = {}
    for index, (scorer, state) in enumerate(jobs):
        groups.setdefault((scorer.signature, state.matrix.shape), []).append(index)
    scores: list[list[np.ndarray | None]] = [[None, None] for _ in pairs]
    for indices in groups.values():
        group = [jobs[index] for index in indices]
        raw = _infer(
            [scorer for scorer, _ in group],
            np.array([[state.matrix] for _, state in group], dtype=group[0][0].dtype),
            np.array([[state.mask] for _, state in group]),
        )
        for index, (_, state), values in zip(indices, group, raw):
            slot, role = owners[index]
            scores[slot][role] = values[0, : state.num_tasks].copy()
    return [
        framework._decide(context, state_w, state_r, *scores[slot])
        for slot, ((framework, context), (state_w, state_r)) in enumerate(zip(pairs, states))
    ]


# --------------------------------------------------------------------- #
# Update path
# --------------------------------------------------------------------- #
@dataclass
class _TrainJob:
    """One agent's pre-sampled train step, awaiting (possibly fused) execution."""

    agent: DQNAgent
    learner: DoubleDQNLearner
    transitions: list[Transition]
    indices: np.ndarray
    weights: np.ndarray
    targets: np.ndarray | None = None
    batch: np.ndarray | None = None
    mask: np.ndarray | None = None
    #: Row of ``batch`` (the padded distinct states) behind each transition.
    inverse: np.ndarray | None = None


def _uniform_state_shape(states: Sequence[StateMatrix]) -> tuple[int, int] | None:
    """The common ``(rows, dim)`` of the states, or None when they are ragged."""
    shape = states[0].matrix.shape
    for state in states:
        if state.matrix.shape != shape:
            return None
    return shape


def _padded_group_forward(
    networks: Sequence[QScorer], state_lists: Sequence[list[StateMatrix]]
) -> list[np.ndarray]:
    """Stacked inference forward over per-replica state lists of equal row shape.

    Lists shorter than the longest are padded with all-masked dummy states
    along the *batch* axis (reduction lengths are untouched — only the GEMM
    row count grows, which is bitwise row-stable on supported BLAS builds;
    pinned by ``tests/core/test_stacked_equivalence.py``).  Returns each
    replica's ``(len(list), rows)`` value block.
    """
    dtype = networks[0].dtype
    longest = max(len(states) for states in state_lists)
    batches: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    for states in state_lists:
        batch, mask = pad_state_batch(states, dtype=dtype)
        if batch.shape[0] < longest:
            extra = longest - batch.shape[0]
            batch = np.concatenate(
                [batch, np.zeros((extra,) + batch.shape[1:], dtype=dtype)], axis=0
            )
            mask = np.concatenate(
                [mask, np.ones((extra, mask.shape[1]), dtype=bool)], axis=0
            )
        batches.append(batch)
        masks.append(mask)
    values = _infer(networks, np.array(batches), np.array(masks))
    return [values[i, : len(states)] for i, states in enumerate(state_lists)]


def _compute_targets(jobs: Sequence[_TrainJob]) -> None:
    """Fill every job's ``targets``, fusing branch forwards across replicas.

    Runs the branch bookkeeping of :meth:`DoubleDQNLearner.td_targets_batch`
    per job — including the per-transition target-network memoisation and
    the scoring of each distinct branch object once — but routes the
    uncached target forwards and the online best-action forwards of
    same-shaped jobs through one stacked call each.  Jobs whose branch
    states are ragged (no common row shape) fall back to the serial method.
    """
    fusable: dict[tuple, list[tuple[_TrainJob, TargetBranches]]] = {}
    for job in jobs:
        branches = TargetBranches.collect(job.learner, job.transitions)
        if not branches.states:
            job.targets = branches.rewards
            continue
        shape = _uniform_state_shape(branches.states)
        if shape is None:
            job.targets = job.learner.td_targets_batch(job.transitions)
            continue
        fusable.setdefault((job.learner.online.signature, shape), []).append((job, branches))

    for group in fusable.values():
        if len(group) == 1:
            job, _ = group[0]
            job.targets = job.learner.td_targets_batch(job.transitions)
            continue
        # Per-job cache probe and deduplication, exactly as the serial method
        # does them.
        cold = []
        for _, branches in group:
            uncached = branches.uncached()
            if uncached:
                stale = distinct_states([branches.states[j] for j in uncached])
                cold.append((branches, uncached, *stale))
        warm = [distinct_states(branches.states) for _, branches in group]
        # One stacked inference forward serves both halves of the double-DQN
        # target: the *target* networks on each job's distinct uncached
        # branches and the *online* networks on each job's distinct branches
        # (for the best-action argmax).  Same-architecture networks stack
        # regardless of which agent they belong to, so both halves ride one
        # gufunc launch.
        blocks = _padded_group_forward(
            [branches.learner.target for branches, *_ in cold]
            + [branches.learner.online for _, branches in group],
            [unique for _, _, unique, _ in cold] + [unique for unique, _ in warm],
        )
        for (branches, uncached, _, inverse), fresh in zip(cold, blocks):
            branches.memoise(uncached, fresh[inverse])
        for (job, branches), (_, inverse), online_values in zip(group, warm, blocks[len(cold) :]):
            job.targets = branches.targets(online_values[inverse])


def _fused_prediction_update(jobs: Sequence[_TrainJob]) -> None:
    """One stacked forward/backward for a group of same-shaped train steps.

    Builds the exact per-replica loss graph of
    :meth:`DoubleDQNLearner.train_step` on slices of one stacked forward,
    backpropagates their sum once (each replica's loss receives gradient 1.0,
    exactly as its own scalar backward would, and lands in its own
    parameters), and finishes every update with the shared
    clip/step/priority/sync path.
    """
    networks = [job.learner.online for job in jobs]
    dtype = networks[0].dtype
    values = q_forward(
        stack_parameters([network.parameter_map for network in networks]),
        np.array([job.batch for job in jobs]),
        np.array([job.mask for job in jobs]),
        networks[0].num_heads,
    )

    # One gather and one loss graph for the whole group.  Per replica this is
    # bit-identical to the serial ``(w * diff * diff).mean()`` chain: the
    # advanced-index gather scatters one contribution per (replica,
    # transition), in transition order, into that replica's (distinct
    # state, action) entries, exactly as the serial gather does; the
    # elementwise ops act per element, and the axis-1 mean reduces each
    # replica's row with the same summation order as the serial 1-D mean.
    count = len(jobs)
    actions = np.array(
        [[t.action_index for t in job.transitions] for job in jobs], dtype=np.int64
    )
    inverse = np.stack([job.inverse for job in jobs])
    gathered = values[np.arange(count)[:, np.newaxis], inverse, actions]
    weights = np.stack([np.asarray(job.weights, dtype=dtype) for job in jobs])
    targets = np.stack([np.asarray(job.targets, dtype=dtype) for job in jobs])
    diff = gathered - Tensor(targets)
    losses = (Tensor(weights) * diff * diff).mean(axis=1)
    predictions = gathered.numpy()

    # ``Tensor.stack``'s backward deposits each replica's gradient slice into
    # its own parameters (the learners' flat gradient buffers).
    for job in jobs:
        job.learner.optimizer.zero_grad()
    losses.sum().backward()

    loss_values = losses.numpy()
    for i, job in enumerate(jobs):
        report = job.learner._finish_update(
            job.agent.memory,
            float(loss_values[i]),
            job.targets,
            predictions[i],
            job.indices,
            len(job.transitions),
        )
        job.agent.record_report(report)


def fused_train_steps(agents: Sequence[DQNAgent]) -> None:
    """One train step per agent, fusing same-shaped work across agents.

    Semantically ``[agent.learner.train_step(agent.memory) for agent in
    agents]`` (plus the diagnostics bookkeeping of ``store_and_train``), with
    three fusion points: the uncached target forwards, the online
    best-action forwards, and the prediction forward/backward.  Like the
    serial step, each job scores its distinct states once, so prediction
    groups key on the deduplicated batch shape (and the transition count
    the gather needs).  Each agent's numbers are bit-identical to its
    serial step.
    """
    if not agents:
        return
    # Replay sampling fuses across same-batch-size agents: one stacked
    # SumTree descent instead of one per memory (bit-identical per memory).
    by_batch: dict[int, list[DQNAgent]] = {}
    for agent in agents:
        by_batch.setdefault(agent.learner.batch_size, []).append(agent)
    samples: dict[int, tuple] = {}
    for batch_size, group_agents in by_batch.items():
        fused = sample_fused([a.memory for a in group_agents], batch_size)
        for group_agent, sample in zip(group_agents, fused):
            samples[id(group_agent)] = sample
    jobs: list[_TrainJob] = []
    for agent in agents:
        learner = agent.learner
        transitions, indices, weights = samples[id(agent)]
        jobs.append(_TrainJob(agent, learner, list(transitions), indices, weights))

    _compute_targets(jobs)

    groups: dict[tuple, list[_TrainJob]] = {}
    for job in jobs:
        states, job.inverse = distinct_states([t.state for t in job.transitions])
        shape = _uniform_state_shape(states)
        if shape is None:
            groups.setdefault(("serial", id(job)), []).append(job)
            continue
        job.batch, job.mask = pad_state_batch(states, dtype=job.learner.online.dtype)
        groups.setdefault(
            (job.learner.online.signature, job.batch.shape, len(job.transitions)), []
        ).append(job)

    for group in groups.values():
        if len(group) == 1:
            job = group[0]
            report = job.learner.train_step_on(
                job.agent.memory, job.transitions, job.indices, job.weights, targets=job.targets
            )
            job.agent.record_report(report)
        else:
            _fused_prediction_update(group)


def observe_lockstep(
    items: Sequence[tuple[TaskArrangementFramework, ArrivalContext, list[int], Feedback]]
) -> None:
    """Feed one feedback per framework replica, fusing the train steps.

    Equivalent to ``framework.observe_feedback(context, ranked, feedback)``
    per replica: each replica's (agent, transition) sequence is built by
    :meth:`TaskArrangementFramework.build_training_plan`, then the sequences
    are interleaved position-by-position so that every agent still stores
    transition *j* and (cadence permitting) trains on it before storing
    transition *j+1* — only the train steps of *different* agents that fall
    on the same position are fused.
    """
    plans = [
        framework.build_training_plan(context, ranked, feedback)
        for framework, context, ranked, feedback in items
    ]
    agent_jobs = [(agent, transitions) for plan in plans for agent, transitions in plan]
    longest = max((len(transitions) for _, transitions in agent_jobs), default=0)
    for position in range(longest):
        trainers: list[DQNAgent] = []
        for agent, transitions in agent_jobs:
            if position < len(transitions):
                agent.store(transitions[position])
                if agent.should_train():
                    trainers.append(agent)
        fused_train_steps(trainers)
