"""Lockstep multi-replica runs: fused decisions, interleaved plans, fused sampling.

The episode-vectorized platform (:mod:`repro.eval.runner`) advances N
independent replicas — different dataset seeds and/or policy instances — one
arrival at a time, together.  At every lockstep step the replicas' framework
policies all need (a) their candidate pools scored and (b) their freshly
stored transitions trained on.  Both are batchable *across* replicas:

* :func:`decide_lockstep` fuses the N per-replica candidate scorings into
  one stacked forward per group of same-architecture scorers;
* :func:`observe_lockstep` interleaves the replicas' training plans
  position by position, and :func:`fused_train_steps` samples every due
  agent's replay memory in one fused descent, then runs the one train step
  of :mod:`repro.core.learner` (:func:`~repro.core.learner.bellman_targets`
  and :func:`~repro.core.learner.gradient_updates`) over all of them.

Per-replica replay memories, RNG streams, explorer schedules and optimiser
states remain completely independent — fusion only changes *how many python
ops and gufunc launches* the work costs, not any number: every forward is
the one Q-network forward (:func:`repro.core.qnetwork.q_forward`) over the
replicas' stacked parameters, and each replica's slice of it is
bit-identical to the ``N = 1`` call the serial path makes, which is what
keeps a vectorized run float-for-float equal to N serial runs.  Work only
fuses when shapes allow it (``FrameworkConfig.max_tasks`` pins the row count
and makes fusion the steady state).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..crowd.platform import ArrivalContext, Feedback
from .agent import DQNAgent
from .framework import TaskArrangementFramework
from .learner import UpdateJob, bellman_targets, gradient_updates
from .qnetwork import QScorer, q_forward, stack_parameters
from .replay import sample_fused
from .state import StateMatrix

__all__ = [
    "decide_lockstep",
    "observe_lockstep",
    "fused_train_steps",
]


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
        raw = q_forward(
            stack_parameters([scorer.parameter_arrays() for scorer, _ in group]),
            np.array([[state.matrix] for _, state in group], dtype=group[0][0].dtype),
            np.array([[state.mask] for _, state in group]),
            group[0][0].num_heads,
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
def fused_train_steps(agents: Sequence[DQNAgent]) -> None:
    """One train step per agent, fusing same-shaped work across agents.

    Semantically ``[agent.learner.train_step(agent.memory) for agent in
    agents]`` plus each agent's :meth:`~DQNAgent.record_report`: replay
    sampling fuses across same-batch-size agents (one stacked SumTree
    descent instead of one per memory, bit-identical per memory), and the
    targets and updates are one group call each, which fuse same-shaped
    jobs.  Each agent's numbers are bit-identical to its serial step.
    """
    if not agents:
        return
    by_batch: dict[int, list[DQNAgent]] = {}
    for agent in agents:
        by_batch.setdefault(agent.learner.batch_size, []).append(agent)
    samples: dict[int, tuple] = {}
    for batch_size, group in by_batch.items():
        for agent, sample in zip(group, sample_fused([a.memory for a in group], batch_size)):
            samples[id(agent)] = sample
    targets = bellman_targets([(agent.learner, samples[id(agent)][0]) for agent in agents])
    reports = gradient_updates(
        [
            UpdateJob(agent.learner, agent.memory, *samples[id(agent)], agent_targets)
            for agent, agent_targets in zip(agents, targets)
        ]
    )
    for agent, report in zip(agents, reports):
        agent.record_report(report)


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
