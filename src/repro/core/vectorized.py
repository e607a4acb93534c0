"""Lockstep calls: one decision and one feedback per policy, fused where shapes allow.

The episode-vectorized platform (:mod:`repro.eval.runner`) advances N
independent replicas one arrival at a time, together, and hands every
request of a round to the two calls here, whatever the policy; the serving
layer (:mod:`repro.serve.batching`) hands :func:`decide_lockstep` the rank
requests of the tenants that land on the same event-loop tick.

* :func:`decide_lockstep` ranks one arrival per policy.  Frameworks go
  through :func:`repro.core.framework.rank_arrivals`, the one decision
  path, whose one-pair call is ``rank_tasks``: it stacks same-architecture,
  same-shape scorings into one forward.  Any other policy answers with its
  own ``rank_tasks``.
* :func:`observe_lockstep` feeds one feedback per policy.  Frameworks that
  train inline interleave their training plans position by position, and
  :func:`fused_train_steps` draws every due agent's replay batch through
  :func:`~repro.core.replay.sample_fused` (the one replay draw, whose
  one-memory call is ``PrioritizedReplayMemory.sample``), then runs the one
  train step of :mod:`repro.core.learner` over all of them.  Async-trained
  frameworks hand their feedback to their trainer thread, and baselines
  learn, through their own ``observe_feedback``.

Per-replica replay memories, RNG streams, explorer schedules and optimiser
states remain completely independent — fusion only changes *how many python
ops and gufunc launches* the work costs, not any number: each replica's
slice of a stacked forward is bit-identical to the ``N = 1`` call the
serial path makes, which is what keeps a vectorized run float-for-float
equal to N serial runs.  Work only fuses when shapes allow it
(``FrameworkConfig.max_tasks`` pins the row count and makes fusion the
steady state).
"""

from __future__ import annotations

from typing import Sequence

from ..crowd.platform import ArrivalContext, Feedback
from .agent import DQNAgent
from .framework import TaskArrangementFramework, rank_arrivals
from .interfaces import ArrangementPolicy
from .learner import UpdateJob, bellman_targets, gradient_updates
from .replay import sample_fused
from .trainer import SyncTrainer

__all__ = [
    "decide_lockstep",
    "observe_lockstep",
    "fused_train_steps",
]


# --------------------------------------------------------------------- #
# Decision path
# --------------------------------------------------------------------- #
def decide_lockstep(
    pairs: Sequence[tuple[ArrangementPolicy, ArrivalContext]]
) -> list[list[int]]:
    """Rank one arrival per policy, each exactly as its ``rank_tasks`` would.

    The frameworks among ``pairs`` share one :func:`rank_arrivals` call,
    which fuses their same-shaped forwards; every other policy answers
    through its own ``rank_tasks``.  Returns the rankings in pair order.
    """
    fused = [
        slot
        for slot, (policy, _) in enumerate(pairs)
        if isinstance(policy, TaskArrangementFramework)
    ]
    rankings = dict(zip(fused, rank_arrivals([pairs[slot] for slot in fused])))
    return [
        rankings[slot] if slot in rankings else policy.rank_tasks(context)
        for slot, (policy, context) in enumerate(pairs)
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
    items: Sequence[tuple[ArrangementPolicy, ArrivalContext, list[int], Feedback]]
) -> None:
    """Feed one feedback per policy, each as its ``observe_feedback`` would.

    A framework that trains inline has its (agent, transition) sequence
    built by :meth:`TaskArrangementFramework.build_training_plan`; the
    sequences are interleaved position by position, so that every agent
    still stores transition *j* and (cadence permitting) trains on it before
    storing transition *j+1* — only the train steps of *different* agents
    that fall on the same position are fused.  Every other policy (baselines,
    and async-trained frameworks, whose trainer thread owns their training)
    observes through its own ``observe_feedback``.
    """
    plans = []
    for policy, context, ranked, feedback in items:
        if isinstance(policy, TaskArrangementFramework) and isinstance(policy.trainer, SyncTrainer):
            plans.append(policy.build_training_plan(context, ranked, feedback))
        else:
            policy.observe_feedback(context, ranked, feedback)
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
