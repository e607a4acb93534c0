"""Policy interface shared by the DRL framework and all baselines.

The evaluation runner (:mod:`repro.eval.runner`) interacts with every method
through this interface: the policy ranks the available tasks for an arriving
worker, is informed of the worker's feedback, and may perform periodic
(daily) re-training.  The DDQN framework, the bandit baseline and the
supervised baselines all implement it, which is what makes the paper's
head-to-head comparison possible.
"""

from __future__ import annotations

import abc
from pathlib import Path
from typing import Sequence

from ..crowd.platform import ArrivalContext, Feedback

__all__ = ["ArrangementPolicy"]


class ArrangementPolicy(abc.ABC):
    """A task-arrangement method evaluated by the simulation runner."""

    #: Human-readable method name used in reports (e.g. "DDQN", "LinUCB").
    name: str = "policy"

    #: Stable registry slug this instance was built from (set by
    #: :func:`repro.api.build_policy`; None for hand-constructed policies).
    registry_name: str | None = None

    #: Whether :meth:`save` writes a restorable checkpoint.  The evaluation
    #: runner's periodic auto-checkpointing only fires for policies that opt
    #: in (the DDQN framework does; the stateless/cheap baselines do not).
    supports_checkpointing: bool = False

    def save(self, path: str | Path) -> Path:
        """Write a self-contained checkpoint of the policy's learned state."""
        raise NotImplementedError(f"{type(self).__name__} does not support checkpointing")

    @abc.abstractmethod
    def rank_tasks(self, context: ArrivalContext) -> list[int]:
        """Return the available task ids ranked best-first for this arrival.

        The runner derives every action mode from this ranking: the single
        assigned task is the first element, the top-*k* list is the first *k*
        elements, and the full recommended list is the whole ranking.
        """

    def rank_tasks_batch(self, contexts: Sequence[ArrivalContext]) -> list[list[int]]:
        """Rank several *independent* arrivals in one call.

        Semantically equivalent to calling :meth:`rank_tasks` once per
        context, in order, with no feedback observed in between — which is
        the default implementation.  Policies whose scoring is a network
        forward override this to push all candidate states through one padded
        batch (see ``TaskArrangementFramework.rank_tasks_batch``), which is
        what the decision-throughput harness and frozen-policy scoring use.
        """
        return [self.rank_tasks(context) for context in contexts]

    @abc.abstractmethod
    def observe_feedback(
        self, context: ArrivalContext, ranked_task_ids: list[int], feedback: Feedback
    ) -> None:
        """Incorporate the worker's feedback for the presented ranking.

        Reinforcement-learning methods update their model immediately inside
        this call; supervised methods typically only log the interaction here
        and re-train in :meth:`end_of_day`.
        """

    def end_of_day(self, timestamp: float) -> None:
        """Hook invoked once per simulated day (supervised baselines re-train here)."""

    def flush_training(self) -> None:
        """Complete any deferred/backgrounded learning (end-of-run barrier).

        The evaluation runner calls this once after the last arrival so that
        reported results and final checkpoints reflect every observed
        feedback.  Policies that learn inline need nothing here (the default
        no-op); the asynchronously-trained DDQN framework drains its
        background trainer queue.
        """

    def reset(self) -> None:
        """Forget all learned state (used when replaying a fresh trace)."""
