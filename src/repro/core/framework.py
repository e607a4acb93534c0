"""The end-to-end task-arrangement framework (Fig. 2 of the paper).

:class:`TaskArrangementFramework` is the full pipeline: when a worker
arrives, the State Transformer builds the state representation, the two
Q-networks (worker-side and requester-side) score every available task, the
aggregator/balancer mixes the two scores, and the explorer possibly perturbs
them before the ranking is produced.  After the worker's feedback, the
feedback transformers derive the two rewards (completion and quality gain),
the future-state predictors produce the explicit successor distributions, the
resulting transitions are stored in the two replay memories, and the learners
update both networks in real time.

The framework implements :class:`repro.core.interfaces.ArrangementPolicy`, so
the evaluation runner treats it exactly like any baseline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ..crowd.arrivals import WorkerArrivalStatistics
from ..crowd.features import FeatureSchema
from ..crowd.platform import ArrivalContext, Feedback
from ..crowd.quality import DixitStiglitzQuality
from ..nn.dtype import resolve_dtype
from ..nn.serialization import load_checkpoint, save_checkpoint
from .agent import AgentConfig, DQNAgent
from .aggregator import QValueAggregator
from .explorer import EpsilonGreedyExplorer, GaussianPerturbationExplorer
from .interfaces import ArrangementPolicy
from .predictor import FutureStatePredictorR, FutureStatePredictorW
from .qnetwork import QScorer, q_forward, score_states, stack_parameters
from .replay import Transition
from .state import StateMatrix, StateTransformer
from .trainer import AsyncTrainer, SyncTrainer, TrainerLoop

__all__ = [
    "FrameworkConfig",
    "TaskArrangementFramework",
    "CHECKPOINT_FORMAT",
    "migrate_config_tree",
    "rank_arrivals",
]

#: Format tag written into (and required from) full-framework checkpoints.
#: Bumped to /2 with the fused-QKV parameter layout (query/key/value_proj.*
#: merged into in_proj_weight/in_proj_bias, which also changes the
#: optimiser's buffer count): a /1 checkpoint now fails the format check
#: with a clear error instead of a confusing parameter-mismatch mid-load.
#: Bumped to /3 when replay memories started packing each distinct state
#: object once, referenced by index, so that sibling transitions still
#: share their states after a restore (see ``replay._pack_transitions``);
#: builds that only read /2 reject it.  /2 checkpoints still load, without
#: that sharing.
CHECKPOINT_FORMAT = "repro.framework/3"

#: Per-format config migrations: each entry upgrades the *config tree* of a
#: checkpoint written at that format to the current :class:`FrameworkConfig`
#: vocabulary (renames, restructures).  Fields that were *added* after a
#: format was current need no entry here — :func:`migrate_config_tree` fills
#: anything absent with the dataclass default, so an old checkpoint keeps
#: loading as the framework grows new knobs.  Truly unknown keys (typos,
#: removed fields without a rename rule) are still rejected loudly.
_CONFIG_MIGRATIONS: dict[str, list] = {
    "repro.framework/2": [],
    CHECKPOINT_FORMAT: [],
}


def migrate_config_tree(config_tree: dict, checkpoint_format: str) -> "FrameworkConfig":
    """Build a :class:`FrameworkConfig` from a (possibly older) checkpoint tree.

    Applies the format's migration steps, fills fields the writing version
    did not know about with the current dataclass defaults, and rejects keys
    that no migration claims — so loading fails on corrupt/foreign trees but
    not merely because the config schema grew since the checkpoint was
    written.
    """
    if checkpoint_format not in _CONFIG_MIGRATIONS:
        raise ValueError(
            f"unsupported checkpoint format {checkpoint_format!r} "
            f"(supported: {sorted(_CONFIG_MIGRATIONS)})"
        )
    tree = dict(config_tree)
    for step in _CONFIG_MIGRATIONS[checkpoint_format]:
        tree = step(tree)
    known = {config_field.name for config_field in fields(FrameworkConfig)}
    unknown = set(tree) - known
    if unknown:
        raise ValueError(
            f"checkpoint config holds unknown keys {sorted(unknown)} "
            f"(known: {sorted(known)})"
        )
    return FrameworkConfig(**tree)


@dataclass
class FrameworkConfig:
    """Configuration of the complete DDQN framework.

    ``use_worker_mdp`` / ``use_requester_mdp`` switch the two objectives on
    and off (the paper's Fig. 7 uses the worker-only variant, Fig. 8 the
    requester-only variant, Fig. 9 both with a weight sweep).
    """

    worker_weight: float = 0.25
    use_worker_mdp: bool = True
    use_requester_mdp: bool = True
    #: Discount factors (Sec. VII-B-1: γ = 0.3 for workers, 0.5 for requesters).
    gamma_worker: float = 0.3
    gamma_requester: float = 0.5
    #: Q-network width / heads (paper: 128 / 4).  CI-scale runs shrink these.
    hidden_dim: int = 128
    num_heads: int = 4
    #: Compute precision of both Q-networks ("float64" default keeps every
    #: determinism guarantee bit-identical; "float32" roughly halves GEMM
    #: time at a small, bounded metric drift).  Recorded in checkpoints via
    #: the config tree and restored with it.
    dtype: str = "float64"
    learning_rate: float = 1e-3
    batch_size: int = 64
    buffer_size: int = 1_000
    target_sync_interval: int = 100
    train_interval: int = 1
    prioritized_replay: bool = True
    #: Decouple training from decisions (ROADMAP item 2): decisions run on a
    #: frozen snapshot network while a background trainer thread executes the
    #: training plans and publishes parameters back as one contiguous copy of
    #: the optimiser's flat buffer.  Not bit-identical to inline training —
    #: see ``async_handoff_lag`` for the reproducibility contract.
    async_training: bool = False
    #: Bound on queued-but-unconsumed training plans (free-running mode
    #: blocks the producer when full; the trainer drains in bulk).
    async_queue_size: int = 64
    #: Publish parameters to the decision snapshot every N train steps.
    async_publish_interval: int = 1
    #: ``None`` free-runs the trainer (maximum throughput, reproducible only
    #: in distribution).  An integer ``L`` pins the handoff schedule: before
    #: decision *k* the trainer has consumed exactly the plans of arrivals
    #: ≤ *k − L*, each with full serial train semantics — two runs of the
    #: same spec are then bit-identical to each other (seeded-queue
    #: determinism), at the cost of the decision path waiting on training.
    async_handoff_lag: int | None = None
    #: Future-state branching caps for the two predictors.
    max_future_branches_worker: int = 4
    max_future_branches_requester: int = 3
    #: How many *failed* (skipped) suggested tasks to store per feedback.
    max_failed_transitions: int = 2
    #: Zero-padding size for the state matrices (None = exact pool size).
    max_tasks: int | None = None
    #: Include the explicit task ⊙ worker interaction block in state rows
    #: (see StateTransformer; disabled only by the feature ablation bench).
    interaction_features: bool = True
    #: Exploration settings.
    perturb_probability: float = 0.1
    explorer_anneal_steps: int = 5_000
    #: Dixit–Stiglitz exponent used to recompute quality columns.
    quality_p: float = 2.0
    seed: int = 0


@dataclass
class _PendingDecision:
    """Cached per-arrival computation shared between rank_tasks and observe_feedback."""

    state_w: StateMatrix | None
    state_r: StateMatrix | None
    worker_q: np.ndarray | None
    requester_q: np.ndarray | None
    ranked_task_ids: list[int] = field(default_factory=list)


class TaskArrangementFramework(ArrangementPolicy):
    """Double-DQN task arrangement combining worker and requester benefits."""

    name = "DDQN"
    supports_checkpointing = True

    #: Cap on decisions awaiting feedback.  In an online run at most a
    #: handful are in flight; decision-only replays (throughput harness,
    #: frozen-policy scoring) never observe feedback, and without a bound the
    #: cache would retain every scored state of the trace.
    _MAX_PENDING = 4096

    def __init__(self, schema: FeatureSchema, config: FrameworkConfig | None = None) -> None:
        self.schema = schema
        self.config = config if config is not None else FrameworkConfig()
        if not (self.config.use_worker_mdp or self.config.use_requester_mdp):
            raise ValueError("at least one of the two MDPs must be enabled")
        resolve_dtype(self.config.dtype)  # fail fast on unsupported precisions
        self.rng = np.random.default_rng(self.config.seed)
        self.quality_model = DixitStiglitzQuality(self.config.quality_p)
        #: State tree this framework was restored from (set by :meth:`load`);
        #: :meth:`reset` returns to it instead of re-initialising from scratch.
        self._restore_state: dict | None = None
        self._build_components()
        self.name = self._derive_name()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _derive_name(self) -> str:
        if self.config.use_worker_mdp and self.config.use_requester_mdp:
            return f"DDQN(w={self.config.worker_weight:g})"
        return "DDQN"

    def _build_components(self) -> None:
        config = self.config
        # Rebuilding (reset / restore) replaces the trainer: stop any
        # background thread owned by the previous component generation first.
        existing = getattr(self, "trainer", None)
        if existing is not None:
            existing.close()
        self.transformer_w = StateTransformer(
            self.schema,
            include_quality=False,
            max_tasks=config.max_tasks,
            interaction=config.interaction_features,
        )
        self.transformer_r = StateTransformer(
            self.schema,
            include_quality=True,
            max_tasks=config.max_tasks,
            interaction=config.interaction_features,
        )
        self.arrival_statistics = WorkerArrivalStatistics(self.schema.worker_dim)

        agent_defaults = dict(
            hidden_dim=config.hidden_dim,
            num_heads=config.num_heads,
            dtype=config.dtype,
            learning_rate=config.learning_rate,
            batch_size=config.batch_size,
            buffer_size=config.buffer_size,
            target_sync_interval=config.target_sync_interval,
            train_interval=config.train_interval,
            prioritized_replay=config.prioritized_replay,
            seed=config.seed,
        )
        self.agent_w = (
            DQNAgent(
                self.transformer_w.row_dim,
                AgentConfig(gamma=config.gamma_worker, **agent_defaults),
            )
            if config.use_worker_mdp
            else None
        )
        self.agent_r = (
            DQNAgent(
                self.transformer_r.row_dim,
                AgentConfig(gamma=config.gamma_requester, **agent_defaults),
            )
            if config.use_requester_mdp
            else None
        )
        self.predictor_w = FutureStatePredictorW(
            self.transformer_w,
            self.arrival_statistics,
            max_branches=config.max_future_branches_worker,
        )
        self.predictor_r = FutureStatePredictorR(
            self.transformer_r,
            self.arrival_statistics,
            max_branches=config.max_future_branches_requester,
        )
        self.aggregator = QValueAggregator(config.worker_weight)
        self.explorer = GaussianPerturbationExplorer(
            perturb_probability=config.perturb_probability,
            anneal_steps=config.explorer_anneal_steps,
        )
        self.assign_explorer = EpsilonGreedyExplorer(anneal_steps=config.explorer_anneal_steps)

        #: Per-worker bookkeeping maintained by the policy itself (it cannot
        #: peek at the platform internals): last seen feature and quality.
        self._worker_features: dict[int, np.ndarray] = {}
        self._worker_qualities: dict[int, float] = {}
        self._pending: dict[tuple[float, int], _PendingDecision] = {}

        agents = [agent for agent in (self.agent_w, self.agent_r) if agent is not None]
        self.trainer: TrainerLoop = (
            AsyncTrainer(
                agents,
                queue_size=config.async_queue_size,
                publish_interval=config.async_publish_interval,
                handoff_lag=config.async_handoff_lag,
            )
            if config.async_training
            else SyncTrainer()
        )

    # ------------------------------------------------------------------ #
    # ArrangementPolicy API
    # ------------------------------------------------------------------ #
    def rank_tasks(self, context: ArrivalContext) -> list[int]:
        """Score the pool with both Q-networks and return the ranked task ids.

        The one-pair call of :func:`rank_arrivals`, the one decision path.
        """
        return rank_arrivals([(self, context)])[0]

    def rank_tasks_batch(self, contexts) -> list[list[int]]:
        """Rank several independent arrivals with one padded forward per agent.

        The candidate states of every context are scored through
        ``q_values_batch`` (a single ``(B, rows, dim)`` batch per Q-network)
        instead of one network call per arrival; exploration noise, pending
        bookkeeping and annealing steps are then applied per context in
        order, consuming the RNG exactly as the sequential loop would.
        Equivalent to sequential :meth:`rank_tasks` calls with no feedback in
        between (up to the batched engine's float tolerance).
        """
        contexts = list(contexts)
        rankings: list[list[int]] = [[] for _ in contexts]
        scored = [i for i, context in enumerate(contexts) if context.available_tasks]
        if not scored:
            return rankings
        self.trainer.before_decision()
        states = [self._build_states(contexts[i]) for i in scored]
        worker_qs: list = [None] * len(scored)
        requester_qs: list = [None] * len(scored)
        if self.agent_w is not None:
            worker_qs = self.trainer.scorer(self.agent_w).q_values_batch(
                [state_w for state_w, _ in states]
            )
        if self.agent_r is not None:
            requester_qs = self.trainer.scorer(self.agent_r).q_values_batch(
                [state_r for _, state_r in states]
            )
        for slot, i in enumerate(scored):
            state_w, state_r = states[slot]
            rankings[i] = self._decide(
                contexts[i], state_w, state_r, worker_qs[slot], requester_qs[slot]
            )
        return rankings

    def _decide(
        self,
        context: ArrivalContext,
        state_w: StateMatrix | None,
        state_r: StateMatrix | None,
        worker_q: np.ndarray | None,
        requester_q: np.ndarray | None,
    ) -> list[int]:
        """Aggregate the two scorings, explore, rank and remember the decision."""
        combined = self.aggregator.combine(worker_q, requester_q)
        perturbed = self.explorer.perturb(combined, self.rng)
        order = np.argsort(-perturbed, kind="stable")
        ranked = [context.task_ids[i] for i in order]

        self._pending[(context.timestamp, context.worker.worker_id)] = _PendingDecision(
            state_w=state_w,
            state_r=state_r,
            worker_q=worker_q,
            requester_q=requester_q,
            ranked_task_ids=ranked,
        )
        while len(self._pending) > self._MAX_PENDING:
            self._pending.pop(next(iter(self._pending)))
        self.explorer.step()
        self.assign_explorer.step()
        return ranked

    def observe_feedback(
        self, context: ArrivalContext, ranked_task_ids: list[int], feedback: Feedback
    ) -> None:
        """Transform the feedback into transitions, store them and learn.

        The training plan executes through the framework's
        :class:`~repro.core.trainer.TrainerLoop` — inline for the (default)
        synchronous trainer, handed to the background thread in async mode.
        """
        self.trainer.submit(self.build_training_plan(context, ranked_task_ids, feedback))

    def flush_training(self) -> None:
        """Execute all outstanding async training plans (no-op when inline)."""
        self.trainer.drain()

    def build_training_plan(
        self, context: ArrivalContext, ranked_task_ids: list[int], feedback: Feedback
    ) -> list[tuple["DQNAgent", list[Transition]]]:
        """Turn one feedback into the per-agent transition store/train sequence.

        Performs all the (deterministic) bookkeeping of
        :meth:`observe_feedback` — arrival statistics, worker features,
        future-state prediction, transition construction — and returns the
        transitions each agent must store, and train on when due, in order
        (:func:`~repro.core.trainer.run_plan`).  The episode-vectorized group
        trainer uses this to interleave N replicas' sequences and fuse their
        same-shaped train steps; the serial path simply executes the plan
        immediately.  Future-state prediction reads only the arrival
        statistics and worker bookkeeping (never network weights or the
        replay RNG), so building both agents' transitions before either
        trains yields the same numbers as the historical train-as-you-go
        interleaving.
        """
        key = (context.timestamp, context.worker.worker_id)
        decision = self._pending.pop(key, None)
        if decision is None:
            # rank_tasks was not called for this arrival (should not happen in
            # normal runs); rebuild the states so learning can still proceed.
            state_w, state_r = self._build_states(context)
            decision = _PendingDecision(state_w, state_r, None, None, list(ranked_task_ids))

        self._record_arrival(context)
        updated_feature = (
            feedback.updated_worker_feature
            if feedback.updated_worker_feature is not None
            else context.worker_feature
        )
        self._worker_features[context.worker.worker_id] = np.asarray(updated_feature)
        self._worker_qualities[context.worker.worker_id] = context.worker.quality

        deadlines = {task.task_id: task.deadline for task in context.available_tasks}
        action_indices = self._action_indices(decision, ranked_task_ids, feedback)

        plan: list[tuple[DQNAgent, list[Transition]]] = []
        if self.agent_w is not None and decision.state_w is not None:
            plan.append(
                (
                    self.agent_w,
                    self._worker_transitions(
                        decision.state_w, action_indices, feedback, context, deadlines, updated_feature
                    ),
                )
            )
        if self.agent_r is not None and decision.state_r is not None:
            plan.append(
                (
                    self.agent_r,
                    self._requester_transitions(
                        decision.state_r, action_indices, feedback, context, deadlines
                    ),
                )
            )
        return plan

    def end_of_day(self, timestamp: float) -> None:
        """The DDQN updates in real time; nothing happens at day boundaries."""

    def reset(self) -> None:
        """Return to the initial state: re-seeded RNG plus fresh networks,
        memories and statistics — or, for a framework restored from a
        checkpoint, the checkpointed state (so evaluation runners that reset
        policies do not silently discard the loaded training)."""
        self.rng = np.random.default_rng(self.config.seed)
        self._build_components()
        if self._restore_state is not None:
            self.load_state_dict(self._restore_state)

    def measure_drift(self, context: ArrivalContext) -> dict:
        """Q-value drift of the configured precision against a float64 mirror.

        Pure inference on the parameters decisions are served from (the live
        networks, or the async trainer's snapshots, which only the decision
        thread writes): those parameters are upcast to float64 and both
        precisions score the arrival's own state.  No RNG is drawn and no
        learner state is touched, so probing never perturbs the run.  Under a
        float64 config both scorings are the same computation and both deltas
        are identically zero.
        """
        reading = {
            "dtype": self.config.dtype,
            "tasks": len(context.available_tasks),
            "max_abs": 0.0,
            "max_rel": 0.0,
        }
        if not context.available_tasks:
            return reading
        state_w, state_r = self._build_states(context)
        for agent, state in ((self.agent_w, state_w), (self.agent_r, state_r)):
            if agent is None or state is None:
                continue
            scorer = self.trainer.scorer(agent)
            mirror = {
                name: array.astype(np.float64)
                for name, array in scorer.parameter_arrays().items()
            }
            native = np.asarray(scorer.q_values(state), dtype=np.float64)
            reference = score_states(mirror, scorer.num_heads, [state])[0]
            abs_diff = np.abs(native - reference)
            scale = np.maximum(np.abs(reference), 1e-12)
            reading["max_abs"] = max(reading["max_abs"], float(abs_diff.max()))
            reading["max_rel"] = max(reading["max_rel"], float((abs_diff / scale).max()))
        return reading

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _build_states(self, context: ArrivalContext) -> tuple[StateMatrix | None, StateMatrix | None]:
        state_w = None
        state_r = None
        if self.config.use_worker_mdp:
            state_w = self.transformer_w.transform(
                context.worker_feature, context.task_features, context.task_ids
            )
        if self.config.use_requester_mdp:
            state_r = self.transformer_r.transform(
                context.worker_feature,
                context.task_features,
                context.task_ids,
                worker_quality=context.worker.quality,
                task_qualities=context.task_qualities,
            )
        return state_w, state_r

    def _record_arrival(self, context: ArrivalContext) -> None:
        self.arrival_statistics.record_arrival(
            context.worker.worker_id, context.timestamp, context.worker_feature
        )

    def _lookup_worker_feature(self, worker_id: int) -> np.ndarray:
        feature = self._worker_features.get(worker_id)
        if feature is None:
            return np.zeros(self.schema.worker_dim, dtype=np.float64)
        return feature

    def _action_indices(
        self,
        decision: _PendingDecision,
        ranked_task_ids: list[int],
        feedback: Feedback,
    ) -> list[tuple[int, bool]]:
        """Determine which (task, success) pairs become stored transitions.

        The completed task (if any) becomes a successful transition; the
        suggested-but-skipped tasks that were ranked above it become failed
        transitions with zero reward, bounded by ``max_failed_transitions``.
        """
        reference = decision.state_w if decision.state_w is not None else decision.state_r
        id_to_index = {task_id: i for i, task_id in enumerate(reference.task_ids)}

        pairs: list[tuple[int, bool]] = []
        if feedback.completed and feedback.completed_task_id in id_to_index:
            pairs.append((id_to_index[feedback.completed_task_id], True))
        skipped: list[int] = []
        for task_id in feedback.presented_task_ids:
            if task_id == feedback.completed_task_id:
                break
            if task_id in id_to_index:
                skipped.append(id_to_index[task_id])
        pairs.extend((index, False) for index in skipped[: self.config.max_failed_transitions])
        return pairs

    def _worker_transitions(
        self,
        state: StateMatrix,
        action_indices: list[tuple[int, bool]],
        feedback: Feedback,
        context: ArrivalContext,
        deadlines: dict[int, float],
        updated_feature: np.ndarray,
    ) -> list[Transition]:
        future = self.predictor_w.predict(state, context.timestamp, deadlines, updated_feature)
        return [
            Transition(
                state=state,
                action_index=action_index,
                reward=feedback.completion_reward if success else 0.0,
                future_states=future,
                timestamp=context.timestamp,
            )
            for action_index, success in action_indices
        ]

    def _requester_transitions(
        self,
        state: StateMatrix,
        action_indices: list[tuple[int, bool]],
        feedback: Feedback,
        context: ArrivalContext,
        deadlines: dict[int, float],
    ) -> list[Transition]:
        base_state = state
        if feedback.completed and feedback.completed_task_id is not None:
            task = context.task_by_id(feedback.completed_task_id)
            # The quality column of the completed task reflects the new quality.
            base_state = self.transformer_r.replace_task_quality(
                state, feedback.completed_task_id, task.quality + feedback.quality_gain
            )
        future = self.predictor_r.predict(
            base_state, context.timestamp, deadlines, self._lookup_worker_feature
        )
        return [
            Transition(
                state=state,
                action_index=action_index,
                reward=feedback.quality_gain if success else 0.0,
                future_states=future,
                timestamp=context.timestamp,
            )
            for action_index, success in action_indices
        ]

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Every piece of learned/annealed/random state, as a nested tree.

        Covers both agents (online + target networks, Adam moments, replay
        memories, training counters), the explorer schedules, the arrival
        statistics, the per-worker bookkeeping and the exploration RNG.
        Decisions pending between :meth:`rank_tasks` and
        :meth:`observe_feedback` are transient and not captured — checkpoint
        between arrivals (after the feedback), not in the middle of one.
        """
        feature_ids = np.array(sorted(self._worker_features), dtype=np.int64)
        quality_ids = np.array(sorted(self._worker_qualities), dtype=np.int64)
        state: dict = {
            "rng_state": self.rng.bit_generator.state,
            "explorer": self.explorer.state_dict(),
            "assign_explorer": self.assign_explorer.state_dict(),
            "arrival_statistics": self.arrival_statistics.state_dict(),
            "worker_features": {
                "ids": feature_ids,
                "features": (
                    np.stack([self._worker_features[int(w)] for w in feature_ids])
                    if feature_ids.size
                    else np.zeros((0, self.schema.worker_dim), dtype=np.float64)
                ),
            },
            "worker_qualities": {
                "ids": quality_ids,
                "values": np.array(
                    [self._worker_qualities[int(w)] for w in quality_ids], dtype=np.float64
                ),
            },
        }
        if self.agent_w is not None:
            state["agent_w"] = self.agent_w.state_dict()
        if self.agent_r is not None:
            state["agent_r"] = self.agent_r.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this (matching-config) framework."""
        for agent, key in ((self.agent_w, "agent_w"), (self.agent_r, "agent_r")):
            if (agent is None) != (key not in state):
                raise ValueError(
                    f"checkpoint {'has' if key in state else 'lacks'} {key!r} but this "
                    "framework was configured the other way"
                )
        self.rng.bit_generator.state = state["rng_state"]
        self.explorer.load_state_dict(state["explorer"])
        self.assign_explorer.load_state_dict(state["assign_explorer"])
        self.arrival_statistics.load_state_dict(state["arrival_statistics"])
        features = state["worker_features"]
        ids = np.asarray(features["ids"], dtype=np.int64)
        matrix = np.asarray(features["features"], dtype=np.float64).reshape(
            -1, self.schema.worker_dim
        )
        self._worker_features = {int(w): matrix[i].copy() for i, w in enumerate(ids)}
        qualities = state["worker_qualities"]
        self._worker_qualities = {
            int(w): float(q)
            for w, q in zip(
                np.asarray(qualities["ids"], dtype=np.int64),
                np.asarray(qualities["values"], dtype=np.float64),
            )
        }
        self._pending = {}
        if self.agent_w is not None:
            self.agent_w.load_state_dict(state["agent_w"])
        if self.agent_r is not None:
            self.agent_r.load_state_dict(state["agent_r"])
        # Loaded parameters must reach the decision path: refresh the async
        # trainer's published buffers and snapshots from the live networks.
        self.trainer.republish()

    def save(self, path: str | Path) -> Path:
        """Write a self-contained checkpoint (config + schema + all state).

        Also drops the learners' memoised target Q-vectors (they are not
        persisted), so that this still-running framework and any framework
        restored from the file continue training bit-identically.
        """
        return save_checkpoint(self.checkpoint_tree(), path)

    def checkpoint_tree(self) -> dict:
        """The complete checkpoint as a nested tree (what :meth:`save` writes).

        Exposed so composite checkpoints (the simulation runner's run-state
        files embed the policy tree next to the platform/metric state) reuse
        the exact same representation.  Like :meth:`save` this invalidates
        the learners' memoised target Q-vectors, so the live framework and
        any framework restored from the tree keep training bit-identically.

        The trainer is drained first: an async framework checkpoints only
        after every submitted training plan has been executed, so the tree is
        exact and resuming from it matches a run that kept going (under the
        same fixed handoff schedule and checkpoint cadence).
        """
        self.trainer.drain()
        for agent in (self.agent_w, self.agent_r):
            if agent is not None:
                agent.learner.invalidate_target_cache()
        return {
            "format": CHECKPOINT_FORMAT,
            "config": asdict(self.config),
            "schema": {
                "num_categories": self.schema.num_categories,
                "num_domains": self.schema.num_domains,
                "award_bins": list(self.schema.award_bins),
            },
            "state": self.state_dict(),
        }

    @classmethod
    def from_checkpoint_tree(cls, tree: dict) -> "TaskArrangementFramework":
        """Rebuild a framework from a :meth:`checkpoint_tree` document."""
        checkpoint_format = tree.get("format")
        if not isinstance(checkpoint_format, str) or not checkpoint_format.startswith(
            "repro.framework/"
        ):
            raise ValueError(
                f"not a framework checkpoint (format={checkpoint_format!r}, "
                f"expected {CHECKPOINT_FORMAT!r})"
            )
        schema_tree = tree["schema"]
        schema = FeatureSchema(
            num_categories=int(schema_tree["num_categories"]),
            num_domains=int(schema_tree["num_domains"]),
            award_bins=tuple(float(edge) for edge in schema_tree["award_bins"]),
        )
        config = migrate_config_tree(tree["config"], checkpoint_format)
        framework = cls(schema, config)
        framework.load_state_dict(tree["state"])
        framework._restore_state = tree["state"]
        return framework

    @classmethod
    def load(cls, path: str | Path) -> "TaskArrangementFramework":
        """Rebuild a framework (schema, config and all state) from :meth:`save`."""
        tree = load_checkpoint(path)
        try:
            return cls.from_checkpoint_tree(tree)
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from None

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def worker_only(
        cls, schema: FeatureSchema, config: FrameworkConfig | None = None
    ) -> "TaskArrangementFramework":
        """Variant optimising only the workers' benefit (Fig. 7)."""
        base = config if config is not None else FrameworkConfig()
        return cls(schema, replace(base, use_worker_mdp=True, use_requester_mdp=False, worker_weight=1.0))

    @classmethod
    def requester_only(
        cls, schema: FeatureSchema, config: FrameworkConfig | None = None
    ) -> "TaskArrangementFramework":
        """Variant optimising only the requesters' benefit (Fig. 8)."""
        base = config if config is not None else FrameworkConfig()
        return cls(schema, replace(base, use_worker_mdp=False, use_requester_mdp=True, worker_weight=0.0))

    @classmethod
    def balanced(
        cls,
        schema: FeatureSchema,
        worker_weight: float,
        config: FrameworkConfig | None = None,
    ) -> "TaskArrangementFramework":
        """Variant combining both objectives with the given weight (Fig. 9)."""
        base = config if config is not None else FrameworkConfig()
        return cls(
            schema,
            replace(base, use_worker_mdp=True, use_requester_mdp=True, worker_weight=worker_weight),
        )


def rank_arrivals(
    pairs: Sequence[tuple[TaskArrangementFramework, ArrivalContext]]
) -> list[list[int]]:
    """Rank one arrival per framework: the one decision path.

    :meth:`TaskArrangementFramework.rank_tasks` is its one-pair call and
    :func:`repro.core.vectorized.decide_lockstep` its N-pair call.  An
    arrival with no available task ranks ``[]`` and touches nothing.  Every
    other framework runs its trainer's ``before_decision`` hook (a snapshot
    refresh or handoff barrier for async-trained frameworks) and builds its
    states, and each agent scores on its trainer's scorer.  Scorings whose
    architecture and state shape match share one stacked
    :func:`~repro.core.qnetwork.q_forward` call, whose slices are
    bit-identical to the ``q_values`` call a lone scoring makes.
    Aggregation, exploration noise, pending-decision bookkeeping and
    annealing then run per framework on its own RNG, in order.
    """
    rankings: list[list[int]] = [[] for _ in pairs]
    live = [slot for slot, (_, context) in enumerate(pairs) if context.available_tasks]
    for slot in live:
        pairs[slot][0].trainer.before_decision()
    states = {slot: pairs[slot][0]._build_states(pairs[slot][1]) for slot in live}
    groups: dict[tuple, list[tuple[int, int, QScorer, StateMatrix]]] = {}
    for slot in live:
        framework = pairs[slot][0]
        agents = (framework.agent_w, framework.agent_r)
        for role, (agent, state) in enumerate(zip(agents, states[slot])):
            if agent is not None:
                scorer = framework.trainer.scorer(agent)
                key = (scorer.signature, state.matrix.shape)
                groups.setdefault(key, []).append((slot, role, scorer, state))
    scores: dict[int, list[np.ndarray | None]] = {slot: [None, None] for slot in live}
    for group in groups.values():
        if len(group) == 1:
            slot, role, scorer, state = group[0]
            scores[slot][role] = scorer.q_values(state)
            continue
        first = group[0][2]
        raw = q_forward(
            stack_parameters([scorer.parameter_arrays() for _, _, scorer, _ in group]),
            np.array([[state.matrix] for *_, state in group], dtype=first.dtype),
            np.array([[state.mask] for *_, state in group]),
            first.num_heads,
        )
        for (slot, role, _, state), values in zip(group, raw):
            scores[slot][role] = values[0, : state.num_tasks].copy()
    for slot in live:
        framework, context = pairs[slot]
        rankings[slot] = framework._decide(context, *states[slot], *scores[slot])
    return rankings
