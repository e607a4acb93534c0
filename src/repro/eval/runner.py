"""Simulation runner: replays a trace against a policy and collects metrics.

The run mirrors the paper's protocol (Sec. VII-B-1): the first month of the
trace is a warm-up used to initialise worker/task features (workers pick
tasks themselves); the remaining months are replayed online — every worker
arrival triggers a recommendation, simulated feedback, metric updates and a
policy update.  Supervised baselines additionally re-train at every simulated
day boundary through :meth:`ArrangementPolicy.end_of_day`.

The loop itself lives in :class:`ReplicaRun.loop`, a generator that *yields*
its two policy interactions — ``("rank", context)`` and ``("observe",
context, presented, feedback)`` — instead of calling the policy directly.
:class:`SimulationRunner` answers one loop's requests immediately (the serial
run); :class:`VectorizedRunner` advances N loops in lockstep and answers each
round's requests together, fusing the framework replicas' network forwards
and train steps across replicas (see :mod:`repro.core.vectorized`).  Both
paths execute the identical loop code, which is what makes a vectorized
replica's results float-for-float equal to its serial run.

A third driver lives outside this module: the serving layer
(:mod:`repro.serve`) runs the same loop against a *push-fed* event stream.
When that stream has no buffered arrival it returns the
:data:`repro.crowd.vectorized.STARVED` sentinel and the loop yields an
``("idle",)`` request, pausing until the server feeds more events (or closes
the stream, which ends the loop exactly like an exhausted trace).  Trace
cursors never starve, so the offline drivers never see idle requests.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Generator, Sequence

import numpy as np

from ..core.framework import TaskArrangementFramework, migrate_config_tree
from ..core.interfaces import ArrangementPolicy
from ..core.vectorized import decide_lockstep, observe_lockstep
from ..crowd.behavior import CascadeBehavior, InterestModel
from ..crowd.entities import MINUTES_PER_DAY, MINUTES_PER_MONTH
from ..crowd.platform import CrowdsourcingPlatform
from ..crowd.quality import DixitStiglitzQuality
from ..crowd.vectorized import STARVED, ReplicaStream, VectorizedPlatform, partition_requests
from ..datasets.crowdspring import CrowdDataset
from ..nn.serialization import load_checkpoint, save_checkpoint
from .metrics import EvaluationResult, RequesterBenefitTracker, WorkerBenefitTracker

__all__ = [
    "ReplicaRun",
    "RunnerConfig",
    "SimulationRunner",
    "VectorizedRunner",
    "evaluate_policy",
    "RUNSTATE_FORMAT",
    "runstate_path",
]

#: Format tag of the runner's *run-state* checkpoints: the policy checkpoint
#: tree plus everything else a mid-run resume needs (platform state, metric
#: trackers, loop counters and the trace cursor).  Written next to the plain
#: policy checkpoint as ``<stem>.runstate.npz``.
RUNSTATE_FORMAT = "repro.runstate/1"


def runstate_path(checkpoint_path: str | Path) -> Path:
    """The run-state file that accompanies a policy checkpoint path."""
    path = Path(checkpoint_path)
    stem = path.stem if path.suffix == ".npz" else path.name
    return path.with_name(f"{stem}.runstate.npz")


@dataclass
class RunnerConfig:
    """Options controlling one evaluation run."""

    #: Action mode: "list" shows the full ranked list (cascade model), "single"
    #: assigns only the top-ranked task, "topk" shows the first ``k`` tasks.
    mode: str = "list"
    #: List length for the kCR / kQG measures.
    k: int = 5
    #: Dixit–Stiglitz exponent (the paper's experiments use p = 2).
    quality_p: float = 2.0
    #: Behaviour-model randomness seed (shared across policies so every method
    #: faces the same workers).
    seed: int = 0
    #: Worker-behaviour parameters.
    interest_sharpness: float = 6.0
    position_decay: float = 0.85
    #: Stop after this many online arrivals (None = full trace).
    max_arrivals: int | None = None
    #: When True, the policy also observes the warm-up month's (self-selected)
    #: interactions, mirroring the paper's "initialize ... the learning model"
    #: from the first month of data.
    learn_from_warmup: bool = True
    #: Cap on warm-up interactions fed to the policy (None = all of them).
    max_warmup_observations: int | None = 300
    #: Save a policy checkpoint every N online arrivals (None = never).  Only
    #: policies with :attr:`ArrangementPolicy.supports_checkpointing` write
    #: anything, and only when ``run`` is given a ``checkpoint_path``.
    checkpoint_every: int | None = None
    #: Re-measure the framework's Q-values against a float64 mirror every N
    #: online arrivals (None = never).  The probe is pure inference on the
    #: arrival's own context — no RNG, no learner state touched — and its
    #: readings land on :attr:`EvaluationResult.drift` as queryable facts.
    drift_every: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("list", "single", "topk"):
            raise ValueError(f"mode must be 'list', 'single' or 'topk', got {self.mode!r}")
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.max_arrivals is not None and self.max_arrivals < 0:
            raise ValueError(f"max_arrivals must be non-negative or None, got {self.max_arrivals}")
        if self.max_warmup_observations is not None and self.max_warmup_observations < 0:
            raise ValueError(
                "max_warmup_observations must be non-negative or None, "
                f"got {self.max_warmup_observations}"
            )
        if self.checkpoint_every is not None and self.checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive or None, got {self.checkpoint_every}"
            )
        if self.drift_every is not None and self.drift_every <= 0:
            raise ValueError(
                f"drift_every must be positive or None, got {self.drift_every}"
            )

    def clamped_k(self, pool_size: int) -> int:
        """List length actually presented in ``topk`` mode for a given pool.

        Clamped to the pool size so a spec asking for more tasks than exist
        never silently over-asks the platform.
        """
        return min(self.k, pool_size)


def _warmup_interactions(platform, behavior, warm_trace):
    """Replay the warm-up month with self-selected completions.

    Workers browse the pool in their own preferred order (they picked tasks
    themselves before the recommender existed); the platform evolves — pool,
    features, qualities — and each interaction is yielded so the caller can
    decide whether the policy observes it (the online loop does, the
    decision-only replay must not).
    """
    stream = ReplicaStream(platform, warm_trace)
    while True:
        context = stream.next_arrival()
        if context is None:
            return
        if not context.available_tasks:
            continue
        preferred = behavior.preferred_order(context.worker, context.available_tasks)
        feedback = platform.submit_list(context, preferred)
        yield context, preferred, feedback


def _build_platform(
    dataset: CrowdDataset, config: RunnerConfig
) -> tuple[CrowdsourcingPlatform, CascadeBehavior]:
    """Fresh platform + behaviour model for one replay of ``dataset``."""
    tasks, workers = dataset.fresh_entities()
    behavior = CascadeBehavior(
        InterestModel(sharpness=config.interest_sharpness),
        position_decay=config.position_decay,
    )
    platform = CrowdsourcingPlatform(
        tasks,
        workers,
        dataset.schema,
        behavior,
        quality_model=DixitStiglitzQuality(config.quality_p),
        seed=config.seed,
    )
    for worker_id, task_ids in dataset.bootstrap_completions.items():
        bootstrap_tasks = [tasks[task_id] for task_id in task_ids if task_id in tasks]
        if bootstrap_tasks:
            platform.feature_tracker.bootstrap(worker_id, bootstrap_tasks)
    return platform, behavior


class ReplicaRun:
    """One (dataset, policy) evaluation as a request-yielding loop.

    The generator returned by :meth:`loop` performs everything except the
    policy interactions itself — platform evolution, metric tracking, day
    boundaries, checkpointing, resume — and yields ``("rank", context)`` /
    ``("observe", context, presented, feedback)`` requests for the driver to
    answer (serially, fused across replicas, or from a network server).

    ``stream_factory`` overrides how the online event stream is built: it is
    called as ``stream_factory(platform, online_trace, start_event)`` and
    must return a :class:`~repro.crowd.vectorized.ReplicaStream`-shaped
    cursor (``next_arrival()`` + ``events_consumed``).  The default replays
    the dataset's own trace; the serving layer injects a push-fed stream
    whose events arrive over the network instead.  A stream may return
    :data:`~repro.crowd.vectorized.STARVED` from ``next_arrival`` to make
    the loop yield ``("idle",)`` (answer: ``None``) until events show up.
    """

    def __init__(
        self,
        dataset: CrowdDataset,
        policy: ArrangementPolicy,
        config: RunnerConfig,
        checkpoint_path: str | Path | None = None,
        resume: bool = False,
        stream_factory=None,
        final_checkpoint: bool = True,
        checkpoint_writer=None,
        checkpoint_phase: int = 0,
    ) -> None:
        self.dataset = dataset
        self.policy = policy
        self.config = config
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path is not None else None
        self.resume = resume
        # When False, only the periodic (schedule-aligned) checkpoints are
        # written, never the end-of-run save at an arbitrary arrival count.
        # The serving layer needs this for exact warm restarts: checkpointing
        # invalidates the learners' transient target-network memos, so a
        # resumable point is only bit-reproducible when the uninterrupted run
        # checkpoints (and thus invalidates) at the very same arrival — which
        # is true for the ``checkpoint_every`` schedule and false for a drain
        # that can land anywhere.  Clients re-feed the tail past the last
        # periodic checkpoint on restart (the run-state records its offset).
        self.final_checkpoint = final_checkpoint
        self.stream_factory = (
            stream_factory
            if stream_factory is not None
            else lambda platform, trace, start_event: ReplicaStream(
                platform, trace, start_event=start_event
            )
        )
        # How checkpoint trees reach disk.  The default writes inline (atomic
        # tmp-then-replace); the serving layer injects an offloader that deep
        # copies the tree and performs the write on a worker thread so the
        # asyncio loop thread never blocks on serialization + fsync.
        self.checkpoint_writer = (
            checkpoint_writer if checkpoint_writer is not None else save_checkpoint
        )
        # Periodic checkpoints fire at ``arrivals % checkpoint_every ==
        # checkpoint_phase``.  A multi-tenant driver staggers phases so
        # co-hosted loops never all snapshot in the same tick; the phase must
        # be deterministic from the spec (the serving layer derives it from
        # tenant order) so interrupted and uninterrupted runs keep the
        # identical schedule and warm restarts stay bit-exact.
        if config.checkpoint_every is not None:
            self.checkpoint_phase = checkpoint_phase % config.checkpoint_every
        else:
            self.checkpoint_phase = 0

    # ------------------------------------------------------------------ #
    def _presented(self, ranked: list[int]) -> list[int]:
        if self.config.mode == "single":
            return ranked[:1]
        if self.config.mode == "topk":
            return ranked[: self.config.clamped_k(len(ranked))]
        return ranked

    def _month_of(self, timestamp: float) -> int:
        """Month index of an online timestamp, with month 0 = first online month."""
        return max(0, int((timestamp - self.dataset.warmup_end) // MINUTES_PER_MONTH))

    # ------------------------------------------------------------------ #
    def _load_runstate(self) -> dict | None:
        """The resumable run-state tree, if resume is on and one exists."""
        if not self.resume or self.checkpoint_path is None:
            return None
        if not self.policy.supports_checkpointing:
            return None
        path = runstate_path(self.checkpoint_path)
        if not path.exists():
            return None
        tree = load_checkpoint(path)
        found = tree.get("format")
        if found != RUNSTATE_FORMAT:
            # Distinguish "not a runstate file at all" from "a runstate file
            # of a version this build does not read" — the latter must fail
            # with a clear, actionable error *before* any field parsing, not
            # with a KeyError halfway through the tree.
            prefix = RUNSTATE_FORMAT.rsplit("/", 1)[0] + "/"
            if isinstance(found, str) and found.startswith(prefix):
                raise ValueError(
                    f"{path} is a run-state checkpoint of unknown format "
                    f"{found!r}; this build reads {RUNSTATE_FORMAT!r} only "
                    "(delete the sidecar to restart the run from scratch, or "
                    "load it with the build that wrote it)"
                )
            raise ValueError(
                f"{path} is not a run-state checkpoint "
                f"(format={found!r}, expected {RUNSTATE_FORMAT!r})"
            )
        return tree

    def _restore_policy(self, policy_tree: dict) -> None:
        """Load the checkpointed policy state into the (freshly built) policy."""
        if not isinstance(self.policy, TaskArrangementFramework):
            raise ValueError(
                f"run-state resume requires a checkpointable framework policy, "
                f"got {type(self.policy).__name__}"
            )
        saved_config = migrate_config_tree(policy_tree["config"], policy_tree["format"])
        if saved_config != self.policy.config:
            raise ValueError(
                "run-state checkpoint was written with a different framework config "
                f"({asdict(saved_config)} vs {asdict(self.policy.config)}); "
                "resume requires the identical spec"
            )
        self.policy.load_state_dict(policy_tree["state"])

    def _save_checkpoint(self, platform, state: dict) -> None:
        """Write the policy checkpoint and its run-state sidecar (both atomic)."""
        policy = self.policy
        if isinstance(policy, TaskArrangementFramework):
            policy_tree = policy.checkpoint_tree()
            runner_tree = {
                "arrivals": state["arrivals"],
                "completions": state["completions"],
                "events_consumed": state["events_consumed"],
                "next_day_boundary": state["next_day_boundary"],
                "decision_seconds": state["decision_seconds"],
                "update_seconds": state["update_seconds"],
                "retrain_seconds": np.asarray(state["retrain_seconds"], dtype=np.float64),
                "worker_metrics": state["worker_metrics"].state_dict(),
                "requester_metrics": state["requester_metrics"].state_dict(),
                "platform": platform.state_dict(),
            }
            runstate_tree = {
                "format": RUNSTATE_FORMAT,
                "policy": policy_tree,
                "runner": runner_tree,
            }
            write_many = getattr(self.checkpoint_writer, "write_many", None)
            if write_many is not None:
                # Batched writers snapshot the shared policy subtree once
                # instead of deep-copying it for each of the two files.
                write_many(
                    [
                        (policy_tree, self.checkpoint_path),
                        (runstate_tree, runstate_path(self.checkpoint_path)),
                    ]
                )
            else:
                self.checkpoint_writer(policy_tree, self.checkpoint_path)
                self.checkpoint_writer(runstate_tree, runstate_path(self.checkpoint_path))
        else:
            policy.save(self.checkpoint_path)

    # ------------------------------------------------------------------ #
    def loop(self) -> Generator[tuple, object, EvaluationResult]:
        """The full evaluation loop as a request generator (see class doc)."""
        config = self.config
        policy = self.policy
        checkpointing = (
            self.checkpoint_path is not None
            and config.checkpoint_every is not None
            and policy.supports_checkpointing
        )
        platform, behavior = _build_platform(self.dataset, config)
        warm_trace, online_trace = self.dataset.trace.split_warmup(self.dataset.warmup_end)

        worker_metrics = WorkerBenefitTracker(k=config.k)
        requester_metrics = RequesterBenefitTracker(k=config.k)
        arrivals = 0
        completions = 0
        decision_seconds = 0.0
        update_seconds = 0.0
        retrain_seconds: list[float] = []
        # Drift readings restart empty on resume: the probe is diagnostic
        # only, so the run-state format stays unchanged.
        drift_records: list[dict] = []
        next_day_boundary = self.dataset.warmup_end + MINUTES_PER_DAY

        runstate = self._load_runstate()
        if runstate is not None:
            # Fast-forward: restore policy, platform and trackers, then skip
            # the already-applied events instead of re-simulating them.
            self._restore_policy(runstate["policy"])
            runner_tree = runstate["runner"]
            platform.load_state_dict(runner_tree["platform"])
            worker_metrics.load_state_dict(runner_tree["worker_metrics"])
            requester_metrics.load_state_dict(runner_tree["requester_metrics"])
            arrivals = int(runner_tree["arrivals"])
            completions = int(runner_tree["completions"])
            decision_seconds = float(runner_tree["decision_seconds"])
            update_seconds = float(runner_tree["update_seconds"])
            retrain_seconds = [float(x) for x in np.asarray(runner_tree["retrain_seconds"])]
            next_day_boundary = float(runner_tree["next_day_boundary"])
            stream = self.stream_factory(
                platform, online_trace, int(runner_tree["events_consumed"])
            )
        else:
            policy.reset()
            # Warm-up month: self-selected completions; the policy observes
            # them (capped) so features *and* the learning model initialise
            # from the first month, as in the paper.
            observed = 0
            limit = config.max_warmup_observations
            for context, preferred, feedback in _warmup_interactions(
                platform, behavior, warm_trace
            ):
                if config.learn_from_warmup and (limit is None or observed < limit):
                    yield ("observe", context, preferred, feedback)
                    observed += 1
            stream = self.stream_factory(platform, online_trace, 0)

        def runner_state() -> dict:
            """Loop state for the run-state sidecar (reads the live locals)."""
            return {
                "arrivals": arrivals,
                "completions": completions,
                "events_consumed": stream.events_consumed,
                "next_day_boundary": next_day_boundary,
                "decision_seconds": decision_seconds,
                "update_seconds": update_seconds,
                "retrain_seconds": retrain_seconds,
                "worker_metrics": worker_metrics,
                "requester_metrics": requester_metrics,
            }

        reached_cap = (
            config.max_arrivals is not None and arrivals >= config.max_arrivals
        )
        while not reached_cap:
            context = stream.next_arrival()
            while context is STARVED:
                # Push-fed stream with nothing buffered: hand control back to
                # the driver until more events arrive (trace cursors never
                # starve, so the offline drivers never reach this yield).
                yield ("idle",)
                context = stream.next_arrival()
            if context is None:
                break
            while context.timestamp >= next_day_boundary:
                started = time.perf_counter()
                policy.end_of_day(next_day_boundary)
                retrain_seconds.append(time.perf_counter() - started)
                next_day_boundary += MINUTES_PER_DAY
            if not context.available_tasks:
                continue

            started = time.perf_counter()
            ranked = yield ("rank", context)
            decision_seconds += time.perf_counter() - started
            if not ranked:
                continue

            presented = self._presented(ranked)
            if config.mode == "single":
                feedback = platform.submit_single(context, presented[0])
            else:
                feedback = platform.submit_list(context, presented)

            month = self._month_of(context.timestamp)
            worker_metrics.record(month, feedback.completed_rank)
            requester_metrics.record(month, feedback.completed_rank, feedback.quality_gain)
            arrivals += 1
            completions += int(feedback.completed)

            started = time.perf_counter()
            yield ("observe", context, presented, feedback)
            update_seconds += time.perf_counter() - started

            if (
                config.drift_every is not None
                and arrivals % config.drift_every == 0
                and isinstance(policy, TaskArrangementFramework)
            ):
                drift_records.append({"arrivals": arrivals, **policy.measure_drift(context)})

            if checkpointing and arrivals % config.checkpoint_every == self.checkpoint_phase:
                self._save_checkpoint(platform, runner_state())

            if config.max_arrivals is not None and arrivals >= config.max_arrivals:
                reached_cap = True

        # End-of-run barrier: asynchronously trained policies drain their
        # background queue here (a no-op for inline learners), so the final
        # checkpoint and the returned result reflect every feedback.
        started = time.perf_counter()
        policy.flush_training()
        update_seconds += time.perf_counter() - started

        # Final save, unless the last arrival already checkpointed (or the
        # driver asked for schedule-aligned checkpoints only).
        if (
            checkpointing
            and self.final_checkpoint
            and arrivals
            and arrivals % config.checkpoint_every != self.checkpoint_phase
        ):
            self._save_checkpoint(platform, runner_state())

        mean_retrain = sum(retrain_seconds) / len(retrain_seconds) if retrain_seconds else 0.0
        return EvaluationResult(
            policy_name=policy.name,
            arrivals=arrivals,
            completions=completions,
            cr=worker_metrics.completion_rate(),
            kcr=worker_metrics.top_k_completion_rate(),
            ndcg_cr=worker_metrics.ndcg_completion_rate(),
            qg=requester_metrics.quality_gain(),
            kqg=requester_metrics.top_k_quality_gain(),
            ndcg_qg=requester_metrics.ndcg_quality_gain(),
            mean_update_seconds=update_seconds / max(arrivals, 1),
            mean_decision_seconds=decision_seconds / max(arrivals, 1),
            mean_retrain_seconds=mean_retrain,
            drift=drift_records,
        )


class SimulationRunner:
    """Evaluates one policy on one dataset."""

    def __init__(self, dataset: CrowdDataset, config: RunnerConfig | None = None) -> None:
        self.dataset = dataset
        self.config = config if config is not None else RunnerConfig()

    # ------------------------------------------------------------------ #
    def run(
        self,
        policy: ArrangementPolicy,
        checkpoint_path: str | Path | None = None,
        resume: bool = False,
    ) -> EvaluationResult:
        """Replay the dataset against ``policy`` and return all measures.

        When ``checkpoint_path`` is given, ``config.checkpoint_every`` is set
        and the policy supports checkpointing, a checkpoint is written (and
        overwritten in place) every N online arrivals plus once after the
        final arrival, so an interrupted run always leaves the most recent
        complete training state behind.  Alongside the policy checkpoint a
        ``<stem>.runstate.npz`` sidecar records the platform, metric and
        loop state; with ``resume=True`` an existing sidecar fast-forwards
        the run to the checkpointed arrival instead of redoing finished
        arrivals, continuing bit-identically to an uninterrupted run.
        """
        drive = ReplicaRun(self.dataset, policy, self.config, checkpoint_path, resume)
        loop = drive.loop()
        response: object = None
        while True:
            try:
                request = loop.send(response)
            except StopIteration as stop:
                return stop.value
            if request[0] == "rank":
                response = policy.rank_tasks(request[1])
            else:
                _, context, presented, feedback = request
                policy.observe_feedback(context, presented, feedback)
                response = None

    # ------------------------------------------------------------------ #
    def replay_decisions(
        self,
        policy: ArrangementPolicy,
        batch_size: int = 64,
        max_arrivals: int | None = None,
    ) -> int:
        """Decision-only replay: rank every online arrival, in padded batches.

        No feedback is submitted and the policy never learns, so consecutive
        arrivals are independent and their candidate scoring can be routed
        through :meth:`ArrangementPolicy.rank_tasks_batch` — for the DDQN
        framework that is one ``q_values_batch`` mega-batch per Q-network per
        ``batch_size`` arrivals instead of one forward per arrival.  This is
        the pure decision path: the end-to-end throughput harness uses it to
        report decisions/sec, and it doubles as frozen-policy scoring of a
        trace.  Returns the number of arrivals ranked.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        platform, behavior = _build_platform(self.dataset, self.config)
        warm_trace, online_trace = self.dataset.trace.split_warmup(self.dataset.warmup_end)
        # Replay the warm-up month exactly like run() does (self-selected
        # completions evolve the pool, worker features and task qualities)
        # but without the policy observing anything — the frozen policy then
        # scores the *same* candidate pools as the online loop would.
        for _ in _warmup_interactions(platform, behavior, warm_trace):
            pass

        ranked = 0
        pending: list = []
        for context in platform.replay(online_trace):
            if not context.available_tasks:
                continue
            pending.append(context)
            if len(pending) >= batch_size:
                policy.rank_tasks_batch(pending)
                ranked += len(pending)
                pending.clear()
            if max_arrivals is not None and ranked + len(pending) >= max_arrivals:
                break
        if pending:
            policy.rank_tasks_batch(pending)
            ranked += len(pending)
        return ranked


class VectorizedRunner:
    """Advances N independent replicas in lockstep, fusing framework work.

    ``replicas`` holds one ``(dataset, policy)`` pair per replica (optionally
    ``(dataset, policy, checkpoint_path)``); all replicas share one
    :class:`RunnerConfig`.  Per-replica results are float-for-float equal to
    ``SimulationRunner(dataset, config).run(policy, …)`` — replay memories,
    RNG streams and explorer schedules stay per-replica, and every fused
    network call is bit-identical per replica to the serial call it replaces
    (see :mod:`repro.core.vectorized`).  Speed comes from batching the DDQN
    replicas' candidate scorings and train steps across replicas; baseline
    policies simply run lockstep.

    Caveat: the per-replica ``mean_decision_seconds`` / ``mean_update_seconds``
    timing fields are measured around the lockstep round, so each replica's
    timer absorbs the whole fused batch (and the other replicas' simulation)
    — they do not isolate one policy's cost the way a serial run does.
    Timing fields are wall-clock noise throughout the determinism layer;
    compare throughput via total run time (as ``bench_endtoend``'s
    multi-replica section does), never via these per-replica means.
    """

    def __init__(
        self,
        replicas: Sequence[tuple],
        config: RunnerConfig | None = None,
        resume: bool = False,
    ) -> None:
        if not replicas:
            raise ValueError("VectorizedRunner requires at least one replica")
        self.config = config if config is not None else RunnerConfig()
        self.resume = resume
        self._replicas: list[tuple[CrowdDataset, ArrangementPolicy, Path | None]] = []
        for replica in replicas:
            if len(replica) == 2:
                dataset, policy = replica
                checkpoint_path = None
            else:
                dataset, policy, checkpoint_path = replica
            self._replicas.append((dataset, policy, checkpoint_path))

    @property
    def policies(self) -> list[ArrangementPolicy]:
        return [policy for _, policy, _ in self._replicas]

    def run(self) -> list[EvaluationResult]:
        """Run all replicas to completion, returning results in replica order."""
        loops = [
            ReplicaRun(dataset, policy, self.config, checkpoint_path, self.resume).loop()
            for dataset, policy, checkpoint_path in self._replicas
        ]
        policies = self.policies

        def answer_round(batch):
            responses: dict[int, object] = {}
            ranks, observes = partition_requests(batch)
            fused_ranks = [
                (index, request)
                for index, request in ranks
                if isinstance(policies[index], TaskArrangementFramework)
            ]
            if fused_ranks:
                rankings = decide_lockstep(
                    [(policies[index], request[1]) for index, request in fused_ranks]
                )
                for (index, _), ranking in zip(fused_ranks, rankings):
                    responses[index] = ranking
            for index, request in ranks:
                if index not in responses:
                    responses[index] = policies[index].rank_tasks(request[1])
            # Async-trained frameworks train through their trainer loop (the
            # serial fallback below), not the inline fused store/train path.
            fused_observes = [
                (index, request)
                for index, request in observes
                if isinstance(policies[index], TaskArrangementFramework)
                and not policies[index].config.async_training
            ]
            if fused_observes:
                observe_lockstep(
                    [
                        (policies[index], request[1], request[2], request[3])
                        for index, request in fused_observes
                    ]
                )
                for index, _ in fused_observes:
                    responses[index] = None
            for index, request in observes:
                if index not in responses:
                    _, context, presented, feedback = request
                    policies[index].observe_feedback(context, presented, feedback)
                    responses[index] = None
            return responses

        return VectorizedPlatform(loops).run(answer_round)  # type: ignore[return-value]


def evaluate_policy(
    dataset: CrowdDataset,
    policy: ArrangementPolicy,
    config: RunnerConfig | None = None,
) -> EvaluationResult:
    """Convenience wrapper: run ``policy`` on ``dataset`` with ``config``."""
    return SimulationRunner(dataset, config).run(policy)
