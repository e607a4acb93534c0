"""Decoupled training loops: decisions on a frozen snapshot, training off-path.

BENCH_endtoend shows the DDQN's per-arrival cost is >99% *training* (replay
sampling, Bellman-target forwards, backward, Adam step) while the decision
itself — two Q-network forwards plus an argsort — takes ~1.5 ms.  The paper's
online arrangement loop only ever *reads* Q-values at arrival time, so the
update path can be taken off the critical path without changing what the
policy serves.

Two :class:`TrainerLoop` implementations realise that split:

* :class:`SyncTrainer` — today's inline behaviour, unchanged: every training
  plan executes immediately on the caller's thread (:func:`run_plan`:
  ``store`` + cadenced ``train_step``), and decisions read the live online
  network.  This is the exact-equality reference; the framework with a
  ``SyncTrainer`` is bit-identical to the historical inline path.
* :class:`AsyncTrainer` — training plans are handed to a background thread
  through a bounded queue.  The trainer thread stores transitions, runs
  (amortised) train steps and *publishes* new parameters as one contiguous
  copy of the optimiser's flat buffer (:attr:`Optimizer._flat_params`);
  decisions run on a :class:`SnapshotNetwork` refreshed from the latest
  published buffer — no lock is ever held across a forward or a train step,
  only across memcpys.

Either way the framework asks the loop for the :meth:`TrainerLoop.scorer` of
an agent (the live network, or its snapshot) and scores on it through the
one Q-network forward of :mod:`repro.core.qnetwork`.

Async mode is **not** bit-identical to serial (decisions see slightly stale
parameters and the trainer may skip cadence steps it cannot keep up with).
It is pinned by *seeded-queue determinism* instead: with a fixed handoff
schedule (``handoff_lag = L``: before decision *k* the trainer has consumed
exactly the plans submitted up to arrival *k − L*, every plan trained with
full serial semantics) an async run is exactly reproducible run-to-run, and
:meth:`TrainerLoop.drain` (called by checkpointing) makes save/load exact.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .qnetwork import QScorer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (agent imports nothing here)
    from .agent import DQNAgent
    from .replay import Transition

__all__ = ["TrainerLoop", "SyncTrainer", "AsyncTrainer", "SnapshotNetwork", "run_plan"]

#: One training plan: what ``TaskArrangementFramework.build_training_plan``
#: returns for a single feedback — per-agent transition sequences.
TrainingPlan = "list[tuple[DQNAgent, list[Transition]]]"


class SnapshotNetwork(QScorer):
    """Frozen view of one agent's online network for lock-free decisions.

    All parameters live in one contiguous flat vector laid out exactly like
    the agent optimiser's flat buffer (:attr:`Optimizer._flat_params`), so
    refreshing the snapshot is a single ``memcpy``-like copy.  Its parameter
    arrays are views into that vector, which the Q-network forward scores on
    exactly as it scores on the live network's own parameters.
    """

    def __init__(self, agent: "DQNAgent") -> None:
        self._agent = agent
        network = agent.network
        optimizer = agent.learner.optimizer
        optimizer._adopt_strays()
        self._flat = optimizer._flat_params.copy()
        self.num_heads = network.num_heads
        self.dtype = network.dtype
        self.signature = network.signature
        segments = {
            id(param): (start, stop, shape)
            for param, start, stop, shape in optimizer._segments()
        }
        self._arrays = {}
        for name, param in network.parameter_map.items():
            start, stop, shape = segments[id(param)]
            self._arrays[name] = self._flat[start:stop].reshape(shape)

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return self._arrays

    def refresh(self, source: np.ndarray | None = None) -> None:
        """Copy new parameters into the snapshot (one contiguous copy).

        ``source`` defaults to the live optimiser flat buffer — only safe
        while no train step is running (trainer quiescent); the async trainer
        passes its *published* buffer instead.
        """
        if source is None:
            optimizer = self._agent.learner.optimizer
            optimizer._adopt_strays()
            source = optimizer._flat_params
        np.copyto(self._flat, source)


def run_plan(plan) -> int:
    """Store a plan's transitions in order, training each agent whenever it is due.

    The one store-and-train loop: after every stored transition the agent's
    cadence (:meth:`DQNAgent.should_train`) decides whether it takes a train
    step now.  Returns the number of train steps taken.
    """
    steps = 0
    for agent, transitions in plan:
        for transition in transitions:
            agent.store(transition)
            if agent.should_train():
                agent.record_report(agent.learner.train_step(agent.memory))
                steps += 1
    return steps


class TrainerLoop:
    """How one framework's training plans get executed.

    The framework builds a plan per feedback (:meth:`submit`), scores each
    decision on the agents' :meth:`scorer` after one :meth:`before_decision`,
    and synchronises at checkpoint and shutdown boundaries (:meth:`drain` /
    :meth:`close`).
    """

    def submit(self, plan) -> None:
        raise NotImplementedError

    def before_decision(self) -> None:
        """Hook before each decision (parameter refresh / handoff barrier)."""

    def scorer(self, agent: "DQNAgent") -> QScorer:
        """The parameters ``agent``'s decisions score on."""
        raise NotImplementedError

    def drain(self) -> None:
        """Block until every submitted plan has been fully executed."""

    def close(self) -> None:
        """Stop any background work; the loop must not be used afterwards."""

    def republish(self) -> None:
        """Force-refresh decision parameters from the live networks."""

    def stats(self) -> dict:
        return {}


class SyncTrainer(TrainerLoop):
    """Inline execution — the historical behaviour and exact-equality reference."""

    def submit(self, plan) -> None:
        run_plan(plan)

    def scorer(self, agent: "DQNAgent") -> QScorer:
        return agent.network


class AsyncTrainer(TrainerLoop):
    """Background-thread trainer over the flat optimiser buffers.

    ``handoff_lag=None`` (free-running) maximises throughput: the trainer
    drains every queued plan in bulk, stores all transitions, then runs **at
    most one** train step per due agent per drain cycle — cadence steps it
    cannot keep up with are *dropped*, never queued as debt, so the decision
    path never waits on training.  Parameters are published every
    ``publish_interval`` train steps.

    ``handoff_lag=L`` (fixed schedule) trades throughput for exact
    reproducibility: before decision *k* the main thread grants the trainer
    credit for the plans submitted up to arrival *k − L* and blocks until it
    has consumed exactly those, each with full serial store/train semantics.
    Two runs of the same spec under the same lag are bit-identical to each
    other (seeded-queue determinism).

    The worker is a daemon thread; an exception raised inside it is captured
    and re-raised on the main thread at the next :meth:`submit` /
    :meth:`before_decision` / :meth:`drain` / :meth:`close` call.
    """

    def __init__(
        self,
        agents: Sequence["DQNAgent"],
        queue_size: int = 64,
        publish_interval: int = 1,
        handoff_lag: int | None = None,
    ) -> None:
        if queue_size <= 0:
            raise ValueError("queue_size must be positive")
        if publish_interval <= 0:
            raise ValueError("publish_interval must be positive")
        if handoff_lag is not None and handoff_lag < 0:
            raise ValueError("handoff_lag must be >= 0 (or None for free-running)")
        self._agents = list(agents)
        self._queue_size = queue_size
        self._publish_interval = publish_interval
        self._handoff_lag = handoff_lag

        self._snapshots = {id(agent): SnapshotNetwork(agent) for agent in self._agents}
        #: Latest published parameters per agent + a version counter; the
        #: decision thread memcpys these into its snapshots when the version
        #: moves.  Guarded by ``_publish_lock`` (held only across memcpys).
        self._publish_lock = threading.Lock()
        self._published = {
            id(agent): agent.learner.optimizer._flat_params.copy() for agent in self._agents
        }
        self._publish_version = 0
        self._seen_version = -1
        self._steps_since_publish = 0

        self._cond = threading.Condition()
        self._plans: deque = deque()
        self._submitted = 0
        self._consumed = 0
        #: Fixed-schedule mode: how many plans the trainer may consume.
        self._credit = 0
        self._idle = True
        self._closing = False
        self._error: BaseException | None = None

        self._train_steps = 0
        self._skipped_steps = 0
        self._publishes = 0
        self._busy_seconds = 0.0
        self._started = time.perf_counter()

        self._thread = threading.Thread(
            target=self._run, name="repro-async-trainer", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # Main-thread API
    # ------------------------------------------------------------------ #
    def _raise_pending(self) -> None:
        if self._error is not None:
            error = self._error
            raise RuntimeError("async trainer thread failed") from error

    def submit(self, plan) -> None:
        with self._cond:
            self._raise_pending()
            if self._handoff_lag is None:
                # Bounded handoff: block while the queue is full (the trainer
                # drains in bulk, so one wakeup frees the whole queue).
                while len(self._plans) >= self._queue_size and not self._closing:
                    self._cond.wait()
                self._raise_pending()
            if self._closing:
                raise RuntimeError("async trainer is closed")
            self._plans.append(plan)
            self._submitted += 1
            self._cond.notify_all()

    def before_decision(self) -> None:
        if self._handoff_lag is None:
            self._raise_pending()
            self._refresh_published()
            return
        target = max(0, self._submitted - self._handoff_lag)
        with self._cond:
            self._raise_pending()
            if target > self._credit:
                self._credit = target
                self._cond.notify_all()
            while not (self._consumed >= target and self._idle) and self._error is None:
                self._cond.wait()
            self._raise_pending()
        # Trainer quiescent at the barrier: refresh straight from the live
        # parameters (the published buffers play no role under a fixed
        # schedule — the barrier itself is the synchronisation).
        for snapshot in self._snapshots.values():
            snapshot.refresh()

    def scorer(self, agent: "DQNAgent") -> QScorer:
        return self._snapshots[id(agent)]

    def drain(self) -> None:
        """Execute everything submitted so far, then refresh the snapshots.

        Checkpointing calls this: after a drain the live networks, replay
        memories and counters reflect every observed feedback, so the
        checkpoint tree is exact.  Under a fixed schedule drains happen at
        deterministic arrivals (``checkpoint_every``), which keeps drained
        runs reproducible too.
        """
        with self._cond:
            self._raise_pending()
            self._credit = self._submitted
            self._cond.notify_all()
            while not (self._consumed >= self._submitted and self._idle) and self._error is None:
                self._cond.wait()
            self._raise_pending()
        self.republish()

    def republish(self) -> None:
        """Copy the live parameters into the published buffers and snapshots.

        Only safe while the trainer is quiescent (after :meth:`drain`, or
        right after the owning framework loaded a checkpoint before any plan
        has been submitted).
        """
        with self._publish_lock:
            for agent in self._agents:
                optimizer = agent.learner.optimizer
                optimizer._adopt_strays()
                np.copyto(self._published[id(agent)], optimizer._flat_params)
            self._publish_version += 1
        self._refresh_published()

    def close(self) -> None:
        """Stop the trainer thread (idempotent); pending plans are executed."""
        with self._cond:
            if self._closing and not self._thread.is_alive():
                self._raise_pending()
                return
            self._closing = True
            self._credit = self._submitted
            self._cond.notify_all()
        self._thread.join(timeout=60.0)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise RuntimeError("async trainer thread failed to stop")
        self._raise_pending()

    def stats(self) -> dict:
        """Counters for benchmarks: consumption, training, publish, utilisation."""
        elapsed = max(time.perf_counter() - self._started, 1e-9)
        return {
            "plans_submitted": self._submitted,
            "plans_consumed": self._consumed,
            "train_steps": self._train_steps,
            "skipped_steps": self._skipped_steps,
            "publishes": self._publishes,
            "busy_seconds": self._busy_seconds,
            "utilisation": self._busy_seconds / elapsed,
            "mode": "fixed" if self._handoff_lag is not None else "free",
        }

    # ------------------------------------------------------------------ #
    # Decision-side refresh
    # ------------------------------------------------------------------ #
    def _refresh_published(self) -> None:
        if self._seen_version == self._publish_version:
            return
        with self._publish_lock:
            for agent in self._agents:
                self._snapshots[id(agent)].refresh(self._published[id(agent)])
            self._seen_version = self._publish_version

    # ------------------------------------------------------------------ #
    # Trainer thread
    # ------------------------------------------------------------------ #
    def _publish(self) -> None:
        with self._publish_lock:
            for agent in self._agents:
                np.copyto(
                    self._published[id(agent)], agent.learner.optimizer._flat_params
                )
            self._publish_version += 1
        self._publishes += 1
        self._steps_since_publish = 0

    def _consume_free(self, plans: list) -> None:
        """Bulk store, then at most one train step per due agent (amortised).

        The cadence debt of a drain cycle is collapsed into a single step per
        agent — steps the trainer cannot keep up with are *dropped* (counted
        in ``skipped_steps``), never queued, so training load can never make
        the handoff queue grow without bound.
        """
        batches: dict[int, tuple["DQNAgent", list]] = {}
        for plan in plans:
            for agent, transitions in plan:
                batches.setdefault(id(agent), (agent, []))[1].extend(transitions)
        stepped = False
        for agent, transitions in batches.values():
            if not transitions:
                continue
            before = agent.diagnostics.observations
            agent.memory.push_batch(transitions)
            agent.diagnostics.observations = before + len(transitions)
            interval = agent.config.train_interval
            due = (before + len(transitions)) // interval - before // interval
            if due == 0 or len(agent.memory) < agent.config.min_buffer_before_training:
                continue
            agent.record_report(agent.learner.train_step(agent.memory))
            self._train_steps += 1
            self._skipped_steps += due - 1
            stepped = True
        if stepped:
            self._steps_since_publish += 1
            if self._steps_since_publish >= self._publish_interval:
                self._publish()

    def _run(self) -> None:
        try:
            while True:
                with self._cond:
                    self._idle = True
                    self._cond.notify_all()
                    while not self._available() and not self._done():
                        self._cond.wait()
                    if self._done():
                        return
                    self._idle = False
                    if self._handoff_lag is None:
                        batch = list(self._plans)
                        self._plans.clear()
                    else:
                        batch = [self._plans.popleft()]
                    self._cond.notify_all()
                started = time.perf_counter()
                if self._handoff_lag is None:
                    self._consume_free(batch)
                else:
                    for plan in batch:
                        self._train_steps += run_plan(plan)
                self._busy_seconds += time.perf_counter() - started
                with self._cond:
                    self._consumed += len(batch)
                    self._cond.notify_all()
        except BaseException as error:  # noqa: BLE001 - re-raised on the main thread
            with self._cond:
                self._error = error
                self._idle = True
                self._cond.notify_all()

    def _available(self) -> bool:
        if not self._plans:
            return False
        if self._handoff_lag is None or self._closing:
            return True
        return self._consumed < self._credit

    def _done(self) -> bool:
        return self._closing and not self._plans
