"""The decoupled trainer loops: snapshot decisions + background training.

Async training is deliberately *not* bit-identical to serial (decisions see
published, slightly stale parameters; the free-running trainer amortises
cadence steps it cannot keep up with).  What these tests pin down instead:

* :class:`SnapshotNetwork` forwards are bitwise equal to the live network —
  the decision path never changes *what* is computed, only *which* frozen
  parameters it reads;
* :class:`SyncTrainer` is exactly an inline store / ``should_train`` /
  ``train_step`` loop (the exact-equality reference);
* the fixed-schedule (``handoff_lag``) mode executes plans with full serial
  semantics — lag 0 is bit-identical to synchronous training;
* the trainer thread never deadlocks on early termination and surfaces its
  exceptions on the main thread.
"""

import numpy as np
import pytest

from repro.core import AsyncTrainer, SnapshotNetwork, SyncTrainer
from repro.core.agent import AgentConfig, DQNAgent
from repro.core.replay import Transition
from repro.core.state import StateMatrix

FEATURE_DIM = 6

AGENT_CONFIG = dict(
    hidden_dim=8,
    num_heads=2,
    batch_size=4,
    train_interval=2,
    min_buffer_before_training=2,
)


def make_agent(seed: int = 0, **overrides) -> DQNAgent:
    return DQNAgent(FEATURE_DIM, AgentConfig(**{**AGENT_CONFIG, **overrides, "seed": seed}))


def make_state(rng: np.random.Generator, num_tasks: int = 3) -> StateMatrix:
    matrix = rng.standard_normal((num_tasks, FEATURE_DIM))
    return StateMatrix(
        matrix=matrix, mask=np.zeros(num_tasks, bool), task_ids=list(range(num_tasks))
    )


def make_transition(rng: np.random.Generator) -> Transition:
    future = [(0.6, make_state(rng)), (0.3, make_state(rng, num_tasks=2))]
    return Transition(
        state=make_state(rng),
        action_index=int(rng.integers(0, 3)),
        reward=float(rng.uniform(-1.0, 1.0)),
        future_states=future,
    )


def make_plans(count: int, agent: DQNAgent, seed: int = 3) -> list:
    rng = np.random.default_rng(seed)
    return [[(agent, [make_transition(rng)])] for _ in range(count)]


def flat_params(agent: DQNAgent) -> np.ndarray:
    optimizer = agent.learner.optimizer
    optimizer._adopt_strays()
    return optimizer._flat_params.copy()


class TestSnapshotNetwork:
    def test_q_values_bitwise_equal_to_live_network(self):
        agent = make_agent()
        snapshot = SnapshotNetwork(agent)
        rng = np.random.default_rng(1)
        for num_tasks in (1, 3, 7):
            state = make_state(rng, num_tasks=num_tasks)
            np.testing.assert_array_equal(snapshot.q_values(state), agent.q_values(state))

    def test_q_values_batch_bitwise_equal_to_live_network(self):
        agent = make_agent()
        snapshot = SnapshotNetwork(agent)
        rng = np.random.default_rng(2)
        states = [make_state(rng, num_tasks=n) for n in (2, 5, 1, 4)]
        live_batch = agent.network.q_values_batch(states)
        for mirror, live in zip(snapshot.q_values_batch(states), live_batch):
            np.testing.assert_array_equal(mirror, live)

    def test_snapshot_is_frozen_until_refreshed(self):
        agent = make_agent()
        snapshot = SnapshotNetwork(agent)
        rng = np.random.default_rng(3)
        state = make_state(rng)
        before = snapshot.q_values(state).copy()
        for plan in make_plans(8, agent):
            SyncTrainer().submit(plan)
        assert agent.diagnostics.train_steps > 0
        # Training moved the live network; the snapshot still serves the old
        # parameters until an explicit refresh.
        np.testing.assert_array_equal(snapshot.q_values(state), before)
        assert not np.array_equal(agent.q_values(state), before)
        snapshot.refresh()
        np.testing.assert_array_equal(snapshot.q_values(state), agent.q_values(state))

    def test_empty_state_matches_live_network(self):
        agent = make_agent()
        snapshot = SnapshotNetwork(agent)
        empty = StateMatrix(
            matrix=np.zeros((0, FEATURE_DIM)), mask=np.zeros(0, bool), task_ids=[]
        )
        np.testing.assert_array_equal(snapshot.q_values(empty), agent.q_values(empty))
        assert snapshot.q_values_batch([]) == []


class TestSyncTrainer:
    def test_matches_inline_store_and_train_bitwise(self):
        inline, via_trainer = make_agent(seed=5), make_agent(seed=5)
        trainer = SyncTrainer()
        rng = np.random.default_rng(7)
        for _ in range(10):
            transition = make_transition(rng)
            inline.store(transition)
            if inline.should_train():
                inline.record_report(inline.learner.train_step(inline.memory))
            trainer.submit([(via_trainer, [transition])])
        assert inline.diagnostics.train_steps == via_trainer.diagnostics.train_steps > 0
        np.testing.assert_array_equal(flat_params(inline), flat_params(via_trainer))


class TestAsyncTrainerFixedSchedule:
    def test_lag_zero_is_bit_identical_to_sync(self):
        sync_agent, async_agent = make_agent(seed=9), make_agent(seed=9)
        sync = SyncTrainer()
        trainer = AsyncTrainer([async_agent], handoff_lag=0)
        try:
            for sync_plan, async_plan in zip(
                make_plans(12, sync_agent), make_plans(12, async_agent)
            ):
                sync.submit(sync_plan)
                trainer.submit(async_plan)
                trainer.before_decision()
                # Lag 0: the barrier consumed everything submitted so far with
                # full serial semantics, so the live parameters agree exactly.
                np.testing.assert_array_equal(
                    flat_params(sync_agent), flat_params(async_agent)
                )
                rng = np.random.default_rng(async_agent.diagnostics.observations)
                state = make_state(rng)
                np.testing.assert_array_equal(
                    trainer.scorer(async_agent).q_values(state), sync_agent.q_values(state)
                )
        finally:
            trainer.close()
        assert sync_agent.diagnostics.train_steps == async_agent.diagnostics.train_steps > 0

    def test_same_schedule_twice_is_exactly_reproducible(self):
        finals = []
        for _ in range(2):
            agent = make_agent(seed=11)
            trainer = AsyncTrainer([agent], handoff_lag=2)
            try:
                for plan in make_plans(15, agent):
                    trainer.submit(plan)
                    trainer.before_decision()
                trainer.drain()
            finally:
                trainer.close()
            finals.append((flat_params(agent), agent.diagnostics.train_steps))
        np.testing.assert_array_equal(finals[0][0], finals[1][0])
        assert finals[0][1] == finals[1][1] > 0

    def test_barrier_consumes_exactly_submitted_minus_lag(self):
        agent = make_agent(seed=13)
        trainer = AsyncTrainer([agent], handoff_lag=3)
        try:
            for index, plan in enumerate(make_plans(10, agent), start=1):
                trainer.submit(plan)
                trainer.before_decision()
                assert trainer.stats()["plans_consumed"] == max(0, index - 3)
            trainer.drain()
            assert trainer.stats()["plans_consumed"] == 10
        finally:
            trainer.close()


class TestAsyncTrainerFreeRunning:
    def test_drain_trains_and_publishes(self):
        agent = make_agent(seed=15)
        trainer = AsyncTrainer([agent], queue_size=4)
        try:
            for plan in make_plans(20, agent):
                trainer.submit(plan)
                trainer.before_decision()
            trainer.drain()
            stats = trainer.stats()
            assert stats["plans_submitted"] == stats["plans_consumed"] == 20
            assert stats["train_steps"] > 0
            assert stats["mode"] == "free"
            # Every observation was stored even where cadence steps were
            # amortised away.
            assert agent.diagnostics.observations == 20
            rng = np.random.default_rng(17)
            state = make_state(rng)
            # drain() republished: the snapshot serves the live parameters.
            np.testing.assert_array_equal(
                trainer.scorer(agent).q_values(state), agent.q_values(state)
            )
        finally:
            trainer.close()

    def test_amortised_steps_are_counted_never_owed(self):
        agent = make_agent(seed=19, train_interval=1)
        trainer = AsyncTrainer([agent], queue_size=64)
        try:
            for plan in make_plans(30, agent):
                trainer.submit(plan)
            trainer.drain()
            stats = trainer.stats()
            # Cadence 1 over 30 observations is 30 due steps; bulk drains run
            # at most one per cycle and drop the rest as skipped.
            assert stats["train_steps"] + stats["skipped_steps"] <= 30
            assert stats["train_steps"] >= 1
        finally:
            trainer.close()


class TestAsyncTrainerLifecycle:
    def test_close_is_idempotent_and_never_deadlocks(self):
        agent = make_agent(seed=21)
        trainer = AsyncTrainer([agent])
        for plan in make_plans(5, agent):
            trainer.submit(plan)
        # Early termination: close with a non-empty queue must finish the
        # queued plans and join the thread (a hang here fails via timeout).
        trainer.close()
        trainer.close()
        assert trainer.stats()["plans_consumed"] == 5
        with pytest.raises(RuntimeError, match="closed"):
            trainer.submit(make_plans(1, agent)[0])

    def test_trainer_exception_surfaces_on_the_main_thread(self):
        agent = make_agent(seed=23)
        trainer = AsyncTrainer([agent])

        class Exploding:
            def __iter__(self):
                raise ValueError("boom in trainer thread")

        trainer.submit([(agent, Exploding())])
        with pytest.raises(RuntimeError, match="async trainer thread failed"):
            trainer.drain()
        # Every subsequent call keeps re-raising instead of hanging.
        with pytest.raises(RuntimeError, match="async trainer thread failed"):
            trainer.submit(make_plans(1, agent)[0])
        with pytest.raises(RuntimeError, match="async trainer thread failed"):
            trainer.close()

    def test_constructor_validation(self):
        agent = make_agent(seed=25)
        with pytest.raises(ValueError, match="queue_size"):
            AsyncTrainer([agent], queue_size=0)
        with pytest.raises(ValueError, match="publish_interval"):
            AsyncTrainer([agent], publish_interval=0)
        with pytest.raises(ValueError, match="handoff_lag"):
            AsyncTrainer([agent], handoff_lag=-1)
