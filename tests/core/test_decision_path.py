"""One decision path and one feedback path for every policy type.

``TaskArrangementFramework.rank_tasks`` is the one-pair call of
:func:`repro.core.framework.rank_arrivals`, and the lockstep calls of
:mod:`repro.core.vectorized` take any policy: frameworks share one
``rank_arrivals`` call (and inline-trained ones their train steps), while
baselines, and the feedback of async-trained frameworks, go through the
policy's own methods.  The serve layer's :class:`RankBatcher` answers one
event-loop tick with one ``decide_lockstep`` call.  These tests pin that
each policy ends up exactly where its serial calls leave it, and that an
arrival with no available task ranks ``[]`` on every path without touching
the framework.
"""

import asyncio
import dataclasses
from types import SimpleNamespace

import numpy as np

from repro.baselines import LinUCBPolicy
from repro.core import FrameworkConfig, SetQNetwork, TaskArrangementFramework, vectorized
from repro.core import framework as framework_module
from repro.core import qnetwork as qnetwork_module
from repro.core.vectorized import decide_lockstep, observe_lockstep
from repro.crowd.entities import MINUTES_PER_DAY
from repro.crowd.platform import Feedback
from repro.serve.batching import RankBatcher

from test_checkpoint import make_context, snapshot  # noqa: F401 (fixture)

TINY = dict(hidden_dim=16, num_heads=2, batch_size=8, train_interval=1, seed=5)

#: A sync framework, an async framework on a pinned handoff schedule and a
#: baseline: the three ways a request can be answered.
MIXED = (
    ("sync", dict(TINY)),
    ("async", dict(TINY, seed=6, async_training=True, async_handoff_lag=0)),
    ("baseline", None),
)


def build_mixed(schema):
    return [
        LinUCBPolicy()
        if config is None
        else TaskArrangementFramework(schema, FrameworkConfig(**config))
        for _, config in MIXED
    ]


def close_all(*fleets):
    for fleet in fleets:
        for policy in fleet:
            if isinstance(policy, TaskArrangementFramework):
                policy.trainer.close()


def empty_context(snapshot, timestamp: float):
    return dataclasses.replace(
        make_context(snapshot, timestamp),
        available_tasks=[],
        task_features=np.zeros((0, snapshot[3].shape[1])),
        task_qualities=np.zeros(0),
    )


def one_tick(policies, contexts):
    """Submit one rank request per policy in one event-loop tick of a :class:`RankBatcher`."""

    async def tick():
        batcher = RankBatcher()
        futures = [
            batcher.submit(SimpleNamespace(policy=policy), context)
            for policy, context in zip(policies, contexts)
        ]
        rankings = await asyncio.gather(*futures)
        assert batcher.stats()["batches"] == 1
        return rankings

    return asyncio.run(tick())


def feedback_for(context, ranked, completed_rank: int = 1) -> Feedback:
    return Feedback(
        timestamp=context.timestamp,
        worker_id=context.worker.worker_id,
        presented_task_ids=ranked,
        completed_task_id=ranked[completed_rank],
        completed_rank=completed_rank,
        completion_reward=1.0,
        quality_gain=0.4,
        updated_worker_feature=context.worker_feature,
    )


def assert_trees_equal(a, b, path="state"):
    if isinstance(a, dict):
        assert set(a) == set(b), path
        for key in a:
            assert_trees_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for index, (x, y) in enumerate(zip(a, b)):
            assert_trees_equal(x, y, f"{path}[{index}]")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), path
    else:
        assert a == b, path


def assert_policies_equal(a, b):
    if isinstance(a, TaskArrangementFramework):
        a.flush_training()
        b.flush_training()
        assert_trees_equal(a.state_dict(), b.state_dict())
    else:
        for name in ("_A", "_A_inv", "_b"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestLockstepRoutesEveryPolicy:
    def test_observe_lockstep_leaves_each_policy_where_serial_does(self, snapshot):
        _, _, schema, _ = snapshot
        lockstep, serial = build_mixed(schema), build_mixed(schema)
        try:
            for step in range(12):
                contexts = [
                    make_context(snapshot, MINUTES_PER_DAY + 7.0 * (step * len(MIXED) + i))
                    for i in range(len(MIXED))
                ]
                rankings = [policy.rank_tasks(context) for policy, context in zip(serial, contexts)]
                for policy, context, ranked in zip(lockstep, contexts, rankings):
                    assert policy.rank_tasks(context) == ranked
                observe_lockstep(
                    [
                        (policy, context, ranked, feedback_for(context, ranked))
                        for policy, context, ranked in zip(lockstep, contexts, rankings)
                    ]
                )
                for policy, context, ranked in zip(serial, contexts, rankings):
                    policy.observe_feedback(context, ranked, feedback_for(context, ranked))
            for a, b in zip(lockstep, serial):
                assert_policies_equal(a, b)
            sync, async_ = lockstep[0], lockstep[1]
            assert sync.agent_w.diagnostics.train_steps > 0
            assert async_.agent_w.diagnostics.train_steps > 0
        finally:
            close_all(lockstep, serial)

    def test_rank_batcher_tick_ranks_like_serial_calls(self, snapshot):
        _, _, schema, _ = snapshot
        batched, serial = build_mixed(schema), build_mixed(schema)
        try:
            for step in range(3):
                contexts = [
                    make_context(snapshot, MINUTES_PER_DAY + 7.0 * (step * len(MIXED) + i))
                    for i in range(len(MIXED))
                ]
                assert one_tick(batched, contexts) == [
                    policy.rank_tasks(context) for policy, context in zip(serial, contexts)
                ]
        finally:
            close_all(batched, serial)

    def test_rank_tasks_scores_each_agent_alone(self, snapshot, monkeypatch):
        """The serial call: one ``q_values`` per agent, no stacking, no lockstep call."""
        _, _, schema, _ = snapshot
        framework = TaskArrangementFramework(schema, FrameworkConfig(**TINY))
        scored = []
        widths = []
        original_q_values = SetQNetwork.q_values

        def spy_q_values(network, state):
            scored.append(network)
            return original_q_values(network, state)

        def spy_q_forward(original):
            def forward(params, *args):
                widths.append(len(next(iter(params.values()))))
                return original(params, *args)

            return forward

        def refuse(pairs):
            raise AssertionError("rank_tasks went through vectorized.decide_lockstep")

        monkeypatch.setattr(SetQNetwork, "q_values", spy_q_values)
        for module in (framework_module, qnetwork_module):
            monkeypatch.setattr(module, "q_forward", spy_q_forward(module.q_forward))
        monkeypatch.setattr(vectorized, "decide_lockstep", refuse)

        ranked = framework.rank_tasks(make_context(snapshot, MINUTES_PER_DAY))
        assert sorted(ranked) == sorted(make_context(snapshot, 0.0).task_ids)
        assert scored == [framework.agent_w.network, framework.agent_r.network]
        assert widths == [1, 1]


class TestEmptyPool:
    """An arrival with no available task ranks ``[]`` and leaves no trace."""

    def untouched(self, framework, calls):
        assert framework._pending == {}
        assert framework.explorer.state_dict() == {"steps": 0}
        assert framework.assign_explorer.state_dict() == {"steps": 0}
        assert calls == []

    def spied(self, schema, monkeypatch):
        framework = TaskArrangementFramework(schema, FrameworkConfig(**TINY))
        calls = []
        monkeypatch.setattr(framework.trainer, "before_decision", lambda: calls.append(1))
        return framework, calls

    def test_serial_path(self, snapshot, monkeypatch):
        framework, calls = self.spied(snapshot[2], monkeypatch)
        assert framework.rank_tasks(empty_context(snapshot, MINUTES_PER_DAY)) == []
        self.untouched(framework, calls)

    def test_lockstep_path(self, snapshot, monkeypatch):
        _, _, schema, _ = snapshot
        framework, calls = self.spied(schema, monkeypatch)
        busy, twin = (TaskArrangementFramework(schema, FrameworkConfig(**TINY)) for _ in range(2))
        context = make_context(snapshot, MINUTES_PER_DAY + 7.0)
        rankings = decide_lockstep(
            [(framework, empty_context(snapshot, MINUTES_PER_DAY)), (busy, context)]
        )
        assert rankings == [[], twin.rank_tasks(context)]
        self.untouched(framework, calls)

    def test_rank_batcher_path(self, snapshot, monkeypatch):
        _, _, schema, _ = snapshot
        framework, calls = self.spied(schema, monkeypatch)
        busy, twin = build_mixed(schema), build_mixed(schema)
        try:
            context = make_context(snapshot, MINUTES_PER_DAY + 7.0)
            empty = empty_context(snapshot, MINUTES_PER_DAY)
            rankings = one_tick([framework] + busy, [empty] + [context] * len(busy))
            assert rankings == [[]] + [policy.rank_tasks(context) for policy in twin]
            self.untouched(framework, calls)
        finally:
            close_all(busy, twin)
