"""Full-framework checkpoint round-trips.

The two acceptance-level guarantees:

* a framework saved mid-training and reloaded produces **identical rankings**
  on held-out contexts, and
* the optimizer-state round-trip continues training **bit-identically** for
  at least three further gradient steps (networks, Adam moments, replay
  sampling and exploration RNG all resume exactly).
"""

import numpy as np
import pytest

from repro.api import build_policy
from repro.core import (
    FrameworkConfig,
    TaskArrangementFramework,
    pack_state_matrices,
    unpack_state_matrices,
)
from repro.crowd.entities import MINUTES_PER_DAY
from repro.crowd.platform import ArrivalContext, Feedback
from repro.datasets import scalability_snapshot
from repro.eval import RunnerConfig, SimulationRunner
from repro.nn import load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def snapshot():
    tasks, worker, schema = scalability_snapshot(8, seed=3)
    features = np.stack([schema.task_features(task) for task in tasks])
    return tasks, worker, schema, features


def make_context(snapshot, timestamp: float) -> ArrivalContext:
    tasks, worker, schema, features = snapshot
    return ArrivalContext(
        timestamp=timestamp,
        worker=worker,
        worker_feature=schema.empty_worker_features(),
        available_tasks=list(tasks),
        task_features=features,
        task_qualities=np.zeros(len(tasks)),
    )


def drive(framework, snapshot, start: float, steps: int, completed_rank: int = 0) -> None:
    """Feed ``steps`` synthetic arrivals; the worker completes the task at ``completed_rank``.

    Every task ranked above the completed one becomes a skipped transition
    (up to ``max_failed_transitions``), so ``completed_rank=2`` stores three
    transitions per arrival and agent, all over one ``state`` object and one
    ``future_states`` list.
    """
    _, worker, _, _ = snapshot
    for i in range(steps):
        context = make_context(snapshot, start + i * 7.0)
        ranked = framework.rank_tasks(context)
        feedback = Feedback(
            timestamp=context.timestamp,
            worker_id=worker.worker_id,
            presented_task_ids=ranked,
            completed_task_id=ranked[completed_rank],
            completed_rank=completed_rank,
            completion_reward=1.0,
            quality_gain=0.4,
            updated_worker_feature=context.worker_feature,
        )
        framework.observe_feedback(context, ranked, feedback)


def trained_framework(snapshot, steps: int = 40) -> TaskArrangementFramework:
    _, _, schema, _ = snapshot
    framework = TaskArrangementFramework(
        schema,
        FrameworkConfig(hidden_dim=16, num_heads=2, batch_size=8, train_interval=1, seed=5),
    )
    drive(framework, snapshot, MINUTES_PER_DAY, steps)
    return framework


def assert_parameters_equal(a, b):
    for (name_a, param_a), (_, param_b) in zip(
        a.named_parameters(), b.named_parameters()
    ):
        assert np.array_equal(param_a.data, param_b.data), name_a


class TestNestedCheckpointFormat:
    def test_nested_tree_round_trips(self, tmp_path):
        tree = {
            "format": "demo/1",
            "arrays": {"weights": np.arange(6.0).reshape(2, 3), "empty": np.zeros(0)},
            "meta": {"count": 3, "rate": 0.25, "label": "x", "none": None, "flag": True},
            "big_int": 2**100,
            "empty_group": {},
        }
        loaded = load_checkpoint(save_checkpoint(tree, tmp_path / "tree.npz"))
        assert loaded["format"] == "demo/1"
        np.testing.assert_array_equal(loaded["arrays"]["weights"], tree["arrays"]["weights"])
        assert loaded["arrays"]["empty"].size == 0
        assert loaded["meta"] == tree["meta"]
        assert loaded["big_int"] == 2**100
        assert loaded["empty_group"] == {}

    def test_reserved_and_malformed_keys_raise(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_checkpoint({"__json__": 1}, tmp_path / "bad.npz")
        with pytest.raises(ValueError, match="'/'-free"):
            save_checkpoint({"a/b": 1}, tmp_path / "bad.npz")

    def test_loading_a_flat_state_dict_is_rejected(self, tmp_path):
        np.savez(tmp_path / "flat.npz", weights=np.ones(3))
        with pytest.raises(ValueError, match="not a nested checkpoint"):
            load_checkpoint(tmp_path / "flat.npz")


class TestFrameworkRoundTrip:
    def test_rankings_identical_on_held_out_contexts(self, snapshot, tmp_path):
        framework = trained_framework(snapshot)
        path = framework.save(tmp_path / "framework.npz")
        restored = TaskArrangementFramework.load(path)

        assert restored.name == framework.name
        assert restored.config == framework.config
        assert_parameters_equal(framework.agent_w.network, restored.agent_w.network)
        assert_parameters_equal(framework.agent_r.network, restored.agent_r.network)
        assert_parameters_equal(framework.agent_w.learner.target, restored.agent_w.learner.target)

        for offset in (0.0, 123.0, 9_000.0):
            context = make_context(snapshot, MINUTES_PER_DAY + 5_000.0 + offset)
            assert framework.rank_tasks(context) == restored.rank_tasks(context)

    def test_training_continues_bit_identically(self, snapshot, tmp_path):
        framework = trained_framework(snapshot)
        path = framework.save(tmp_path / "framework.npz")
        restored = TaskArrangementFramework.load(path)
        steps_before = framework.agent_w.diagnostics.train_steps

        # ≥3 further gradient steps on both instances (train_interval=1, so
        # every arrival trains both agents).
        drive(framework, snapshot, MINUTES_PER_DAY + 2_000.0, 5)
        drive(restored, snapshot, MINUTES_PER_DAY + 2_000.0, 5)

        assert framework.agent_w.diagnostics.train_steps >= steps_before + 3
        assert (
            framework.agent_w.diagnostics.train_steps
            == restored.agent_w.diagnostics.train_steps
        )
        assert framework.agent_w.diagnostics.losses == restored.agent_w.diagnostics.losses
        for original, loaded in (
            (framework.agent_w, restored.agent_w),
            (framework.agent_r, restored.agent_r),
        ):
            assert_parameters_equal(original.network, loaded.network)
            assert_parameters_equal(original.learner.target, loaded.learner.target)
            assert original.learner.updates == loaded.learner.updates
            optimizer_a = original.learner.optimizer.state_dict()
            optimizer_b = loaded.learner.optimizer.state_dict()
            assert optimizer_a["step_count"] == optimizer_b["step_count"]
            for key, moment in optimizer_a["first_moment"].items():
                assert np.array_equal(moment, optimizer_b["first_moment"][key])

        context = make_context(snapshot, MINUTES_PER_DAY + 50_000.0)
        assert framework.rank_tasks(context) == restored.rank_tasks(context)

    def test_restored_explorer_and_replay_state(self, snapshot, tmp_path):
        framework = trained_framework(snapshot, steps=25)
        path = framework.save(tmp_path / "framework.npz")
        restored = TaskArrangementFramework.load(path)

        assert restored.explorer._steps == framework.explorer._steps
        assert restored.assign_explorer._steps == framework.assign_explorer._steps
        assert len(restored.agent_w.memory) == len(framework.agent_w.memory)
        assert restored.agent_w.memory.beta == framework.agent_w.memory.beta
        assert restored.rng.bit_generator.state == framework.rng.bit_generator.state
        stats_a = framework.arrival_statistics
        stats_b = restored.arrival_statistics
        assert stats_a.total_arrivals == stats_b.total_arrivals
        assert stats_a.last_arrival_by_worker == stats_b.last_arrival_by_worker
        np.testing.assert_array_equal(
            stats_a.same_worker_gaps._counts, stats_b.same_worker_gaps._counts
        )

    def test_mismatched_variant_is_rejected(self, snapshot, tmp_path):
        _, _, schema, _ = snapshot
        worker_only = TaskArrangementFramework.worker_only(
            schema, FrameworkConfig(hidden_dim=16, num_heads=2, seed=0)
        )
        both = TaskArrangementFramework(
            schema, FrameworkConfig(hidden_dim=16, num_heads=2, seed=0)
        )
        with pytest.raises(ValueError, match="agent_r"):
            both.load_state_dict(worker_only.state_dict())

    def test_non_framework_file_is_rejected(self, tmp_path):
        path = save_checkpoint({"format": "other/1"}, tmp_path / "other.npz")
        with pytest.raises(ValueError, match="not a framework checkpoint"):
            TaskArrangementFramework.load(path)


class TestSharedStateCheckpoints:
    """Sibling transitions share their ``state`` and branch objects across a restore."""

    def siblings_framework(self, snapshot) -> TaskArrangementFramework:
        _, _, schema, _ = snapshot
        framework = TaskArrangementFramework(
            schema,
            FrameworkConfig(hidden_dim=16, num_heads=2, batch_size=8, train_interval=1, seed=5),
        )
        drive(framework, snapshot, MINUTES_PER_DAY, 12, completed_rank=2)
        return framework

    def test_replay_round_trip_keeps_siblings_shared(self, snapshot, tmp_path):
        framework = self.siblings_framework(snapshot)
        packed = framework.agent_w.memory.state_dict()["transitions"]
        original = framework.agent_w.memory._storage
        distinct = {id(t.state) for t in original}
        distinct |= {id(state) for t in original for _, state in t.future_states}
        assert packed["states"]["rows"].size == len(distinct)

        restored = TaskArrangementFramework.load(framework.save(tmp_path / "siblings.npz"))
        for agent_name in ("agent_w", "agent_r"):
            before = getattr(framework, agent_name).memory._storage
            after = getattr(restored, agent_name).memory._storage
            assert len(after) == len(before)
            for first in range(0, len(after), 3):
                group = after[first : first + 3]
                assert group[0].state is group[1].state is group[2].state
                for (_, a), (_, b) in zip(group[0].future_states, group[2].future_states):
                    assert a is b
            for a, b in zip(before, after):
                assert a.action_index == b.action_index and a.reward == b.reward
                np.testing.assert_array_equal(a.state.matrix, b.state.matrix)
                assert [p for p, _ in a.future_states] == [p for p, _ in b.future_states]

    def test_malformed_state_references_are_rejected(self, snapshot, tmp_path):
        tree = self.siblings_framework(snapshot).checkpoint_tree()
        packed = tree["state"]["agent_w"]["memory"]["transitions"]
        packed["state_refs"] = packed["state_refs"] + packed["states"]["rows"].size
        path = save_checkpoint(tree, tmp_path / "corrupt.npz")
        with pytest.raises(ValueError, match="state references"):
            TaskArrangementFramework.load(path)

    def test_format_2_checkpoint_still_loads(self, snapshot, tmp_path):
        """A /2 file packed every state once per transition, without ``state_refs``."""
        framework = self.siblings_framework(snapshot)
        tree = framework.checkpoint_tree()
        tree["format"] = "repro.framework/2"
        for agent_name in ("agent_w", "agent_r"):
            packed = tree["state"][agent_name]["memory"]["transitions"]
            states = unpack_state_matrices(packed["states"])
            packed["states"] = pack_state_matrices([states[r] for r in packed.pop("state_refs")])
        restored = TaskArrangementFramework.load(save_checkpoint(tree, tmp_path / "v2.npz"))

        before = framework.agent_w.memory._storage
        after = restored.agent_w.memory._storage
        assert len(after) == len(before)
        assert after[0].state is not after[1].state  # loads without the sharing
        for a, b in zip(before, after):
            assert a.action_index == b.action_index
            np.testing.assert_array_equal(a.state.matrix, b.state.matrix)
            for (_, state_a), (_, state_b) in zip(a.future_states, b.future_states):
                np.testing.assert_array_equal(state_a.matrix, state_b.matrix)
        assert_parameters_equal(framework.agent_w.network, restored.agent_w.network)
        context = make_context(snapshot, MINUTES_PER_DAY + 5_000.0)
        assert framework.rank_tasks(context) == restored.rank_tasks(context)


#: All checkpointable registry variants (builder kwargs on top of the tiny
#: framework config).  ``ddqn-checkpoint`` is the *consumer* of these files
#: and is exercised in TestCheckpointRegistryEntry below.
FRAMEWORK_VARIANTS = [
    ("ddqn", {"worker_weight": 0.25}),
    ("ddqn-worker", {}),
    ("ddqn-requester", {}),
]

TINY_FRAMEWORK = {"hidden_dim": 16, "num_heads": 2, "batch_size": 8, "train_interval": 1, "seed": 5}


class TestAllVariantsInterruptResume:
    """Interrupt-at-arrival-N round-trips for every framework registry entry.

    An uninterrupted 40-step run must be indistinguishable from a run that is
    interrupted at step 30, checkpointed, reloaded into a fresh process-like
    state and driven through the same final 10 arrivals.
    """

    def variant(self, snapshot, name, extra):
        _, _, schema, _ = snapshot
        from repro.api import build_policy

        return build_policy(name, schema, **TINY_FRAMEWORK, **extra)

    def assert_resume_is_exact(self, snapshot, tmp_path, name, extra, completed_rank=0):
        uninterrupted = self.variant(snapshot, name, extra)
        drive(uninterrupted, snapshot, MINUTES_PER_DAY, 40, completed_rank)

        interrupted = self.variant(snapshot, name, extra)
        drive(interrupted, snapshot, MINUTES_PER_DAY, 30, completed_rank)
        path = interrupted.save(tmp_path / f"{name}.npz")
        restored = TaskArrangementFramework.load(path)
        # Finish the exact arrivals the uninterrupted run saw after step 30.
        drive(restored, snapshot, MINUTES_PER_DAY + 30 * 7.0, 10, completed_rank)

        for agent_name in ("agent_w", "agent_r"):
            original = getattr(uninterrupted, agent_name)
            loaded = getattr(restored, agent_name)
            assert (original is None) == (loaded is None)
            if original is None:
                continue
            assert_parameters_equal(original.network, loaded.network)
            assert_parameters_equal(original.learner.target, loaded.learner.target)
            assert original.diagnostics.train_steps == loaded.diagnostics.train_steps
            assert original.diagnostics.losses == loaded.diagnostics.losses
        assert restored.explorer._steps == uninterrupted.explorer._steps
        context = make_context(snapshot, MINUTES_PER_DAY + 40_000.0)
        assert uninterrupted.rank_tasks(context) == restored.rank_tasks(context)
        return uninterrupted

    @pytest.mark.parametrize("name,extra", FRAMEWORK_VARIANTS)
    def test_interrupted_run_finishes_identically(self, snapshot, tmp_path, name, extra):
        self.assert_resume_is_exact(snapshot, tmp_path, name, extra)

    @pytest.mark.parametrize("name,extra", FRAMEWORK_VARIANTS)
    def test_interrupted_run_with_shared_states_finishes_identically(
        self, snapshot, tmp_path, name, extra
    ):
        """Completing the rank-2 task stores three sibling transitions per state.

        The learner scores each distinct state object of a batch once, so the
        restored memory must share states exactly as the running one does;
        a checkpoint that stored each sibling's state separately would train
        on differently shaped batches after the restore.
        """
        run = self.assert_resume_is_exact(snapshot, tmp_path, name, extra, completed_rank=2)
        for agent in (run.agent_w, run.agent_r):
            if agent is not None:
                stored = agent.memory._storage
                assert stored[0].state is stored[1].state is stored[2].state

    @pytest.mark.parametrize("name,extra", FRAMEWORK_VARIANTS)
    def test_registry_variants_support_checkpointing(self, snapshot, name, extra):
        assert self.variant(snapshot, name, extra).supports_checkpointing

    def test_baselines_do_not_claim_checkpointing(self, snapshot):
        from repro.api import build_policy

        _, _, schema, _ = snapshot
        policy = build_policy("random", schema, seed=0)
        assert not policy.supports_checkpointing
        with pytest.raises(NotImplementedError, match="does not support checkpointing"):
            policy.save("nowhere.npz")


class TestRunnerAutoCheckpointing:
    """The SimulationRunner's periodic save hook (checkpoint_every)."""

    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.datasets import generate_crowdspring

        return generate_crowdspring(scale=0.03, num_months=2, seed=1)

    def tiny_policy(self, dataset):
        return build_policy(
            "ddqn-worker", dataset, hidden_dim=16, num_heads=2, batch_size=8,
            train_interval=4, seed=0,
        )

    def test_periodic_saves_leave_the_final_state_on_disk(self, dataset, tmp_path):
        path = tmp_path / "auto.npz"
        runner = SimulationRunner(
            dataset, RunnerConfig(seed=0, max_arrivals=25, checkpoint_every=10)
        )
        policy = self.tiny_policy(dataset)
        result = runner.run(policy, checkpoint_path=path)
        assert result.arrivals == 25
        assert path.exists()
        restored = TaskArrangementFramework.load(path)
        # The final save happens after the last arrival, so the file holds the
        # fully-trained state.
        assert_parameters_equal(policy.agent_w.network, restored.agent_w.network)
        assert (
            restored.agent_w.diagnostics.train_steps
            == policy.agent_w.diagnostics.train_steps
        )

    def test_checkpointing_does_not_perturb_the_run(self, dataset, tmp_path):
        plain = SimulationRunner(dataset, RunnerConfig(seed=0, max_arrivals=25)).run(
            self.tiny_policy(dataset)
        )
        checkpointed = SimulationRunner(
            dataset, RunnerConfig(seed=0, max_arrivals=25, checkpoint_every=7)
        ).run(self.tiny_policy(dataset), checkpoint_path=tmp_path / "auto.npz")
        assert checkpointed.cr.monthly == plain.cr.monthly
        assert checkpointed.qg.monthly == plain.qg.monthly
        assert checkpointed.completions == plain.completions

    def test_non_checkpointable_policies_are_skipped_silently(self, dataset, tmp_path):
        path = tmp_path / "never.npz"
        runner = SimulationRunner(
            dataset, RunnerConfig(seed=0, max_arrivals=10, checkpoint_every=2)
        )
        result = runner.run(build_policy("random", dataset, seed=0), checkpoint_path=path)
        assert result.arrivals == 10
        assert not path.exists()

    def test_no_save_without_a_path(self, dataset, tmp_path):
        runner = SimulationRunner(
            dataset, RunnerConfig(seed=0, max_arrivals=10, checkpoint_every=2)
        )
        result = runner.run(self.tiny_policy(dataset))
        assert result.arrivals == 10
        assert list(tmp_path.iterdir()) == []

    def test_invalid_checkpoint_every_is_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            RunnerConfig(checkpoint_every=0)


class TestCheckpointRegistryEntry:
    def test_ddqn_checkpoint_policy_restores_the_trained_state(self, tmp_path):
        from repro.datasets import generate_crowdspring

        dataset = generate_crowdspring(scale=0.03, num_months=2, seed=1)
        trained = build_policy(
            "ddqn-worker", dataset, hidden_dim=16, num_heads=2, batch_size=8,
            train_interval=4, seed=0,
        )
        runner = SimulationRunner(dataset, RunnerConfig(seed=0, max_arrivals=50))
        runner.run(trained)
        path = trained.save(tmp_path / "trained.npz")

        restored = build_policy("ddqn-checkpoint", dataset, path=str(path))
        assert restored.registry_name == "ddqn-checkpoint"
        assert_parameters_equal(trained.agent_w.network, restored.agent_w.network)

        # Identical rankings on a context crafted from the dataset's entities.
        tasks = list(dataset.tasks.values())[:6]
        context = ArrivalContext(
            timestamp=MINUTES_PER_DAY,
            worker=next(iter(dataset.workers.values())),
            worker_feature=dataset.schema.empty_worker_features(),
            available_tasks=tasks,
            task_features=np.stack([dataset.schema.task_features(task) for task in tasks]),
            task_qualities=np.zeros(len(tasks)),
        )
        assert trained.rank_tasks(context) == restored.rank_tasks(context)

        # reset() (called by SimulationRunner.run on every policy) must return
        # a restored framework to its checkpoint, not to a random re-init —
        # otherwise evaluating a checkpoint through a spec or the CLI would
        # silently score a fresh network.
        restored.reset()
        assert_parameters_equal(trained.agent_w.network, restored.agent_w.network)
        assert (
            restored.agent_w.diagnostics.train_steps
            == trained.agent_w.diagnostics.train_steps
        )
        result = SimulationRunner(dataset, RunnerConfig(seed=0, max_arrivals=30)).run(restored)
        assert result.arrivals > 0

    def test_checkpoint_schema_mismatch_is_rejected(self, snapshot, tmp_path):
        from repro.crowd.features import FeatureSchema

        framework = trained_framework(snapshot, steps=5)
        path = framework.save(tmp_path / "framework.npz")
        other_schema = FeatureSchema(num_categories=9, num_domains=4)
        with pytest.raises(ValueError, match="different feature schema"):
            build_policy("ddqn-checkpoint", other_schema, path=str(path))
