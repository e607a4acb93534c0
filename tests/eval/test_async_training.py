"""End-to-end guarantees of asynchronous training (seeded-queue determinism).

Free-running async is throughput-first and timing-dependent; everything the
repository *guarantees* about async mode holds under a fixed handoff schedule
(``async_handoff_lag``):

* the same spec run twice produces identical :class:`EvaluationResult`s AND
  bit-identical final network parameters;
* checkpoint/resume is exact — the checkpoint barrier drains the trainer, so
  a killed-and-resumed run equals an uninterrupted one;
* the knob threads end to end (CLI → specs → registry → FrameworkConfig →
  trainer), and a framework with ``async_training=False`` stays on the
  bit-identical :class:`SyncTrainer` path.
"""

import json

import numpy as np
import pytest

from repro.api import DatasetSpec, ExperimentSpec, PolicySpec, build_policy, run_spec
from repro.core import AsyncTrainer, SyncTrainer
from repro.datasets import generate_crowdspring
from repro.eval import RunnerConfig, SimulationRunner, VectorizedRunner
from tests.eval.test_determinism import assert_results_identical

TINY = {"hidden_dim": 8, "num_heads": 2, "batch_size": 4, "seed": 0, "max_tasks": 12}
ASYNC_FIXED = dict(TINY, async_training=True, async_handoff_lag=2)


@pytest.fixture(scope="module")
def dataset():
    return generate_crowdspring(scale=0.03, num_months=2, seed=1)


def config(max_arrivals, checkpoint_every=None):
    return RunnerConfig(
        seed=0,
        max_arrivals=max_arrivals,
        max_warmup_observations=12,
        checkpoint_every=checkpoint_every,
    )


def final_flat_params(policy) -> list[np.ndarray]:
    arrays = []
    for agent in (policy.agent_w, policy.agent_r):
        if agent is not None:
            optimizer = agent.learner.optimizer
            optimizer._adopt_strays()
            arrays.append(optimizer._flat_params.copy())
    return arrays


class TestSeededHandoffDeterminism:
    def test_same_spec_twice_identical_results_and_parameters(self, dataset):
        outcomes = []
        for _ in range(2):
            policy = build_policy("ddqn-worker", dataset, **ASYNC_FIXED)
            result = SimulationRunner(dataset, config(40)).run(policy)
            outcomes.append((result, final_flat_params(policy)))
            policy.trainer.close()
        assert_results_identical(outcomes[0][0], outcomes[1][0])
        for first, second in zip(outcomes[0][1], outcomes[1][1]):
            np.testing.assert_array_equal(first, second)

    def test_both_agents_run_under_the_fixed_schedule(self, dataset):
        policy = build_policy("ddqn", dataset, **ASYNC_FIXED)
        result = SimulationRunner(dataset, config(30)).run(policy)
        stats = policy.trainer.stats()
        assert stats["mode"] == "fixed"
        assert stats["plans_consumed"] == stats["plans_submitted"]
        assert result.arrivals == 30
        assert policy.agent_w.diagnostics.train_steps > 0
        policy.trainer.close()

    def test_sync_framework_keeps_the_inline_trainer(self, dataset):
        synchronous = build_policy("ddqn-worker", dataset, **TINY)
        asynchronous = build_policy("ddqn-worker", dataset, **ASYNC_FIXED)
        assert isinstance(synchronous.trainer, SyncTrainer)
        assert isinstance(asynchronous.trainer, AsyncTrainer)
        asynchronous.trainer.close()

    def test_vectorized_runner_routes_async_through_the_serial_path(self, dataset):
        serial = SimulationRunner(dataset, config(25)).run(
            build_policy("ddqn-worker", dataset, **ASYNC_FIXED)
        )
        [vectorized] = VectorizedRunner(
            [(dataset, build_policy("ddqn-worker", dataset, **ASYNC_FIXED))], config(25)
        ).run()
        # Async frameworks train through their trainer loop (the trainer owns
        # the optimiser), not the fused store/train path; the run must agree
        # exactly with the serial one.
        assert_results_identical(serial, vectorized)


class TestDriftProbe:
    @pytest.fixture(scope="class")
    def probe_dataset(self):
        return generate_crowdspring(scale=0.05, num_months=2, seed=1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float64_probe_reads_exactly_zero_beside_a_free_running_trainer(
        self, probe_dataset, seed
    ):
        """The probe scores the parameters decisions are served from (the
        snapshot), never the online network the trainer thread is stepping."""
        policy = build_policy(
            "ddqn-worker",
            probe_dataset,
            hidden_dim=16,
            num_heads=2,
            batch_size=8,
            seed=seed,
            async_training=True,
        )
        runner_config = RunnerConfig(
            seed=seed, max_arrivals=150, max_warmup_observations=12, drift_every=1
        )
        try:
            result = SimulationRunner(probe_dataset, runner_config).run(policy)
        finally:
            policy.trainer.close()
        assert policy.trainer.stats()["train_steps"] > 0
        assert len(result.drift) == result.arrivals == 150
        assert [reading["max_abs"] for reading in result.drift] == [0.0] * 150


class TestAsyncCheckpointRoundTrip:
    def test_interrupted_run_resumes_bit_identically(self, dataset, tmp_path):
        path = tmp_path / "full" / "ddqn.npz"
        uninterrupted = SimulationRunner(dataset, config(40, checkpoint_every=10)).run(
            build_policy("ddqn-worker", dataset, **ASYNC_FIXED), checkpoint_path=path
        )

        resumed_path = tmp_path / "resumed" / "ddqn.npz"
        SimulationRunner(dataset, config(30, checkpoint_every=10)).run(
            build_policy("ddqn-worker", dataset, **ASYNC_FIXED),
            checkpoint_path=resumed_path,
        )
        resumed = SimulationRunner(dataset, config(40, checkpoint_every=10)).run(
            build_policy("ddqn-worker", dataset, **ASYNC_FIXED),
            checkpoint_path=resumed_path,
            resume=True,
        )
        assert_results_identical(uninterrupted, resumed)

    def test_checkpoint_drains_the_queue(self, dataset, tmp_path):
        policy = build_policy("ddqn-worker", dataset, **ASYNC_FIXED)
        SimulationRunner(dataset, config(20, checkpoint_every=5)).run(
            policy, checkpoint_path=tmp_path / "ddqn.npz"
        )
        stats = policy.trainer.stats()
        # The final flush + every checkpoint barrier leave nothing queued.
        assert stats["plans_consumed"] == stats["plans_submitted"]
        policy.trainer.close()


class TestConfigAndSpecThreading:
    def test_framework_config_threads_to_agents_and_trainer(self, dataset):
        policy = build_policy(
            "ddqn",
            dataset,
            async_training=True,
            async_queue_size=16,
            async_publish_interval=2,
            **TINY,
        )
        assert policy.config.async_training
        assert policy.config.async_queue_size == 16
        trainer = policy.trainer
        assert isinstance(trainer, AsyncTrainer)
        assert trainer._queue_size == 16
        assert trainer._publish_interval == 2
        assert trainer._handoff_lag is None
        trainer.close()

    def test_spec_round_trips_async_kwargs(self, dataset):
        spec = ExperimentSpec(
            name="async-spec",
            dataset=DatasetSpec(scale=0.03, num_months=2, seed=1),
            runner=RunnerConfig(seed=0, max_arrivals=20, max_warmup_observations=12),
            policies=[PolicySpec("ddqn-worker", dict(ASYNC_FIXED))],
        )
        restored = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        first = run_spec(spec, dataset=dataset)
        second = run_spec(restored, dataset=dataset)
        for label in first:
            assert_results_identical(first[label], second[label])

    def test_cli_async_flag_enables_async_training(self, dataset, tmp_path, monkeypatch):
        from repro.api import cli

        spec = ExperimentSpec(
            name="cli-async",
            dataset=DatasetSpec(scale=0.03, num_months=2, seed=1),
            runner=RunnerConfig(seed=0, max_arrivals=15, max_warmup_observations=12),
            policies=[PolicySpec("ddqn-worker", dict(TINY))],
        )
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)

        seen: dict = {}
        real_run_spec = cli.run_spec

        def spying_run_spec(spec, **kwargs):
            seen["kwargs"] = [entry.kwargs for entry in spec.policies]
            return real_run_spec(spec, **kwargs)

        monkeypatch.setattr(cli, "run_spec", spying_run_spec)
        assert cli.main(["run", str(spec_path), "--async"]) == 0
        assert all(kwargs.get("async_training") for kwargs in seen["kwargs"])

    def test_cli_async_flag_requires_a_ddqn_policy(self, tmp_path):
        from repro.api import cli

        spec = ExperimentSpec(
            name="cli-async-bad",
            dataset=DatasetSpec(scale=0.03, num_months=2, seed=1),
            runner=RunnerConfig(seed=0, max_arrivals=5),
            policies=[PolicySpec("random", {"seed": 0})],
        )
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        with pytest.raises(SystemExit, match="DDQN"):
            cli.main(["run", str(spec_path), "--async"])
