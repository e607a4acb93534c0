"""Episode-vectorized runs are float-for-float equal to serial runs.

The lockstep platform's contract: a :class:`repro.eval.VectorizedRunner` run
over N replicas produces, for every replica, *exactly* the
:class:`EvaluationResult` its serial ``SimulationRunner.run`` produces —
bitwise on every measure, for every registered policy, whether or not the
replicas' network work fuses (DDQN with a fixed ``max_tasks`` fuses; ragged
shapes and baselines run lockstep unfused).  Timing fields are machine noise
and excluded, as everywhere else in the determinism layer.
"""

import numpy as np
import pytest

from repro.api import (
    DatasetSpec,
    ExperimentSpec,
    PolicySpec,
    available_policies,
    build_policy,
    run_spec,
)
from repro.datasets import generate_crowdspring
from repro.eval import RunnerConfig, SimulationRunner, VectorizedRunner
from tests.eval.test_determinism import assert_results_identical

TINY_DDQN = {"hidden_dim": 8, "num_heads": 2, "batch_size": 4, "seed": 0, "max_tasks": 12}

#: Every registered policy with CI-sized kwargs (``ddqn-checkpoint`` needs a
#: trained file and is covered separately below).
POLICY_KWARGS = [
    ("random", {"seed": 0}),
    ("taskrec", {"seed": 0}),
    ("greedy-cosine", {"objective": "worker"}),
    ("greedy-nn", {"objective": "worker", "seed": 0}),
    ("linucb", {"objective": "worker"}),
    ("ddqn", dict(TINY_DDQN, worker_weight=0.25)),
    ("ddqn-worker", TINY_DDQN),
    ("ddqn-requester", TINY_DDQN),
]

CONFIG = RunnerConfig(seed=0, max_arrivals=15, max_warmup_observations=12)


@pytest.fixture(scope="module")
def datasets():
    return [generate_crowdspring(scale=0.03, num_months=2, seed=seed) for seed in (1, 2, 3, 4)]


def serial_run(dataset, name, kwargs):
    return SimulationRunner(dataset, CONFIG).run(build_policy(name, dataset, **kwargs))


class TestVectorizedEqualsSerial:
    def test_parametrization_covers_the_whole_registry(self):
        covered = {name for name, _ in POLICY_KWARGS} | {"ddqn-checkpoint"}
        assert covered == set(available_policies()), (
            "a policy was registered without a vectorized-equality entry; "
            "add it to POLICY_KWARGS"
        )

    @pytest.mark.parametrize("name,kwargs", POLICY_KWARGS)
    def test_single_replica_equals_serial(self, datasets, name, kwargs):
        serial = serial_run(datasets[0], name, kwargs)
        [vectorized] = VectorizedRunner(
            [(datasets[0], build_policy(name, datasets[0], **kwargs))], CONFIG
        ).run()
        assert_results_identical(serial, vectorized)

    @pytest.mark.parametrize("name,kwargs", POLICY_KWARGS)
    def test_four_replicas_equal_four_serial_runs(self, datasets, name, kwargs):
        serial = [serial_run(dataset, name, kwargs) for dataset in datasets]
        replicas = [
            (dataset, build_policy(name, dataset, **kwargs)) for dataset in datasets
        ]
        vectorized = VectorizedRunner(replicas, CONFIG).run()
        for serial_result, vectorized_result in zip(serial, vectorized):
            assert_results_identical(serial_result, vectorized_result)

    def test_checkpoint_policy_replicas_equal_serial(self, datasets, tmp_path):
        trained = build_policy("ddqn-worker", datasets[0], **TINY_DDQN)
        SimulationRunner(datasets[0], CONFIG).run(trained)
        path = trained.save(tmp_path / "trained.npz")
        serial = [
            SimulationRunner(dataset, CONFIG).run(
                build_policy("ddqn-checkpoint", dataset, path=str(path))
            )
            for dataset in datasets[:2]
        ]
        vectorized = VectorizedRunner(
            [
                (dataset, build_policy("ddqn-checkpoint", dataset, path=str(path)))
                for dataset in datasets[:2]
            ],
            CONFIG,
        ).run()
        for serial_result, vectorized_result in zip(serial, vectorized):
            assert_results_identical(serial_result, vectorized_result)

    def test_mixed_policy_replicas_equal_serial(self, datasets):
        """Heterogeneous replica sets (ddqn + baselines) stay per-replica exact."""
        line_up = [
            ("ddqn", dict(TINY_DDQN, worker_weight=0.25)),
            ("random", {"seed": 0}),
            ("ddqn-worker", TINY_DDQN),
            ("linucb", {"objective": "worker"}),
        ]
        serial = [serial_run(datasets[0], name, kwargs) for name, kwargs in line_up]
        replicas = [
            (datasets[0], build_policy(name, datasets[0], **kwargs))
            for name, kwargs in line_up
        ]
        vectorized = VectorizedRunner(replicas, CONFIG).run()
        for serial_result, vectorized_result in zip(serial, vectorized):
            assert_results_identical(serial_result, vectorized_result)

    def test_ragged_shapes_without_max_tasks_stay_exact(self, datasets):
        """No ``max_tasks``: fusion rarely engages, equality must still hold."""
        kwargs = {"hidden_dim": 8, "num_heads": 2, "batch_size": 4, "seed": 0}
        serial = [serial_run(dataset, "ddqn-worker", kwargs) for dataset in datasets[:2]]
        vectorized = VectorizedRunner(
            [
                (dataset, build_policy("ddqn-worker", dataset, **kwargs))
                for dataset in datasets[:2]
            ],
            CONFIG,
        ).run()
        for serial_result, vectorized_result in zip(serial, vectorized):
            assert_results_identical(serial_result, vectorized_result)


class TestRunSpecVectorize:
    def spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            name="vectorize-spec",
            dataset=DatasetSpec(scale=0.03, num_months=2, seed=1),
            runner=CONFIG,
            policies=[
                PolicySpec("random", {"seed": 0}),
                PolicySpec("ddqn-worker", dict(TINY_DDQN)),
                PolicySpec("linucb", {"objective": "worker"}),
            ],
        )

    def test_vectorized_run_spec_equals_serial(self, datasets):
        serial = run_spec(self.spec(), dataset=datasets[0])
        vectorized = run_spec(self.spec(), dataset=datasets[0], vectorize=3)
        assert list(serial) == list(vectorized)
        for label in serial:
            assert_results_identical(serial[label], vectorized[label])

    def test_vectorize_width_one_equals_serial(self, datasets):
        serial = run_spec(self.spec(), dataset=datasets[0])
        chunked = run_spec(self.spec(), dataset=datasets[0], vectorize=1)
        for label in serial:
            assert_results_identical(serial[label], chunked[label])

    def test_invalid_width_is_rejected(self, datasets):
        with pytest.raises(ValueError, match="vectorize"):
            run_spec(self.spec(), dataset=datasets[0], vectorize=0)


class TestVectorizedCheckpointRoundTrip:
    def test_vectorized_auto_checkpoints_restore_and_match_serial(self, datasets, tmp_path):
        """Checkpoints written during a vectorized run equal serial ones and
        restore into a framework that ranks identically."""
        config = RunnerConfig(
            seed=0, max_arrivals=12, max_warmup_observations=10, checkpoint_every=5
        )
        serial_path = tmp_path / "serial.npz"
        vector_path = tmp_path / "vector.npz"
        serial_policy = build_policy("ddqn-worker", datasets[0], **TINY_DDQN)
        SimulationRunner(datasets[0], config).run(serial_policy, checkpoint_path=serial_path)
        VectorizedRunner(
            [
                (
                    datasets[0],
                    build_policy("ddqn-worker", datasets[0], **TINY_DDQN),
                    vector_path,
                )
            ],
            config,
        ).run()

        from repro.core import TaskArrangementFramework

        restored_serial = TaskArrangementFramework.load(serial_path)
        restored_vector = TaskArrangementFramework.load(vector_path)
        serial_state = restored_serial.state_dict()
        vector_state = restored_vector.state_dict()
        for key in ("agent_w",):
            for name in serial_state[key]["learner"]["online"]:
                assert np.array_equal(
                    serial_state[key]["learner"]["online"][name],
                    vector_state[key]["learner"]["online"][name],
                ), name
