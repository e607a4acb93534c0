"""Per-policy fan-out inside a cell (``cell_threads``): float-identical.

Every policy run owns its entity copies and RNGs (``fresh_entities`` is a
pure copy and ``SimulationRunner.run`` builds a fresh per-run state), so
overlapping a spec's policies on threads changes wall-clock only.  These
tests pin the float identity for ``run_spec``, the thread-budget split the
pool runs under, and the CLI flags.
"""

import pytest

from repro.api import DatasetSpec, ExperimentSpec, PolicySpec, run_spec
from repro.datasets import generate_crowdspring
from repro.eval import RunnerConfig, VectorizedRunner
from repro.nn import threads
from tests.eval.test_determinism import assert_results_identical

TINY_DDQN = {"hidden_dim": 8, "num_heads": 2, "batch_size": 4, "seed": 0, "max_tasks": 12}


@pytest.fixture(scope="module")
def dataset():
    return generate_crowdspring(scale=0.03, num_months=2, seed=1)


def tiny_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="cell-threads",
        dataset=DatasetSpec(scale=0.03, num_months=2, seed=1),
        runner=RunnerConfig(seed=0, max_arrivals=25, max_warmup_observations=12),
        policies=[
            PolicySpec("ddqn-worker", dict(TINY_DDQN)),
            PolicySpec("random", {"seed": 0}),
            PolicySpec("greedy-cosine", {"objective": "worker"}),
        ],
    )


class TestRunSpecCellThreads:
    def test_threaded_results_float_identical_to_serial(self, dataset):
        serial = run_spec(tiny_spec(), dataset=dataset)
        threaded = run_spec(tiny_spec(), dataset=dataset, cell_threads=3)
        assert list(serial) == list(threaded)
        for label in serial:
            assert_results_identical(serial[label], threaded[label])

    def test_more_threads_than_policies_is_fine(self, dataset):
        serial = run_spec(tiny_spec(), dataset=dataset)
        threaded = run_spec(tiny_spec(), dataset=dataset, cell_threads=16)
        for label in serial:
            assert_results_identical(serial[label], threaded[label])

    def test_invalid_cell_threads_rejected(self, dataset):
        with pytest.raises(ValueError, match="cell_threads"):
            run_spec(tiny_spec(), dataset=dataset, cell_threads=0)


class TestCellThreadBudget:
    """The pool's threads split the budget; BLAS gets its share, then is restored."""

    @pytest.fixture()
    def blas_seen(self, monkeypatch):
        if threads.num_threads() is None:
            pytest.skip("BLAS runtime not controllable on this numpy")
        before = threads.num_threads()
        seen: list[int | None] = []
        original = VectorizedRunner.run

        def recording_run(self):
            seen.append(threads.num_threads())
            return original(self)

        monkeypatch.setattr(VectorizedRunner, "run", recording_run)
        monkeypatch.setenv(threads.BUDGET_ENV_VAR, "2")
        monkeypatch.delenv(threads.ENV_VAR, raising=False)
        threads.set_num_threads(2)
        yield seen
        threads.set_num_threads(before)

    def spec(self) -> ExperimentSpec:
        spec = tiny_spec()
        spec.policies = spec.policies[1:]  # two cheap baselines
        return spec

    def test_each_run_gets_its_share_and_the_caller_is_restored(self, dataset, blas_seen):
        run_spec(self.spec(), dataset=dataset, cell_threads=2)
        assert blas_seen == [1, 1]
        assert threads.num_threads() == 2

    def test_explicit_blas_setting_wins(self, dataset, blas_seen, monkeypatch):
        monkeypatch.setenv(threads.ENV_VAR, "2")
        threads.set_num_threads(1)
        run_spec(self.spec(), dataset=dataset, cell_threads=2)
        assert blas_seen == [2, 2]
        assert threads.num_threads() == 1

    def test_serial_runs_leave_blas_alone(self, dataset, blas_seen):
        run_spec(self.spec(), dataset=dataset)
        assert blas_seen == [2, 2]

    def test_uncontrollable_blas_still_runs_the_pool(self, dataset, monkeypatch):
        monkeypatch.setattr(threads, "_resolve", lambda: None)
        serial = run_spec(self.spec(), dataset=dataset)
        threaded = run_spec(self.spec(), dataset=dataset, cell_threads=2)
        assert list(threaded) == list(serial)
        for label in serial:
            assert_results_identical(serial[label], threaded[label])


class TestCliFlags:
    def test_run_parser_accepts_cell_threads(self):
        from repro.api.cli import _build_parser

        parser = _build_parser()
        args = parser.parse_args(["run", "spec.json", "--cell-threads", "4"])
        assert args.cell_threads == 4
        for argv in (
            ["sweep", "run", "grid.json", "--cell-threads", "2"],
            ["sweep", "resume", "dir", "--cell-threads", "2"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)

    def test_bench_parser_accepts_async(self):
        from repro.api.cli import _build_parser

        parser = _build_parser()
        args = parser.parse_args(["bench", "--suite", "endtoend", "--preset", "ci", "--async"])
        assert args.async_training and args.preset == "ci"
        args = parser.parse_args(["bench"])
        assert not args.async_training
        with pytest.raises(SystemExit):
            parser.parse_args(["bench", "--blas-threads", "2"])
