"""Tests for the sweep layer: specs, expansion, execution, resume, aggregation.

The runner-level tests use cheap policies (random / greedy-cosine) on tiny
traces so the whole grid executes in seconds; the heavyweight DDQN cells are
covered by the CLI smoke test and the determinism suite.
"""

import json

import pytest

from repro.api import (
    DatasetSpec,
    ExperimentSpec,
    PolicySpec,
    SweepAxis,
    SweepRunner,
    SweepSpec,
    aggregate_cells,
    format_sweep_table,
    run_sweep,
)
from repro.api.sweep import _worker_pool
from repro.eval import RunnerConfig
from repro.eval.experiments import ExperimentScale, balance_sweep_spec, density_sweep_spec
from repro.nn import threads


def cheap_base(max_arrivals: int = 25) -> ExperimentSpec:
    return ExperimentSpec(
        name="cheap",
        dataset=DatasetSpec(scale=0.03, num_months=2, seed=1),
        runner=RunnerConfig(seed=0, max_arrivals=max_arrivals),
        policies=[
            PolicySpec("random", {"seed": 0}),
            PolicySpec("greedy-cosine", {"objective": "worker"}),
        ],
    )


def cheap_sweep(seeds=(1, 2), policy_seeds=(0, 3)) -> SweepSpec:
    return SweepSpec(
        name="cheap-sweep",
        base=cheap_base(),
        axes=[
            SweepAxis(target="policy", key="seed", values=list(policy_seeds), policy="random"),
            SweepAxis(target="dataset", key="seed", values=list(seeds)),
        ],
        replicate_axis="dataset.seed",
    )


class TestAxisValidation:
    def test_unknown_target_raises(self):
        with pytest.raises(ValueError, match="axis target"):
            SweepAxis(target="platform", key="seed", values=[1])

    def test_empty_values_raise(self):
        with pytest.raises(ValueError, match="non-empty 'values'"):
            SweepAxis(target="dataset", key="seed", values=[])

    def test_duplicate_values_raise(self):
        with pytest.raises(ValueError, match="duplicate values"):
            SweepAxis(target="dataset", key="seed", values=[1, 1])

    def test_unknown_dataset_field_raises(self):
        with pytest.raises(ValueError, match="unknown dataset field"):
            SweepAxis(target="dataset", key="volume", values=[1])

    def test_unknown_runner_field_raises(self):
        with pytest.raises(ValueError, match="unknown runner field"):
            SweepAxis(target="runner", key="warp", values=[1])

    def test_policy_filter_only_for_policy_target(self):
        with pytest.raises(ValueError, match="only applies"):
            SweepAxis(target="runner", key="seed", values=[1], policy="ddqn")

    def test_policy_axis_matching_no_entry_fails_at_expand(self):
        spec = SweepSpec(
            name="bad",
            base=cheap_base(),
            axes=[SweepAxis(target="policy", key="seed", values=[1], policy="linucb")],
        )
        with pytest.raises(ValueError, match="matches no policy"):
            spec.expand()

    def test_invalid_runner_value_fails_at_expand(self):
        spec = SweepSpec(
            name="bad",
            base=cheap_base(),
            axes=[SweepAxis(target="runner", key="max_arrivals", values=[-3])],
        )
        with pytest.raises(ValueError, match="max_arrivals"):
            spec.expand()


class TestSweepSpec:
    def test_json_round_trip_is_lossless(self):
        spec = cheap_sweep()
        restored = SweepSpec.from_json(spec.to_json())
        assert restored.to_dict() == spec.to_dict()
        assert restored.replicate_axis == "dataset.seed"

    def test_file_round_trip(self, tmp_path):
        spec = balance_sweep_spec(weights=(0.0, 1.0), seeds=(7, 8))
        path = spec.save(tmp_path / "sweep.json")
        assert SweepSpec.load(path).to_dict() == spec.to_dict()

    def test_unknown_keys_raise(self):
        with pytest.raises(ValueError, match="unknown sweep spec keys"):
            SweepSpec.from_dict({"name": "x", "grid": []})

    def test_duplicate_axes_raise(self):
        with pytest.raises(ValueError, match="duplicate sweep axes"):
            SweepSpec(
                name="dup",
                base=cheap_base(),
                axes=[
                    SweepAxis(target="dataset", key="seed", values=[1]),
                    SweepAxis(target="dataset", key="seed", values=[2]),
                ],
            )

    def test_replicate_axis_must_name_an_axis(self):
        with pytest.raises(ValueError, match="replicate_axis"):
            SweepSpec(name="x", base=cheap_base(), axes=[], replicate_axis="dataset.seed")

    def test_expansion_is_the_cartesian_product(self):
        cells = cheap_sweep(seeds=(1, 2), policy_seeds=(0, 3)).expand()
        assert len(cells) == 4
        assert [cell.cell_id for cell in cells] == [
            "random.seed=0,dataset.seed=1",
            "random.seed=0,dataset.seed=2",
            "random.seed=3,dataset.seed=1",
            "random.seed=3,dataset.seed=2",
        ]
        # Replicates of one grid point share a group id.
        assert cells[0].group_id == cells[1].group_id == "random.seed=0"
        assert cells[2].group_id == cells[3].group_id == "random.seed=3"
        # Axis values actually land in the concrete specs.
        assert cells[1].spec.dataset.seed == 2
        assert cells[2].spec.policies[0].kwargs["seed"] == 3
        # The untouched policy keeps its kwargs.
        assert cells[2].spec.policies[1].kwargs == {"objective": "worker"}

    def test_expansion_without_axes_is_a_single_cell(self):
        spec = SweepSpec(name="solo", base=cheap_base())
        cells = spec.expand()
        assert [cell.cell_id for cell in cells] == ["base"]
        assert cells[0].group_id == "all"

    def test_expansion_does_not_mutate_the_base(self):
        spec = cheap_sweep()
        spec.expand()
        assert spec.base.dataset.seed == 1
        assert spec.base.policies[0].kwargs == {"seed": 0}

    def test_bundled_builders_expand(self):
        scale = ExperimentScale(scale=0.03, num_months=2, hidden_dim=16, num_heads=2)
        assert len(balance_sweep_spec(weights=(0.0, 0.5), seeds=(7,), scale=scale).expand()) == 2
        assert len(density_sweep_spec(scales=(0.03,), seeds=(7, 8), scale=scale).expand()) == 2


class TestSweepRunner:
    def test_run_writes_cells_and_aggregate(self, tmp_path):
        spec = cheap_sweep()
        seen: list[str] = []
        aggregate = run_sweep(
            spec, tmp_path / "sweep", progress=lambda cell, done, total: seen.append(cell)
        )
        assert len(seen) == 4
        assert sorted(aggregate["cells"]) == sorted(seen)
        cells_dir = tmp_path / "sweep" / "cells"
        assert len(list(cells_dir.glob("*.json"))) == 4
        document = json.loads((cells_dir / f"{seen[0]}.json").read_text())
        assert set(document["results"]) == {"Random", "Greedy CS"}
        results = json.loads((tmp_path / "sweep" / "results.json").read_text())
        assert results == aggregate

    def test_aggregate_reports_mean_std_across_replicates(self, tmp_path):
        spec = cheap_sweep()
        aggregate = run_sweep(spec, tmp_path / "sweep")
        assert set(aggregate["groups"]) == {"random.seed=0", "random.seed=3"}
        for group in aggregate["groups"].values():
            assert group["replicates"] == 2
            for measures in group["policies"].values():
                stats = measures["CR"]
                assert len(stats["values"]) == 2
                assert stats["mean"] == pytest.approx(sum(stats["values"]) / 2)
                assert stats["std"] >= 0.0
        # greedy-cosine ignores the random-policy axis: its per-seed results
        # must be identical across the two groups.
        groups = aggregate["groups"]
        assert (
            groups["random.seed=0"]["policies"]["Greedy CS"]["CR"]["values"]
            == groups["random.seed=3"]["policies"]["Greedy CS"]["CR"]["values"]
        )

    def test_resume_skips_finished_cells(self, tmp_path):
        spec = cheap_sweep()
        runner = SweepRunner(spec, tmp_path / "sweep")
        first = runner.run()
        assert runner.status().complete

        # Drop one cell: only that one is pending, and a fresh runner on the
        # same directory re-runs exactly it.
        victim = first["cells"][2]
        (runner.cells_directory / f"{victim}.json").unlink()
        status = SweepRunner(spec, tmp_path / "sweep").status()
        assert status.pending == [victim]
        executed: list[str] = []
        second = SweepRunner(spec, tmp_path / "sweep").run(
            progress=lambda cell, done, total: executed.append(cell)
        )
        assert executed == [victim]
        assert second == first

    def test_mismatched_spec_in_directory_is_refused(self, tmp_path):
        SweepRunner(cheap_sweep(), tmp_path / "sweep").prepare()
        other = cheap_sweep(seeds=(5, 6))
        with pytest.raises(ValueError, match="different sweep"):
            SweepRunner(other, tmp_path / "sweep").prepare()

    def test_aggregate_refuses_missing_cells(self):
        spec = cheap_sweep()
        with pytest.raises(ValueError, match="missing"):
            aggregate_cells(spec, {})

    def test_invalid_worker_count_raises(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            SweepRunner(cheap_sweep(), tmp_path, workers=0)

    def test_format_sweep_table_renders_mean_std(self, tmp_path):
        aggregate = run_sweep(cheap_sweep(), tmp_path / "sweep")
        table = format_sweep_table(aggregate)
        assert "random.seed=0" in table
        assert "±" in table
        assert "Greedy CS" in table


class TestSweepWorkerThreads:
    """Each process of the ``workers`` pool starts with its share of the budget."""

    @pytest.fixture(autouse=True)
    def budget_of_two(self, monkeypatch):
        if threads.num_threads() is None:
            pytest.skip("BLAS runtime not controllable on this numpy")
        monkeypatch.setenv(threads.BUDGET_ENV_VAR, "2")
        monkeypatch.delenv(threads.ENV_VAR, raising=False)

    def worker_blas_threads(self) -> list:
        with _worker_pool(2) as pool:
            return pool.starmap(threads.num_threads, [()] * 2)

    def test_two_workers_split_a_budget_of_two(self):
        assert self.worker_blas_threads() == [1, 1]

    def test_explicit_blas_setting_wins(self, monkeypatch):
        monkeypatch.setenv(threads.ENV_VAR, "2")
        assert self.worker_blas_threads() == [2, 2]


class TestSweepDatasetCache:
    def test_run_populates_one_trace_per_distinct_dataset_spec(self, tmp_path):
        from repro.datasets import trace_cache_name

        # cheap_sweep grids dataset seeds (1, 2) × policy seeds: the four
        # cells share two distinct datasets, so exactly two traces are cached.
        spec = cheap_sweep()
        run_sweep(spec, tmp_path / "sweep")
        cache_dir = tmp_path / "sweep" / "datasets"
        assert sorted(p.name for p in cache_dir.glob("*.npz")) == sorted(
            [trace_cache_name(0.03, 2, 1), trace_cache_name(0.03, 2, 2)]
        )

    def test_dataset_axis_caches_each_seed(self, tmp_path):
        from repro.datasets import trace_cache_name

        spec = SweepSpec(
            name="dataset-axis",
            base=cheap_base(max_arrivals=10),
            axes=[SweepAxis(target="dataset", key="seed", values=[1, 2])],
        )
        run_sweep(spec, tmp_path / "sweep")
        cache_dir = tmp_path / "sweep" / "datasets"
        assert sorted(p.name for p in cache_dir.glob("*.npz")) == sorted(
            [trace_cache_name(0.03, 2, 1), trace_cache_name(0.03, 2, 2)]
        )

    def test_cached_sweep_matches_uncached_cells(self, tmp_path):
        """A sweep reading the cache aggregates identically to direct runs."""
        from repro.api import run_spec as direct_run_spec

        spec = cheap_sweep()
        aggregate = run_sweep(spec, tmp_path / "sweep")
        cell = spec.expand()[0]
        direct = direct_run_spec(cell.spec)
        document = json.loads(
            (tmp_path / "sweep" / "cells" / f"{cell.cell_id}.json").read_text()
        )
        for label, result in direct.items():
            row = document["results"][label]
            assert row["CR"] == result.cr.final
            assert row["arrivals"] == result.arrivals
        assert aggregate["cells"]


class TestVectorizedSweep:
    """``vectorize``: seed-replicate cells fused into lockstep runs."""

    def ddqn_sweep(self) -> SweepSpec:
        base = ExperimentSpec(
            name="vec-cell",
            dataset=DatasetSpec(scale=0.03, num_months=2, seed=1),
            runner=RunnerConfig(seed=0, max_arrivals=12, max_warmup_observations=10),
            policies=[
                PolicySpec("random", {"seed": 0}),
                PolicySpec(
                    "ddqn-worker",
                    {
                        "hidden_dim": 8,
                        "num_heads": 2,
                        "batch_size": 4,
                        "seed": 0,
                        "max_tasks": 12,
                    },
                ),
            ],
        )
        return SweepSpec(
            name="vec-sweep",
            base=base,
            axes=[SweepAxis(target="dataset", key="seed", values=[1, 2, 3])],
            replicate_axis="dataset.seed",
        )

    def test_vectorized_sweep_matches_serial_sweep(self, tmp_path):
        serial = run_sweep(self.ddqn_sweep(), tmp_path / "serial")
        vectorized = run_sweep(self.ddqn_sweep(), tmp_path / "vector", vectorize=3)
        # Aggregates exclude timing fields, so this is exact float equality
        # of every measure of every cell group.
        assert vectorized == serial

    def test_vectorized_sweep_documents_match_cellwise(self, tmp_path):
        run_sweep(self.ddqn_sweep(), tmp_path / "serial")
        run_sweep(self.ddqn_sweep(), tmp_path / "vector", vectorize=2)
        for cell in self.ddqn_sweep().expand():
            serial_doc = json.loads(
                (tmp_path / "serial" / "cells" / f"{cell.cell_id}.json").read_text()
            )
            vector_doc = json.loads(
                (tmp_path / "vector" / "cells" / f"{cell.cell_id}.json").read_text()
            )
            for label, row in serial_doc["results"].items():
                for key, value in row.items():
                    if key.startswith("mean_"):
                        continue  # timing noise
                    assert vector_doc["results"][label][key] == value, (label, key)

    def test_vectorized_sweep_runs_on_a_worker_pool(self, tmp_path):
        serial = run_sweep(self.ddqn_sweep(), tmp_path / "serial")
        pooled = run_sweep(self.ddqn_sweep(), tmp_path / "pool", workers=2, vectorize=2)
        assert pooled == serial

    def test_invalid_vectorize_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="vectorize"):
            SweepRunner(self.ddqn_sweep(), tmp_path / "bad", vectorize=0)
