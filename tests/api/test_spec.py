"""Tests for the declarative spec layer: JSON round-trips and execution."""

import json

import pytest

from repro.api import DatasetSpec, ExperimentSpec, PolicySpec, run_spec
from repro.api import spec as spec_module
from repro.eval import RunnerConfig, SimulationRunner, VectorizedRunner
from repro.eval.experiments import (
    ExperimentScale,
    balance_spec,
    requester_benefit_spec,
    worker_benefit_spec,
)
from repro.eval.metrics import EvaluationResult

TINY_SCALE = ExperimentScale(
    scale=0.03, num_months=2, hidden_dim=16, num_heads=2, batch_size=8,
    train_interval=4, seed=1, max_arrivals=40,
)


def tiny_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="tiny",
        dataset=DatasetSpec(scale=0.03, num_months=2, seed=1),
        runner=RunnerConfig(seed=0, max_arrivals=30),
        policies=[
            PolicySpec("random", {"seed": 0}),
            PolicySpec("greedy-cosine", {"objective": "worker"}),
        ],
    )


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        spec = tiny_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_json_round_trip_is_lossless(self):
        spec = worker_benefit_spec(TINY_SCALE)
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored.to_dict() == spec.to_dict()
        assert restored.runner == spec.runner
        assert [p.policy for p in restored.policies] == [p.policy for p in spec.policies]

    def test_file_round_trip(self, tmp_path):
        spec = requester_benefit_spec(TINY_SCALE)
        path = spec.save(tmp_path / "spec.json")
        assert json.loads(path.read_text())["name"] == "requester-benefit"
        assert ExperimentSpec.load(path).to_dict() == spec.to_dict()

    def test_balance_spec_labels_each_weight(self):
        spec = balance_spec((0.0, 0.5, 1.0), TINY_SCALE)
        weights = [entry.kwargs["worker_weight"] for entry in spec.policies]
        assert weights == [0.0, 0.5, 1.0]
        assert all(entry.policy == "ddqn" for entry in spec.policies)
        # The repeated ddqn entries must carry distinct labels, or the spec
        # could not round-trip through JSON (duplicate names are rejected).
        assert [entry.label for entry in spec.policies] == [
            "DDQN(w=0)", "DDQN(w=0.5)", "DDQN(w=1)",
        ]
        assert ExperimentSpec.from_json(spec.to_json()).to_dict() == spec.to_dict()


class TestValidation:
    def test_unknown_top_level_keys_raise(self):
        with pytest.raises(ValueError, match="unknown experiment spec keys"):
            ExperimentSpec.from_dict({"name": "x", "nope": 1})

    def test_unknown_runner_keys_raise(self):
        with pytest.raises(ValueError, match="unknown runner keys"):
            ExperimentSpec.from_dict({"runner": {"warp_speed": 9}})

    def test_unknown_dataset_keys_raise(self):
        with pytest.raises(ValueError, match="unknown dataset spec keys"):
            ExperimentSpec.from_dict({"dataset": {"scale": 0.1, "volume": 2}})

    def test_policy_spec_requires_a_name(self):
        with pytest.raises(ValueError, match="policy"):
            ExperimentSpec.from_dict({"policies": [{"kwargs": {}}]})

    def test_invalid_runner_values_surface_runnerconfig_errors(self):
        with pytest.raises(ValueError, match="max_arrivals"):
            ExperimentSpec.from_dict({"runner": {"max_arrivals": -5}})

    def test_empty_spec_refuses_to_run(self):
        with pytest.raises(ValueError, match="no policies"):
            run_spec(ExperimentSpec(name="empty"))

    def test_duplicate_policy_names_are_rejected_at_parse_time(self):
        data = tiny_spec().to_dict()
        data["policies"] = [{"policy": "random"}, {"policy": "random"}]
        with pytest.raises(ValueError, match="more than once"):
            ExperimentSpec.from_dict(data)

    def test_duplicate_labels_are_rejected_at_parse_time(self):
        data = tiny_spec().to_dict()
        data["policies"] = [
            {"policy": "random", "label": "twin"},
            {"policy": "linucb", "label": "twin"},
        ]
        with pytest.raises(ValueError, match="more than once"):
            ExperimentSpec.from_dict(data)

    def test_label_matching_another_policy_name_still_parses(self):
        # A label colliding with a *different* entry's registry slug is not a
        # result-dict collision (unlabeled entries key on display names).
        data = tiny_spec().to_dict()
        data["policies"] = [
            {"policy": "linucb", "label": "random"},
            {"policy": "random"},
        ]
        spec = ExperimentSpec.from_dict(data)
        assert len(spec.policies) == 2

    def test_distinct_labels_make_repeated_policies_parseable(self):
        data = tiny_spec().to_dict()
        data["policies"] = [
            {"policy": "random", "kwargs": {"seed": 0}, "label": "random-a"},
            {"policy": "random", "kwargs": {"seed": 1}, "label": "random-b"},
        ]
        spec = ExperimentSpec.from_dict(data)
        assert [entry.label for entry in spec.policies] == ["random-a", "random-b"]


class TestRunSpec:
    def test_run_spec_returns_results_keyed_by_display_name(self):
        results = run_spec(tiny_spec())
        assert list(results) == ["Random", "Greedy CS"]
        for result in results.values():
            assert isinstance(result, EvaluationResult)
            assert result.arrivals > 0

    def test_labels_override_result_keys_and_allow_duplicates(self):
        spec = tiny_spec()
        spec.policies = [
            PolicySpec("random", {"seed": 0}, label="random-a"),
            PolicySpec("random", {"seed": 1}, label="random-b"),
        ]
        results = run_spec(spec)
        assert list(results) == ["random-a", "random-b"]

    def test_duplicate_labels_raise(self):
        spec = tiny_spec()
        spec.policies = [PolicySpec("random", {"seed": 0}), PolicySpec("random", {"seed": 1})]
        with pytest.raises(ValueError, match="duplicate result label"):
            run_spec(spec)

    @pytest.mark.parametrize(
        "fan_out", [{"cell_threads": 2}, {"vectorize": 2}], ids=["cell_threads", "vectorize"]
    )
    def test_duplicate_labels_raise_before_any_run(self, fan_out, monkeypatch):
        started: list[str] = []
        monkeypatch.setattr(SimulationRunner, "run", lambda *a, **k: started.append("run"))
        monkeypatch.setattr(VectorizedRunner, "run", lambda *a, **k: started.append("run"))
        spec = tiny_spec()
        spec.policies = [PolicySpec("random", {"seed": 0}), PolicySpec("random", {"seed": 1})]
        with pytest.raises(ValueError, match="duplicate result label"):
            run_spec(spec, **fan_out)
        assert started == []

    def test_serial_runs_build_each_policy_after_the_previous_run(self, monkeypatch):
        # At most one trained framework is resident at a time.
        events: list[str] = []
        build_policy = spec_module.build_policy
        run = SimulationRunner.run

        def recording_build(name, dataset, **kwargs):
            events.append(f"build {name}")
            return build_policy(name, dataset, **kwargs)

        def recording_run(self, policy, *args, **kwargs):
            result = run(self, policy, *args, **kwargs)
            events.append(f"ran {policy.name}")
            return result

        monkeypatch.setattr(spec_module, "build_policy", recording_build)
        monkeypatch.setattr(SimulationRunner, "run", recording_run)
        run_spec(tiny_spec())
        assert events == ["build random", "ran Random", "build greedy-cosine", "ran Greedy CS"]

    def test_checkpoint_slug_collisions_are_rejected(self, tmp_path):
        # Distinct labels that sanitize to the same filename must not
        # silently overwrite each other's checkpoints.
        spec = tiny_spec()
        spec.policies = [
            PolicySpec("random", {"seed": 0}, label="a b"),
            PolicySpec("greedy-cosine", {"objective": "worker"}, label="a-b"),
        ]
        with pytest.raises(ValueError, match="both checkpoint"):
            run_spec(spec, checkpoint_dir=tmp_path)

    def test_dataset_override_skips_generation(self):
        spec = tiny_spec()
        dataset = spec.dataset.build()
        results = run_spec(spec, dataset=dataset)
        assert set(results) == {"Random", "Greedy CS"}


class TestPolicyJobs:
    """``_policy_jobs``: each ``(label, policy, checkpoint path)``, built on demand."""

    def test_builds_one_policy_per_item(self, monkeypatch):
        built: list[str] = []
        build_policy = spec_module.build_policy

        def counting_build(name, dataset, **kwargs):
            built.append(name)
            return build_policy(name, dataset, **kwargs)

        monkeypatch.setattr(spec_module, "build_policy", counting_build)
        spec = tiny_spec()
        jobs = spec_module._policy_jobs(spec, spec.dataset.build(), None)
        assert built == []
        label, policy, path = next(jobs)
        assert (label, policy.name, path) == ("Random", "Random", None)
        assert built == ["random"]
        assert [label for label, _, _ in jobs] == ["Greedy CS"]
        assert built == ["random", "greedy-cosine"]

    def test_checkpoint_paths_are_label_slugs_under_the_directory(self, tmp_path):
        spec = tiny_spec()
        spec.policies = [
            PolicySpec("random", {"seed": 0}, label="seed 0/a"),
            PolicySpec("random", {"seed": 1}, label="seed-1"),
        ]
        jobs = spec_module._policy_jobs(spec, spec.dataset.build(), tmp_path)
        assert [(label, path) for label, _, path in jobs] == [
            ("seed 0/a", tmp_path / "seed-0-a.npz"),
            ("seed-1", tmp_path / "seed-1.npz"),
        ]
