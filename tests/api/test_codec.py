"""The one spec codec: every spec type decodes and encodes through ``JsonSpec``.

Nested sections decode through their own class, so each class's checks and
error messages fire at any depth; documents written before ``to_dict``
wrote every field still decode equal to their re-encoded objects.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, SweepSpec
from repro.api.sweep import SweepRunner
from repro.serve import FaultPlan, FaultSpec, ProtocolLimits, ServeSpec, SupervisorSpec

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "specs"


def serve_doc() -> dict:
    return {
        "name": "codec",
        "port": 0,
        "tenants": [
            {
                "name": "alpha",
                "dataset": {"scale": 0.03, "num_months": 2, "seed": 1},
                "runner": {"seed": 0, "checkpoint_every": 25},
                "policy": {"policy": "random"},
            }
        ],
        "limits": {"max_queue_depth": 64},
        "supervisor": {"max_restarts": 1},
    }


def sweep_doc() -> dict:
    return {
        "name": "codec-sweep",
        "base": {
            "name": "base",
            "dataset": {"scale": 0.03, "num_months": 2, "seed": 1},
            "runner": {"seed": 0, "max_arrivals": 10},
            "policies": [{"policy": "random", "kwargs": {"seed": 0}}],
        },
        "axes": [{"target": "dataset", "key": "seed", "values": [1, 2]}],
    }


def plan_doc() -> dict:
    return {"name": "codec-plan", "seed": 3, "faults": [{"site": "conn_drop", "after": 2}]}


def edited(document: dict, path: tuple, value) -> dict:
    """A deep copy of ``document`` with the entry at ``path`` replaced."""
    document = copy.deepcopy(document)
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return document


def with_extra_key(document: dict, path: tuple) -> dict:
    document = copy.deepcopy(document)
    target = document
    for key in path:
        target = target[key]
    target["bogus"] = 1
    return document


UNKNOWN_KEY_CASES = [
    (ServeSpec, serve_doc, ("tenants", 0), "unknown tenant spec keys"),
    (ServeSpec, serve_doc, ("tenants", 0, "runner"), "unknown runner keys"),
    (ServeSpec, serve_doc, ("tenants", 0, "dataset"), "unknown dataset spec keys"),
    (ServeSpec, serve_doc, ("tenants", 0, "policy"), "unknown policy spec keys"),
    (ServeSpec, serve_doc, ("limits",), "unknown limits keys"),
    (ServeSpec, serve_doc, ("supervisor",), "unknown supervisor keys"),
    (SweepSpec, sweep_doc, ("base",), "unknown experiment spec keys"),
    (SweepSpec, sweep_doc, ("base", "dataset"), "unknown dataset spec keys"),
    (SweepSpec, sweep_doc, ("base", "runner"), "unknown runner keys"),
    (SweepSpec, sweep_doc, ("base", "policies", 0), "unknown policy spec keys"),
    (SweepSpec, sweep_doc, ("axes", 0), "unknown sweep axis keys"),
    (FaultPlan, plan_doc, ("faults", 0), "unknown fault spec keys"),
]


@pytest.mark.parametrize(
    "cls, document, path, message",
    UNKNOWN_KEY_CASES,
    ids=[".".join(map(str, case[2])) for case in UNKNOWN_KEY_CASES],
)
def test_unknown_keys_raise_their_own_message_at_every_depth(cls, document, path, message):
    with pytest.raises(ValueError, match=message):
        cls.from_dict(with_extra_key(document(), path))


NON_OBJECT_CASES = [
    (ServeSpec, serve_doc, ("tenants", 0), "tenant spec must be a JSON object"),
    (ServeSpec, serve_doc, ("tenants", 0, "runner"), "runner must be a JSON object"),
    (ServeSpec, serve_doc, ("tenants", 0, "dataset"), "dataset spec must be a JSON object"),
    (ServeSpec, serve_doc, ("tenants", 0, "policy"), "policy spec must be a JSON object"),
    (ServeSpec, serve_doc, ("limits",), "limits must be a JSON object"),
    (ServeSpec, serve_doc, ("supervisor",), "supervisor must be a JSON object"),
    (SweepSpec, sweep_doc, ("base",), "experiment spec must be a JSON object"),
    (SweepSpec, sweep_doc, ("base", "policies", 0), "policy spec must be a JSON object"),
    (SweepSpec, sweep_doc, ("axes", 0), "sweep axis must be a JSON object"),
    (FaultPlan, plan_doc, ("faults", 0), "fault spec must be a JSON object"),
]


@pytest.mark.parametrize(
    "cls, document, path, message",
    NON_OBJECT_CASES,
    ids=[".".join(map(str, case[2])) for case in NON_OBJECT_CASES],
)
def test_non_object_entries_are_rejected_at_every_depth(cls, document, path, message):
    for value in (7, "text", [1]):
        with pytest.raises(ValueError, match=message):
            cls.from_dict(edited(document(), path, value))


NON_ARRAY_CASES = [
    (ServeSpec, serve_doc, ("tenants",)),
    (SweepSpec, sweep_doc, ("axes",)),
    (SweepSpec, sweep_doc, ("base", "policies")),
    (FaultPlan, plan_doc, ("faults",)),
]


@pytest.mark.parametrize(
    "cls, document, path", NON_ARRAY_CASES, ids=[".".join(case[2]) for case in NON_ARRAY_CASES]
)
def test_non_array_sections_are_rejected(cls, document, path):
    for value in ({}, "text", 3):
        with pytest.raises(ValueError, match=f"{path[-1]} section must be a JSON array"):
            cls.from_dict(edited(document(), path, value))


@pytest.mark.parametrize("cls", [ExperimentSpec, SweepSpec, ServeSpec, FaultPlan])
def test_top_level_must_be_an_object(cls):
    with pytest.raises(ValueError, match="must be a JSON object"):
        cls.from_dict([])


def test_parse_only_checks_fire_when_nested():
    with pytest.raises(ValueError, match="slug"):
        ServeSpec.from_dict(edited(serve_doc(), ("tenants", 0, "name"), "Bad Name"))
    with pytest.raises(ValueError, match="missing its 'policy' section"):
        document = serve_doc()
        del document["tenants"][0]["policy"]
        ServeSpec.from_dict(document)
    repeated = [{"policy": "random"}, {"policy": "random"}]
    with pytest.raises(ValueError, match="more than once"):
        SweepSpec.from_dict(edited(sweep_doc(), ("base", "policies"), repeated))
    with pytest.raises(ValueError, match="non-empty 'policy' name"):
        SweepSpec.from_dict(edited(sweep_doc(), ("base", "policies", 0, "policy"), ""))
    with pytest.raises(ValueError, match="'kwargs' must be a JSON object"):
        ServeSpec.from_dict(edited(serve_doc(), ("tenants", 0, "policy", "kwargs"), [1]))


def test_nested_post_init_checks_surface_as_value_errors():
    with pytest.raises(ValueError, match="max_queue_depth"):
        ServeSpec.from_dict(edited(serve_doc(), ("limits", "max_queue_depth"), 0))
    with pytest.raises(ValueError, match="backoff_max_s"):
        ServeSpec.from_dict(edited(serve_doc(), ("supervisor", "backoff_max_s"), 0.0))
    with pytest.raises(ValueError, match="max_arrivals"):
        SweepSpec.from_dict(edited(sweep_doc(), ("base", "runner", "max_arrivals"), -1))
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultPlan.from_dict(edited(plan_doc(), ("faults", 0, "site"), "nowhere"))
    with pytest.raises(ValueError, match="invalid fault spec"):
        FaultPlan.from_dict(edited(plan_doc(), ("faults", 0), {"after": 2}))


def test_int_and_float_fields_are_coerced():
    document = edited(serve_doc(), ("port",), "7601")
    document["limits"] = {"max_frame_bytes": 4096.0, "request_timeout_s": 5}
    spec = ServeSpec.from_dict(document)
    assert spec.port == 7601 and isinstance(spec.port, int)
    assert spec.limits.max_frame_bytes == 4096 and isinstance(spec.limits.max_frame_bytes, int)
    assert isinstance(spec.limits.request_timeout_s, float)
    fault = FaultSpec.from_dict({"site": "slow_frame", "times": None, "probability": "0.5"})
    assert fault.times is None and fault.probability == 0.5
    with pytest.raises(ValueError):
        ServeSpec.from_dict(edited(serve_doc(), ("port",), "not-a-port"))
    with pytest.raises(ValueError, match="invalid limits"):
        ServeSpec.from_dict(edited(serve_doc(), ("limits", "max_queue_depth"), [1]))


def test_to_dict_writes_every_field():
    spec = ExperimentSpec.from_dict(sweep_doc()["base"])
    assert spec.to_dict()["policies"] == [{"policy": "random", "kwargs": {"seed": 0}, "label": None}]
    sweep = SweepSpec.from_dict(sweep_doc())
    assert sweep.to_dict()["replicate_axis"] is None
    assert sweep.to_dict()["axes"][0]["policy"] is None
    fault = FaultPlan.from_dict(plan_doc()).to_dict()["faults"][0]
    assert fault == {
        "site": "conn_drop", "tenant": None, "op": None, "after": 2, "every": 1,
        "times": 1, "probability": None, "delay_ms": 0.0, "message": "",
    }
    # The status op's limits/supervisor sections keep their keys and values.
    assert SupervisorSpec().to_dict() == {
        "max_restarts": 3, "backoff_base_s": 0.05, "backoff_max_s": 2.0,
    }
    assert ProtocolLimits().to_dict() == {
        "max_frame_bytes": 1 << 20, "request_timeout_s": 60.0,
        "max_queue_depth": 4096, "degrade_queue_lag": 512,
    }


def test_documents_in_the_older_sparse_shape_decode_equal_to_their_re_encoding():
    """Optional fields left out (as earlier encoders wrote them) decode equal."""
    experiment = ExperimentSpec.from_dict(
        {"name": "sparse", "policies": [{"policy": "random"}, {"policy": "linucb"}]}
    )
    assert ExperimentSpec.from_dict(experiment.to_dict()) == experiment
    sweep = SweepSpec.from_dict(sweep_doc())  # no replicate_axis, no axis policy
    assert SweepSpec.from_dict(sweep.to_dict()) == sweep
    serve = ServeSpec.from_dict(serve_doc())
    assert ServeSpec.from_dict(serve.to_dict()) == serve
    plan = FaultPlan.from_dict(plan_doc())  # no tenant/op/probability/delay_ms/message
    again = FaultPlan.from_dict(plan.to_dict())
    assert (again.name, again.seed, again.specs) == (plan.name, plan.seed, plan.specs)


def _decoder_for(path: Path):
    if path.name.startswith("faults"):
        return FaultPlan
    if path.name.startswith("serve"):
        return ServeSpec
    return SweepSpec if "sweep" in path.name else ExperimentSpec


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.json")), ids=lambda path: path.name)
def test_every_example_spec_round_trips(path):
    cls = _decoder_for(path)
    spec = cls.load(path)
    again = cls.from_json(spec.to_json())
    if cls is FaultPlan:
        assert (again.name, again.seed, again.specs) == (spec.name, spec.seed, spec.specs)
    else:
        assert again == spec


@pytest.mark.parametrize(
    "cls, what", [(ExperimentSpec, "experiment spec"), (SweepSpec, "sweep spec"),
                  (ServeSpec, "serve spec"), (FaultPlan, "fault plan")]
)
def test_load_names_the_missing_document(cls, what, tmp_path):
    with pytest.raises(FileNotFoundError, match=f"no {what} at"):
        cls.load(tmp_path / "missing.json")


def test_sparse_sweep_json_resumes_as_the_same_sweep(tmp_path):
    """A sweep directory pinned with the sparse encoding is not a different sweep."""
    (tmp_path / "sweep.json").write_text(json.dumps(sweep_doc(), indent=2) + "\n")
    runner = SweepRunner(SweepSpec.from_dict(sweep_doc()), tmp_path)
    runner.prepare()
    assert json.loads((tmp_path / "sweep.json").read_text()) == sweep_doc()
