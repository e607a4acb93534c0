"""ServeSpec / TenantSpec parsing: round trips and loud rejections."""

import pytest

from repro.serve import ServeSpec
from repro.serve.spec import TenantSpec

from tests.serve.conftest import CI_SPEC_PATH


def tenant_dict(name="alpha", policy="random"):
    return {
        "name": name,
        "dataset": {"scale": 0.03, "num_months": 2, "seed": 1},
        "runner": {"seed": 0, "checkpoint_every": 25},
        "policy": {"policy": policy},
    }


def serve_dict(**overrides):
    data = {
        "name": "unit",
        "host": "127.0.0.1",
        "port": 0,
        "tenants": [tenant_dict()],
    }
    data.update(overrides)
    return data


class TestRoundTrip:
    def test_bundled_ci_spec_loads(self):
        spec = ServeSpec.load(CI_SPEC_PATH)
        assert spec.name == "serve-ci"
        assert spec.port == 0
        assert [tenant.name for tenant in spec.tenants] == ["alpha", "beta"]
        assert all(t.policy.policy == "ddqn-worker" for t in spec.tenants)
        assert all(t.runner.checkpoint_every == 25 for t in spec.tenants)

    def test_dict_round_trip(self):
        spec = ServeSpec.from_dict(serve_dict())
        clone = ServeSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()

    def test_json_file_round_trip(self, tmp_path):
        spec = ServeSpec.from_dict(serve_dict())
        path = spec.save(tmp_path / "spec.json")
        assert ServeSpec.load(path).to_dict() == spec.to_dict()

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ServeSpec.load(tmp_path / "nope.json")


class TestRejections:
    def test_unknown_serve_key_raises(self):
        with pytest.raises(ValueError, match="unknown serve spec keys"):
            ServeSpec.from_dict(serve_dict(replicas=3))

    def test_unknown_tenant_key_raises(self):
        bad = tenant_dict()
        bad["gpu"] = True
        with pytest.raises(ValueError, match="unknown tenant spec keys"):
            ServeSpec.from_dict(serve_dict(tenants=[bad]))

    def test_unknown_runner_key_raises(self):
        bad = tenant_dict()
        bad["runner"] = {"warp_speed": 9}
        with pytest.raises(ValueError, match="runner"):
            ServeSpec.from_dict(serve_dict(tenants=[bad]))

    def test_duplicate_tenant_names_raise(self):
        with pytest.raises(ValueError, match="twice"):
            ServeSpec.from_dict(serve_dict(tenants=[tenant_dict(), tenant_dict()]))

    def test_no_tenants_raises(self):
        with pytest.raises(ValueError, match="no tenants"):
            ServeSpec.from_dict(serve_dict(tenants=[]))

    def test_bad_tenant_slug_raises(self):
        for name in ("Alpha", "a/b", "", "-leading", "sp ace", "alpha\n"):
            with pytest.raises(ValueError, match="slug"):
                TenantSpec.from_dict(tenant_dict(name=name))

    def test_missing_policy_section_raises(self):
        bad = tenant_dict()
        del bad["policy"]
        with pytest.raises(ValueError, match="policy"):
            TenantSpec.from_dict(bad)

    def test_unregistered_policy_fails_before_dataset_build(self):
        with pytest.raises(KeyError, match="no-such-policy"):
            ServeSpec.from_dict(serve_dict(tenants=[tenant_dict(policy="no-such-policy")]))

    def test_out_of_range_port_raises(self):
        with pytest.raises(ValueError, match="port"):
            ServeSpec.from_dict(serve_dict(port=70000))
