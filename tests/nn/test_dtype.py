"""The configurable-precision mode of the nn substrate.

float64 stays the default (and must stay bit-identical to the historical
behaviour — the determinism suite pins that end to end); these tests pin the
float32 mode itself: dtype resolution and scoping, dtype propagation through
tensors, ops, gradients, layers, losses and optimisers, and checkpoint
round-trips that preserve the parameter dtype.
"""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Linear,
    SGD,
    Tensor,
    build_mlp,
    default_dtype,
    get_default_dtype,
    mse_loss,
    resolve_dtype,
    set_default_dtype,
    weighted_mse_loss,
)
from repro.nn.layers import LayerNorm, MultiHeadSelfAttention, Parameter
from repro.nn import init as initializers


@pytest.fixture(autouse=True)
def _restore_default_dtype():
    previous = get_default_dtype()
    yield
    set_default_dtype(previous)


class TestDtypeResolution:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.float64

    def test_set_and_get(self):
        set_default_dtype("float32")
        assert get_default_dtype() == np.float32

    def test_resolve_none_uses_default(self):
        assert resolve_dtype(None) == np.float64
        set_default_dtype(np.float32)
        assert resolve_dtype(None) == np.float32

    def test_resolve_accepts_names_and_dtypes(self):
        assert resolve_dtype("float32") == np.float32
        assert resolve_dtype(np.float64) == np.float64

    @pytest.mark.parametrize("bad", ["float16", np.int64, "complex128"])
    def test_unsupported_dtypes_raise(self, bad):
        with pytest.raises(ValueError, match="unsupported nn dtype"):
            resolve_dtype(bad)

    def test_context_manager_scopes_the_override(self):
        with default_dtype("float32"):
            assert get_default_dtype() == np.float32
            assert Tensor([1.0, 2.0]).dtype == np.float32
        assert get_default_dtype() == np.float64


class TestTensorDtype:
    def test_lists_and_scalars_use_the_default(self):
        assert Tensor([1, 2, 3]).dtype == np.float64
        set_default_dtype("float32")
        assert Tensor([1, 2, 3]).dtype == np.float32
        assert Tensor(2.5).dtype == np.float32

    def test_floating_arrays_keep_their_dtype(self):
        assert Tensor(np.zeros(3, dtype=np.float32)).dtype == np.float32
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64

    def test_integer_arrays_are_cast_to_the_default(self):
        assert Tensor(np.arange(3)).dtype == np.float64

    def test_explicit_dtype_forces_a_cast(self):
        assert Tensor(np.zeros(3, dtype=np.float64), dtype="float32").dtype == np.float32

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: x + 1.0,
            lambda x: 1.0 + x,
            lambda x: x - 0.5,
            lambda x: 0.5 - x,
            lambda x: x * 2.0,
            lambda x: x / 3.0,
            lambda x: 2.0 / x,
            lambda x: x**2,
            lambda x: x.relu(),
            lambda x: x.exp(),
            lambda x: x.sigmoid(),
            lambda x: x.tanh(),
            lambda x: x.softmax(),
            lambda x: x.sum(),
            lambda x: x.mean(),
            lambda x: x.max(),
            lambda x: x @ Tensor(np.ones((3, 2), dtype=np.float32)),
        ],
    )
    def test_float32_ops_stay_float32(self, op):
        x = Tensor(np.ones(3, dtype=np.float32) * 0.5, requires_grad=True)
        out = op(x)
        assert out.dtype == np.float32, "forward promoted to float64"
        out.sum().backward()
        assert x.grad.dtype == np.float32, "gradient promoted to float64"

    def test_scalar_operand_in_float64_matches_old_behaviour(self):
        x = Tensor(np.array([1.0, 2.0]))
        assert (x * 0.25).dtype == np.float64

    def test_unbind_preserves_dtype_and_grads(self):
        x = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        a, b, c = x.unbind(0)
        assert all(piece.dtype == np.float32 for piece in (a, b, c))
        (a.sum() + b.sum() + c.sum()).backward()
        assert x.grad.dtype == np.float32


class TestInitializers:
    def test_float32_draws_match_cast_float64_draws(self):
        """Both precisions consume the same RNG stream (cast after drawing)."""
        shape = (5, 7)
        reference = initializers.xavier_uniform(shape, np.random.default_rng(3))
        drawn = initializers.xavier_uniform(shape, np.random.default_rng(3), dtype="float32")
        assert drawn.dtype == np.float32
        np.testing.assert_array_equal(drawn, reference.astype(np.float32))


class TestLayersAndLosses:
    def test_linear_dtype_threads_to_parameters_and_output(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0), dtype="float32")
        assert layer.weight.dtype == np.float32
        assert layer.bias.dtype == np.float32
        out = layer(Tensor(np.ones((2, 4), dtype=np.float32)))
        assert out.dtype == np.float32
        assert layer.param_dtype() == np.float32

    def test_attention_and_layernorm_dtype(self):
        attention = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(0), dtype="float32")
        assert attention.in_proj_weight.dtype == np.float32
        out = attention(Tensor(np.ones((3, 8), dtype=np.float32)))
        assert out.dtype == np.float32
        norm = LayerNorm(8, dtype="float32")
        assert norm(out).dtype == np.float32

    def test_losses_keep_float32_against_float64_targets(self):
        prediction = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        target = np.zeros(4)  # float64, as the TD machinery produces
        loss = mse_loss(prediction, target)
        assert loss.dtype == np.float32
        loss.backward()
        assert prediction.grad.dtype == np.float32

        prediction.zero_grad()
        loss = weighted_mse_loss(prediction, target, np.ones(4))
        assert loss.dtype == np.float32

    def test_mlp_trains_in_float32(self):
        rng = np.random.default_rng(0)
        model = build_mlp([3, 8, 1], rng=rng, dtype="float32")
        optimizer = Adam(list(model.parameters()), lr=0.01)
        x = rng.normal(size=(32, 3)).astype(np.float32)
        y = (x @ np.array([[1.0], [-2.0], [0.5]], dtype=np.float32)).astype(np.float32)
        first = None
        for _ in range(150):
            loss = mse_loss(model(Tensor(x)), Tensor(y))
            if first is None:
                first = loss.item()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert all(p.dtype == np.float32 for p in model.parameters())
        assert loss.item() < first * 0.2

    def test_load_state_dict_casts_to_parameter_dtype(self):
        source = Linear(3, 2, rng=np.random.default_rng(0))  # float64
        target = Linear(3, 2, rng=np.random.default_rng(1), dtype="float32")
        target.load_state_dict(source.state_dict())
        assert target.weight.dtype == np.float32
        np.testing.assert_array_equal(
            target.weight.data, source.weight.data.astype(np.float32)
        )


class TestOptimizerDtype:
    def test_moment_buffers_follow_parameter_dtype(self):
        params = [Parameter(np.ones(4, dtype=np.float32))]
        adam = Adam(params, lr=0.1)
        state = adam.state_dict()
        assert state["first_moment"]["0"].dtype == np.float32

    def test_check_buffers_restores_in_parameter_dtype(self):
        """The satellite fix: float64 checkpoint buffers must not re-inflate
        a float32 optimiser's moments to float64."""
        params = [Parameter(np.ones(4, dtype=np.float32))]
        adam = Adam(params, lr=0.1)
        params[0].grad = np.full(4, 0.5, dtype=np.float32)
        adam.step()
        state = adam.state_dict()
        # Simulate a checkpoint round-trip that lost the dtype (json/npz of
        # an older writer, or a float64-written archive).
        state["first_moment"] = {"0": state["first_moment"]["0"].astype(np.float64)}
        state["second_moment"] = {"0": state["second_moment"]["0"].astype(np.float64)}

        restored = Adam([Parameter(np.ones(4, dtype=np.float32))], lr=0.1)
        restored.load_state_dict(state)
        inner = restored.state_dict()
        assert inner["first_moment"]["0"].dtype == np.float32
        assert inner["second_moment"]["0"].dtype == np.float32

    def test_sgd_velocity_dtype(self):
        params = [Parameter(np.ones(4, dtype=np.float32))]
        sgd = SGD(params, lr=0.1, momentum=0.9)
        params[0].grad = np.full(4, 1.0, dtype=np.float32)
        sgd.step()
        assert params[0].dtype == np.float32
        assert sgd.state_dict()["velocity"]["0"].dtype == np.float32

    def test_mixed_dtype_parameter_lists_are_rejected(self):
        params = [
            Parameter(np.ones(2, dtype=np.float32)),
            Parameter(np.ones(2, dtype=np.float64)),
        ]
        with pytest.raises(ValueError, match="dtype-homogeneous"):
            SGD(params, lr=0.1)
