"""Unit tests for the autograd tensor: forward values and gradients."""

import numpy as np
import pytest

from repro.nn import Tensor, no_grad
from repro.nn.tensor import as_tensor, is_grad_enabled


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function of ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = x.copy()
        minus = x.copy()
        plus[idx] += eps
        minus[idx] -= eps
        grad[idx] = (fn(plus) - fn(minus)) / (2 * eps)
        it.iternext()
    return grad


class TestTensorBasics:
    def test_construction_coerces_to_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_wraps_scalars(self):
        t = as_tensor(3.5)
        assert t.item() == pytest.approx(3.5)

    def test_detach_breaks_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad

    def test_backward_requires_scalar_without_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_zero_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * t).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None


class TestArithmeticGradients:
    @pytest.mark.parametrize(
        "operation",
        [
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: a * b,
            lambda a, b: a / b,
        ],
        ids=["add", "sub", "mul", "div"],
    )
    def test_binary_op_gradients(self, operation):
        rng = np.random.default_rng(0)
        a_val = rng.normal(size=(3, 4)) + 2.0
        b_val = rng.normal(size=(3, 4)) + 2.0
        a = Tensor(a_val, requires_grad=True)
        b = Tensor(b_val, requires_grad=True)
        operation(a, b).sum().backward()

        expected_a = numeric_gradient(lambda x: operation(Tensor(x), Tensor(b_val)).sum().item(), a_val)
        expected_b = numeric_gradient(lambda x: operation(Tensor(a_val), Tensor(x)).sum().item(), b_val)
        np.testing.assert_allclose(a.grad, expected_a, atol=1e-5)
        np.testing.assert_allclose(b.grad, expected_b, atol=1e-5)

    def test_broadcast_add_gradient(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_scalar_multiplication(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (3.0 * a).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 3.0])

    def test_rsub_and_rdiv(self):
        a = Tensor([2.0, 4.0], requires_grad=True)
        out = (1.0 - a).sum() + (8.0 / a).sum()
        out.backward()
        expected = -1.0 + (-8.0 / np.array([2.0, 4.0]) ** 2)
        np.testing.assert_allclose(a.grad, expected)

    def test_power_gradient(self):
        val = np.array([1.5, 2.0, 3.0])
        a = Tensor(val, requires_grad=True)
        (a**3).sum().backward()
        np.testing.assert_allclose(a.grad, 3 * val**2)

    def test_power_requires_scalar_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_neg_gradient(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        (-a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0, -1.0])


class TestMatmulGradients:
    def test_matrix_matrix(self):
        rng = np.random.default_rng(1)
        a_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=(4, 2))
        a = Tensor(a_val, requires_grad=True)
        b = Tensor(b_val, requires_grad=True)
        (a @ b).sum().backward()
        expected_a = numeric_gradient(lambda x: (Tensor(x) @ Tensor(b_val)).sum().item(), a_val)
        expected_b = numeric_gradient(lambda x: (Tensor(a_val) @ Tensor(x)).sum().item(), b_val)
        np.testing.assert_allclose(a.grad, expected_a, atol=1e-5)
        np.testing.assert_allclose(b.grad, expected_b, atol=1e-5)

    def test_forward_value(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        np.testing.assert_allclose((a @ b).numpy(), [[11.0]])


class TestReductionsAndShapes:
    def test_sum_axis_gradient(self):
        a = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        a.sum(axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))

    def test_mean_value_and_gradient(self):
        a = Tensor(np.arange(4, dtype=float), requires_grad=True)
        m = a.mean()
        assert m.item() == pytest.approx(1.5)
        m.backward()
        np.testing.assert_allclose(a.grad, np.full(4, 0.25))

    def test_max_gradient_flows_to_argmax(self):
        a = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_max_gradient_split_between_ties(self):
        a = Tensor([2.0, 5.0, 5.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.0, 0.5, 0.5])

    def test_reshape_round_trip_gradient(self):
        a = Tensor(np.arange(6, dtype=float), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(6))

    def test_transpose_gradient(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        a.T.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_getitem_gradient(self):
        a = Tensor(np.arange(5, dtype=float), requires_grad=True)
        a[1:3].sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 1.0, 0.0, 0.0])

    def test_concatenate_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        Tensor.concatenate([a, b], axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))

    def test_stack_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        Tensor.stack([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_assemble_places_pieces_and_routes_their_gradients(self):
        a = Tensor([[1.0], [2.0]], requires_grad=True)
        b = Tensor([[3.0, 4.0, 5.0]], requires_grad=True)
        out = Tensor.assemble([a, b], [np.array([0, 2]), np.array([1])], (3, 3))
        np.testing.assert_array_equal(out.numpy(), [[1, 0, 0], [3, 4, 5], [2, 0, 0]])
        weights = np.arange(9.0).reshape(3, 3)
        (out * Tensor(weights)).sum().backward()
        np.testing.assert_array_equal(a.grad, [[0.0], [6.0]])
        np.testing.assert_array_equal(b.grad, [[3.0, 4.0, 5.0]])


class TestNonlinearities:
    def test_relu_forward_and_gradient(self):
        a = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        out = a.relu()
        np.testing.assert_allclose(out.numpy(), [0.0, 0.5, 2.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 1.0])

    @pytest.mark.parametrize("method", ["exp", "log", "tanh", "sigmoid"])
    def test_unary_gradients_match_numeric(self, method):
        rng = np.random.default_rng(2)
        val = np.abs(rng.normal(size=(4,))) + 0.5
        a = Tensor(val, requires_grad=True)
        getattr(a, method)().sum().backward()
        expected = numeric_gradient(lambda x: getattr(Tensor(x), method)().sum().item(), val)
        np.testing.assert_allclose(a.grad, expected, atol=1e-5)

    def test_softmax_rows_sum_to_one(self):
        a = Tensor(np.random.default_rng(3).normal(size=(5, 7)))
        out = a.softmax(axis=-1).numpy()
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(5), atol=1e-12)

    def test_softmax_gradient_matches_numeric(self):
        rng = np.random.default_rng(4)
        val = rng.normal(size=(3, 4))
        weights = rng.normal(size=(3, 4))
        a = Tensor(val, requires_grad=True)
        (a.softmax(axis=-1) * Tensor(weights)).sum().backward()
        expected = numeric_gradient(
            lambda x: (Tensor(x).softmax(axis=-1) * Tensor(weights)).sum().item(), val
        )
        np.testing.assert_allclose(a.grad, expected, atol=1e-5)

    def test_masked_fill(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        mask = np.array([False, True, False])
        out = a.masked_fill(mask, -99.0)
        np.testing.assert_allclose(out.numpy(), [1.0, -99.0, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])


class TestNoGrad:
    def test_no_grad_disables_tracking(self):
        with no_grad():
            assert not is_grad_enabled()
            t = Tensor([1.0], requires_grad=True)
            out = t * 2
        assert is_grad_enabled()
        assert not out.requires_grad

    def test_no_grad_restores_state_after_exception(self):
        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert is_grad_enabled()

    def test_gradient_accumulates_across_backward_calls(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 2).sum().backward()
        (a * 3).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 5.0])

    def test_diamond_graph_accumulates_correctly(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * 3
        c = a * 4
        (b + c).sum().backward()
        np.testing.assert_allclose(a.grad, [7.0])


def copy_on_first_accumulate(self, grad, fresh=False):
    """Copy-on-first accumulation, the reference the adopting one must match
    bit for bit: copy every shared first contribution, add later ones in place."""
    if not self.requires_grad:
        return
    if self.grad is None:
        if self._grad_view is not None:
            np.copyto(self._grad_view, grad)
            self.grad = self._grad_view
        elif fresh and grad.dtype == self.data.dtype:
            self.grad = grad
        else:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        # Every buffer is private here, as unbind's backward assumed.
        self._grad_owned = True
    else:
        self.grad += grad


class TestGradientOwnership:
    """First contributions are adopted; a shared buffer is never written."""

    def test_add_hands_both_parents_one_buffer(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad is b.grad
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))

    @pytest.mark.parametrize("add_first", [True, False])
    def test_second_contribution_leaves_the_shared_buffer_alone(self, add_first):
        rng = np.random.default_rng(5)
        weight = rng.standard_normal((2, 3))
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        c = a + b
        # ``a`` is consumed once more; either order of the two backwards must
        # leave the buffer ``c`` handed to ``b`` untouched.
        terms = [(c * weight).sum(), (a * 3.0).sum()]
        (terms[0] + terms[1] if add_first else terms[1] + terms[0]).backward()
        assert b.grad is c.grad
        np.testing.assert_array_equal(b.grad, weight)
        np.testing.assert_array_equal(a.grad, weight + 3.0)

    @pytest.mark.parametrize("reshape_first", [True, False])
    def test_unbind_does_not_write_a_reshape_childs_buffer(self, reshape_first):
        rng = np.random.default_rng(6)
        row_weights = rng.standard_normal((2, 3))
        flat_weight = rng.standard_normal(6)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        t = x * 2.0
        flat = t.reshape(6)  # its backward hands ``t`` a view of its own grad
        pieces = t.unbind(0)
        terms = [
            (flat * flat_weight).sum(),
            (pieces[0] * row_weights[0]).sum() + (pieces[1] * row_weights[1]).sum(),
        ]
        (terms[0] + terms[1] if reshape_first else terms[1] + terms[0]).backward()
        np.testing.assert_array_equal(flat.grad, flat_weight)
        np.testing.assert_array_equal(
            x.grad, (flat_weight.reshape(2, 3) + row_weights) * 2.0
        )

    def test_learn_shape_train_step_gradient_is_bitwise_unchanged(self, monkeypatch):
        from benchmarks.perf.bench_engine import BenchConfig, build_learner, make_schema
        from repro.core import StateTransformer

        schema = make_schema()
        transformer = StateTransformer(schema)

        def one_step():
            learner, memory = build_learner(BenchConfig.learn(), schema, transformer)
            learner.train_step(memory)
            return learner.optimizer

        adopted = one_step()
        monkeypatch.setattr(Tensor, "_accumulate", copy_on_first_accumulate)
        copied = one_step()
        assert adopted._flat_grads.tobytes() == copied._flat_grads.tobytes()
        assert adopted._flat_params.tobytes() == copied._flat_params.tobytes()
