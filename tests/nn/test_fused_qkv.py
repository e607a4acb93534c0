"""Fused QKV projection vs the unfused three-GEMM reference.

Property-based (stdlib ``random``-seeded numpy draws, many cases): for random
shapes, leading batch dims and padding masks, the fused
:class:`MultiHeadSelfAttention` must match a reference implementation that
runs three separate Q/K/V projections — in **values and in gradients** (both
the fused in-projection parameters and the input).  Also pins the
:meth:`Tensor.unbind` op the fusion is built on: equality with indexing,
cheap-backward correctness and gradient accumulation alongside other
consumers of the parent.
"""

import numpy as np
import pytest

from repro.nn import Tensor, scaled_dot_product_attention
from repro.nn.layers import MultiHeadSelfAttention


def unfused_reference(layer: MultiHeadSelfAttention, x: Tensor, mask):
    """PR-1's attention forward: three separate projections, same weights.

    Rebuilt from the fused parameters' column blocks so both paths share
    exactly the same values; everything downstream of the projections
    mirrors the layer's own head-split attention.
    """
    embed = layer.embed_dim
    w = layer.in_proj_weight
    b = layer.in_proj_bias
    queries = x @ w[:, 0:embed] + b[0:embed]
    keys = x @ w[:, embed : 2 * embed] + b[embed : 2 * embed]
    values = x @ w[:, 2 * embed : 3 * embed] + b[2 * embed : 3 * embed]

    lead = x.shape[:-2]
    rows = x.shape[-2]
    n_lead = len(lead)
    split_axes = tuple(range(n_lead)) + (n_lead + 1, n_lead, n_lead + 2)

    def split_heads(t: Tensor) -> Tensor:
        return t.reshape(lead + (rows, layer.num_heads, layer.head_dim)).transpose(split_axes)

    key_mask = None
    if mask is not None:
        key_mask = np.asarray(mask, dtype=bool)[..., np.newaxis, np.newaxis, :]
    attended = scaled_dot_product_attention(
        split_heads(queries), split_heads(keys), split_heads(values), mask=key_mask
    )
    merged = attended.transpose(split_axes).reshape(lead + (rows, layer.embed_dim))
    return layer.output_proj(merged)


def random_case(rng: np.random.Generator):
    """One random (layer, input, mask) instance."""
    num_heads = int(rng.integers(1, 4))
    head_dim = int(rng.integers(1, 5))
    embed = num_heads * head_dim
    rows = int(rng.integers(1, 7))
    batched = bool(rng.integers(0, 2))
    lead = (int(rng.integers(1, 5)),) if batched else ()
    layer = MultiHeadSelfAttention(
        embed, num_heads, rng=np.random.default_rng(int(rng.integers(0, 1_000)))
    )
    x = rng.standard_normal(lead + (rows, embed))
    mask = None
    if rng.integers(0, 2):
        mask = rng.random(lead + (rows,)) < 0.3
        # Never mask out every row: the softmax needs at least one real key.
        if lead:
            mask[..., 0] = False
        else:
            mask[0] = False
    return layer, x, mask


class TestFusedQKVEquivalence:
    @pytest.mark.parametrize("case", range(40))
    def test_forward_values_match_unfused_reference(self, case):
        rng = np.random.default_rng(1_000 + case)
        layer, x, mask = random_case(rng)
        fused = layer(Tensor(x), mask=mask)
        reference = unfused_reference(layer, Tensor(x), mask)
        np.testing.assert_allclose(fused.numpy(), reference.numpy(), atol=1e-10)

    @pytest.mark.parametrize("case", range(40))
    def test_gradients_match_unfused_reference(self, case):
        rng = np.random.default_rng(2_000 + case)
        layer, x, mask = random_case(rng)

        x_fused = Tensor(x.copy(), requires_grad=True)
        layer.zero_grad()
        layer(x_fused, mask=mask).sum().backward()
        fused_in_proj_w = layer.in_proj_weight.grad.copy()
        fused_in_proj_b = layer.in_proj_bias.grad.copy()
        fused_out_w = layer.output_proj.weight.grad.copy()
        fused_x = x_fused.grad.copy()

        x_ref = Tensor(x.copy(), requires_grad=True)
        layer.zero_grad()
        unfused_reference(layer, x_ref, mask).sum().backward()

        np.testing.assert_allclose(fused_in_proj_w, layer.in_proj_weight.grad, atol=1e-10)
        np.testing.assert_allclose(fused_in_proj_b, layer.in_proj_bias.grad, atol=1e-10)
        np.testing.assert_allclose(fused_out_w, layer.output_proj.weight.grad, atol=1e-10)
        np.testing.assert_allclose(fused_x, x_ref.grad, atol=1e-10)

    def test_initialisation_matches_three_separate_xavier_draws(self):
        """The fused weight's column blocks are the historical Q/K/V draws."""
        from repro.nn import init as initializers

        embed = 12
        layer = MultiHeadSelfAttention(embed, 3, rng=np.random.default_rng(42))
        rng = np.random.default_rng(42)
        for block in range(3):
            expected = initializers.xavier_uniform((embed, embed), rng)
            np.testing.assert_array_equal(
                layer.in_proj_weight.data[:, block * embed : (block + 1) * embed], expected
            )


class TestTensorUnbind:
    @pytest.mark.parametrize("case", range(20))
    def test_unbind_matches_indexing(self, case):
        rng = np.random.default_rng(3_000 + case)
        ndim = int(rng.integers(1, 4))
        axis = int(rng.integers(-ndim, ndim))
        shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
        data = rng.standard_normal(shape)

        x = Tensor(data.copy(), requires_grad=True)
        pieces = x.unbind(axis)
        expected = [np.take(data, i, axis=axis) for i in range(shape[axis])]
        assert len(pieces) == shape[axis]
        for piece, want in zip(pieces, expected):
            np.testing.assert_array_equal(piece.numpy(), want)

        # Gradients: weight each piece differently so slicing errors show up.
        loss = pieces[0].sum()
        for k, piece in enumerate(pieces[1:], start=2):
            loss = loss + piece.sum() * float(k)
        loss.backward()

        y = Tensor(data.copy(), requires_grad=True)
        lead = (slice(None),) * (axis % ndim)
        ref_pieces = [y[lead + (i,)] for i in range(shape[axis])]
        ref_loss = ref_pieces[0].sum()
        for k, piece in enumerate(ref_pieces[1:], start=2):
            ref_loss = ref_loss + piece.sum() * float(k)
        ref_loss.backward()
        np.testing.assert_allclose(x.grad, y.grad, atol=1e-12)

    def test_unbind_backward_accumulates_with_other_consumers(self):
        """The cheap backward must add into, not overwrite, existing grads."""
        x = Tensor(np.ones((2, 4)), requires_grad=True)
        a, b = x.unbind(0)
        loss = a.sum() + b.sum() * 3.0 + (x * 2.0).sum()
        loss.backward()
        expected = np.stack([np.full(4, 1.0 + 2.0), np.full(4, 3.0 + 2.0)])
        np.testing.assert_allclose(x.grad, expected)

    def test_unbind_without_grad_tracking(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        pieces = x.unbind(1)
        assert all(not piece.requires_grad for piece in pieces)
