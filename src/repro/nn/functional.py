"""Functional building blocks for :mod:`repro.nn`.

Losses and attention primitives used by the Q-network live here.  The
losses take and return :class:`repro.nn.tensor.Tensor` objects wired into
the autograd graph.  The attention path (:func:`relu`, :func:`masked_softmax`,
:func:`unbind`, :func:`scaled_dot_product_attention` and
:func:`multi_head_attention`) accepts either tensors or plain numpy arrays:
tensors build the training graph, arrays run inference with no graph nodes,
and both perform the same numpy operations in the same order, so their
values are bit-identical.  The array path writes into buffers it owns where
it can (:func:`relu` and :func:`masked_softmax` overwrite their array
argument), which saves the graph-free forward a temporary per operation.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "relu",
    "softmax",
    "masked_softmax",
    "unbind",
    "sigmoid",
    "tanh",
    "linear",
    "mse_loss",
    "huber_loss",
    "weighted_mse_loss",
    "scaled_dot_product_attention",
    "multi_head_attention",
]


def relu(x):
    """Element-wise rectified linear unit (tensor or array in, same type out).

    An array argument is overwritten in place and returned.
    """
    return x.relu() if isinstance(x, Tensor) else np.maximum(x, 0.0, out=x)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return as_tensor(x).softmax(axis=axis)


def masked_softmax(scores, mask: np.ndarray | None = None):
    """Softmax over the last axis, with masked (True) entries filled with -1e9 first.

    ``mask`` must already have the shape of ``scores``.  Tensor in, tensor
    out; array in, the same array out, overwritten in place with the values
    :func:`~repro.nn.tensor.softmax_array` computes out of place.
    """
    if isinstance(scores, Tensor):
        if mask is not None:
            scores = scores.masked_fill(mask, -1e9)
        return scores.softmax(axis=-1)
    if mask is not None:
        np.copyto(scores, -1e9, where=mask)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def unbind(x) -> list:
    """Views of every index of the leading axis (see :meth:`Tensor.unbind`)."""
    return x.unbind(0) if isinstance(x, Tensor) else list(x)


def sigmoid(x: Tensor) -> Tensor:
    """Element-wise logistic sigmoid."""
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Element-wise hyperbolic tangent."""
    return as_tensor(x).tanh()


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight + bias``."""
    out = as_tensor(x) @ weight
    if bias is not None:
        out = out + bias
    return out


def _detached_target(target, dtype: np.dtype) -> Tensor:
    """Coerce ``target`` to a detached tensor in the prediction's dtype.

    Keeps a float32 loss graph in float32 even when targets arrive as the
    float64 arrays the (dtype-agnostic) TD machinery produces.
    """
    target = as_tensor(target, dtype=dtype).detach()
    if target.data.dtype != dtype:
        target = Tensor(target.data, dtype=dtype)
    return target


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error between ``prediction`` and ``target``."""
    prediction = as_tensor(prediction)
    target = _detached_target(target, prediction.data.dtype)
    diff = prediction - target
    return (diff * diff).mean()


def weighted_mse_loss(prediction: Tensor, target: Tensor, weights: np.ndarray) -> Tensor:
    """Importance-weighted mean squared error.

    Used with prioritized experience replay, where each sampled transition
    carries an importance-sampling weight correcting the non-uniform sampling
    distribution.
    """
    prediction = as_tensor(prediction)
    target = _detached_target(target, prediction.data.dtype)
    weights = np.asarray(weights, dtype=prediction.data.dtype).reshape(prediction.shape)
    diff = prediction - target
    return (Tensor(weights) * diff * diff).mean()


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber (smooth L1) loss, robust to occasional large TD errors."""
    prediction = as_tensor(prediction)
    target = _detached_target(target, prediction.data.dtype)
    diff = prediction - target
    abs_diff = np.abs(diff.data)
    quadratic_mask = abs_diff <= delta
    # Quadratic branch: 0.5 * diff^2 ; linear branch: delta * (|diff| - 0.5*delta)
    quadratic = diff * diff * 0.5
    sign = np.sign(diff.data)
    linear_branch = diff * Tensor(sign * delta) - (0.5 * delta * delta)
    combined = quadratic * Tensor(quadratic_mask.astype(diff.data.dtype)) + linear_branch * Tensor(
        (~quadratic_mask).astype(diff.data.dtype)
    )
    return combined.mean()


def scaled_dot_product_attention(queries, keys, values, mask: np.ndarray | None = None):
    """Attention ``softmax(Q K^T / sqrt(d)) V`` as in Fig. 4 of the paper.

    Parameters
    ----------
    queries, keys, values:
        Tensors (or plain arrays, for graph-free inference) of shape
        ``(..., n, d)``.  A single set is ``(n, d)``; the batched engine
        stacks sets (and heads) into leading dimensions, e.g.
        ``(heads, n, d)`` or ``(batch, heads, n, d)``, and the attention is
        computed independently per leading slice in one batched matmul.
    mask:
        Optional boolean array marking padded *key* rows (True = padding).
        Any shape broadcastable against the score matrix ``(..., n, n)`` with
        the key axis last is accepted — ``(n,)`` for a single set, or e.g.
        ``(batch, 1, 1, n)`` for per-sample masks shared across heads and
        query rows.  Padded keys are excluded from the softmax so that
        zero-padding does not influence real tasks; padded query rows still
        produce (ignored) outputs.
    """
    d_k = queries.shape[-1]
    # The scale joins in the operands' dtype, so float32 stays float32.
    scale = np.asarray(1.0 / float(np.sqrt(d_k)), dtype=queries.dtype)
    scores = queries @ keys.swapaxes(-1, -2)
    scores *= scale  # in place for arrays; a graph node for tensors
    if mask is not None:
        # Broadcast across query rows (and any leading batch/head axes):
        # a trailing-True entry means that key column is padding everywhere.
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), scores.shape)
    return masked_softmax(scores, mask) @ values


def multi_head_attention(qkv, rows_shape: tuple, num_heads: int, mask: np.ndarray | None = None):
    """Masked multi-head self-attention over a fused Q/K/V projection.

    ``qkv`` is the ``(·, 3E)`` output of the fused input projection of a set
    whose rows have the leading shape ``rows_shape = (*lead, rows)``; its
    leading axes may already be flattened into one GEMM row axis.  Each
    activation row is laid out ``[q (heads·hd) | k (heads·hd) | v (heads·hd)]``,
    so one reshape to ``(*lead, rows, 3, heads, head_dim)`` is free, one
    transpose brings the q/k/v axis to the front, and :func:`unbind` peels the
    three head-split activations off as views.  All heads attend in one
    batched matmul (``mask``, True = padding row, has shape ``rows_shape``)
    and are merged back to ``(*lead, rows, E)``, ready for the output
    projection.
    """
    lead = tuple(rows_shape[:-1])
    rows = rows_shape[-1]
    n_lead = len(lead)
    embed_dim = qkv.shape[-1] // 3
    head_dim = embed_dim // num_heads
    packed = qkv.reshape(lead + (rows, 3, num_heads, head_dim)).transpose(
        (n_lead + 1,) + tuple(range(n_lead)) + (n_lead + 2, n_lead, n_lead + 3)
    )
    queries, keys, values = unbind(packed)
    key_mask = None
    if mask is not None:
        # Key mask broadcast over heads and query rows: (..., 1, 1, rows).
        key_mask = np.asarray(mask, dtype=bool)[..., np.newaxis, np.newaxis, :]
    attended = scaled_dot_product_attention(queries, keys, values, mask=key_mask)
    # (..., heads, rows, head_dim) -> (..., rows, heads, head_dim) -> (..., rows, E)
    merge_axes = tuple(range(n_lead)) + (n_lead + 1, n_lead, n_lead + 2)
    return attended.transpose(merge_axes).reshape(lead + (rows, embed_dim))
