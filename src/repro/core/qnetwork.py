"""The permutation-invariant set Q-network (Sec. IV-B, Fig. 3).

Input: the state matrix whose rows are (task feature ‖ worker feature [...]).
Architecture, following the paper:

1. two row-wise feed-forward layers lift each task-worker pair to a
   ``hidden_dim``-dimensional embedding;
2. a multi-head self-attention layer computes pairwise interactions between
   the tasks in the pool, followed by a residual row-wise layer that keeps
   the network stable;
3. a second self-attention layer captures higher-order interactions;
4. a final row-wise linear layer (no activation) reduces each row to a single
   Q value ``Q(s, t_j)``.

Because all layers are permutation-invariant over rows, reordering the
available tasks permutes the output Q values identically, and padding rows
are masked out of the attention softmax so they cannot influence real tasks.

The forward is written once, as :func:`q_forward` over a name→array
parameter mapping whose arrays carry a leading replica axis ``N``.  Callers
only choose the parameters:

* :class:`SetQNetwork` passes zero-copy ``N = 1`` views of its own
  parameters — :class:`~repro.nn.Tensor` views build the training graph,
  plain-array views run inference with no graph nodes;
* the train step (:func:`repro.core.learner._group_forward`) stacks the
  parameters of N learners' networks whose batches share one shape, as
  lockstep replicas do (:func:`stack_parameters`; ``Tensor.stack``'s
  backward hands each network its own gradient slice);
* an async snapshot (:class:`repro.core.trainer.SnapshotNetwork`) passes
  ``N = 1`` views into its copy of the optimiser's flat buffer.

numpy evaluates a ``(N, m, k) @ (N, k, n)`` matmul as N independent 2-D
GEMMs whose slices are bit-identical to the separate calls, and every other
op acts per slice, so slice ``i`` of an N-stacked call equals the ``N = 1``
call on replica ``i`` bit for bit (pinned by
``tests/core/test_stacked_equivalence.py``).  Scoring one state is the
``B = 1`` case of scoring a batch.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..nn import (
    Module,
    MultiHeadSelfAttention,
    RowwiseFeedForward,
    Tensor,
    is_grad_enabled,
    resolve_dtype,
)
from ..nn.functional import multi_head_attention, relu
from .state import StateMatrix

__all__ = [
    "QScorer",
    "SetQNetwork",
    "pad_state_batch",
    "q_forward",
    "score_states",
    "stack_parameters",
]


def pad_state_batch(
    states: Sequence[StateMatrix], dtype=np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """Stack a list of :class:`StateMatrix` into one padded ``(B, rows, dim)`` batch.

    States are zero-padded to the largest row count in the batch (at least 1,
    so that the attention softmax always has a key axis to normalise over);
    the returned boolean mask of shape ``(B, rows)`` marks padding rows —
    both rows added here and rows that were already padding inside a state.
    ``dtype`` is the batch's floating dtype (the owning network's compute
    precision).  Decisions pad a whole batch; a train step's ragged batch
    is padded one row-count bucket at a time
    (:func:`repro.core.learner.row_buckets`).
    """
    if not states:
        raise ValueError("pad_state_batch requires at least one state")
    shape = states[0].matrix.shape
    if shape[0] > 0 and all(state.matrix.shape == shape for state in states):
        # Uniform shapes (the steady state under a fixed ``max_tasks``): one
        # C-level stack instead of a python row-copy loop, same values.
        batch = np.array([state.matrix for state in states], dtype=dtype)
        return batch, np.array([state.mask for state in states])
    rows = max(1, max(state.matrix.shape[0] for state in states))
    row_dim = shape[1]
    batch = np.zeros((len(states), rows, row_dim), dtype=dtype)
    mask = np.ones((len(states), rows), dtype=bool)
    for i, state in enumerate(states):
        count = state.matrix.shape[0]
        if state.matrix.shape[1] != row_dim:
            raise ValueError(
                f"state {i} has row dim {state.matrix.shape[1]}, expected {row_dim}"
            )
        if count:
            batch[i, :count] = state.matrix
            mask[i, :count] = state.mask
    return batch, mask


# --------------------------------------------------------------------- #
# The forward, over an (N, …) parameter stack
# --------------------------------------------------------------------- #
def _linear(x, params: Mapping, prefix: str):
    """Affine map of every row of an ``(N, B, rows, K)`` input, one GEMM per replica.

    The batch and row axes are flattened into the GEMM row axis.  The
    single-column value head is the exception: it keeps one
    ``(rows, K) @ (K, 1)`` product per batch item, so each row's bits never
    depend on the batch size (see ``nn.Linear.forward``).  The bias add is
    in place for arrays; for a tensor ``+=`` rebinds to a graph node.
    """
    weight = params[f"{prefix}.weight"]
    bias = params[f"{prefix}.bias"]
    n, in_features, out_features = weight.shape
    if out_features == 1:
        out = x @ weight.reshape((n, 1, in_features, 1))
        out += bias.reshape((n, 1, 1, 1))
        return out
    out = x.reshape((n, -1, in_features)) @ weight
    out += bias.reshape((n, 1, out_features))
    return out.reshape(x.shape[:-1] + (out_features,))


def _attention(x, params: Mapping, prefix: str, mask: np.ndarray | None, num_heads: int):
    """Masked multi-head self-attention block of an ``(N, B, rows, E)`` input."""
    n, _, _, embed_dim = x.shape
    weight = params[f"{prefix}.in_proj_weight"]
    bias = params[f"{prefix}.in_proj_bias"]
    qkv = x.reshape((n, -1, embed_dim)) @ weight
    qkv += bias.reshape((n, 1, 3 * embed_dim))
    merged = multi_head_attention(qkv, x.shape[:-1], num_heads, mask=mask)
    return _linear(merged, params, f"{prefix}.output_proj")


def q_forward(
    params: Mapping[str, Tensor | np.ndarray],
    batch: np.ndarray,
    mask: np.ndarray | None,
    num_heads: int,
):
    """Q values of N stacked networks, each on its own padded batch.

    ``params`` maps :class:`SetQNetwork` parameter names to ``(N, …)``
    stacks, ``batch`` is ``(N, B, rows, input_dim)`` and ``mask`` (True =
    padding row) is ``(N, B, rows)``.  Returns ``(N, B, rows)``: a graph
    :class:`~repro.nn.Tensor` when the parameters are tensors, a plain array
    when they are arrays.  The array path adds the residuals, and applies
    every bias and ReLU, in place into buffers the forward itself allocated.
    """
    x = Tensor(batch) if isinstance(params["embed_1.linear.weight"], Tensor) else batch
    hidden = relu(_linear(x, params, "embed_1.linear"))
    hidden = relu(_linear(hidden, params, "embed_2.linear"))
    attended = _attention(hidden, params, "attention_1", mask, num_heads)
    # Residual connection + row-wise layer ("helps keeping the network stable").
    attended += hidden
    hidden = relu(_linear(attended, params, "post_attention.linear"))
    attended = _attention(hidden, params, "attention_2", mask, num_heads)
    attended += hidden
    values = _linear(attended, params, "value_head.linear")
    return values.reshape(values.shape[:-1])


def stack_parameters(maps: Sequence[Mapping[str, Tensor | np.ndarray]]) -> dict:
    """``name → (N, …)`` stacks of N same-architecture parameter mappings.

    ``N = 1`` is a zero-copy view (a reshape node for tensors).  Larger
    stacks copy; for tensors ``Tensor.stack``'s backward deposits each
    network's gradient slice into its own parameters.
    """
    first = maps[0]
    if len(maps) == 1:
        return {name: value.reshape((1,) + value.shape) for name, value in first.items()}
    if isinstance(next(iter(first.values())), Tensor):
        return {name: Tensor.stack([params[name] for params in maps]) for name in first}
    return {name: np.array([params[name] for params in maps]) for name in first}


def score_states(
    arrays: Mapping[str, np.ndarray], num_heads: int, states: Sequence[StateMatrix]
) -> list[np.ndarray]:
    """Q values of each state's real tasks under one parameter set (no graph).

    ``arrays`` maps parameter names to plain arrays without a replica axis;
    the states are padded into one batch in the parameters' dtype.
    """
    if not states:
        return []
    dtype = next(iter(arrays.values())).dtype
    batch, mask = pad_state_batch(states, dtype=dtype)
    params = stack_parameters([arrays])
    values = q_forward(params, batch[np.newaxis], mask[np.newaxis], num_heads)[0]
    return [values[i, : state.num_tasks].copy() for i, state in enumerate(states)]


class QScorer:
    """Something decisions score on: one parameter set of a set Q-network.

    Subclasses provide :meth:`parameter_arrays` plus ``num_heads``, ``dtype``
    and ``signature`` (scorers with equal signatures stack into one call).
    """

    num_heads: int
    dtype: np.dtype
    signature: tuple

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        """The current parameters as plain arrays (no replica axis, no copy)."""
        raise NotImplementedError

    def q_values(self, state: StateMatrix) -> np.ndarray:
        """Q values for the *real* tasks of ``state``."""
        return self.q_values_batch([state])[0]

    def q_values_batch(self, states: Sequence[StateMatrix]) -> list[np.ndarray]:
        """Per-state Q value arrays for the real tasks, in one padded forward."""
        return score_states(self.parameter_arrays(), self.num_heads, states)


class SetQNetwork(QScorer, Module):
    """Estimates one Q value per available task from a state matrix.

    Parameters
    ----------
    input_dim:
        Row dimensionality of the state matrix (from the StateTransformer).
    hidden_dim:
        Width of the internal embeddings (128 in the paper).
    num_heads:
        Number of attention heads (the paper's Fig. 3 shows ``h = 4``).
    seed:
        Seed for parameter initialisation, making runs reproducible.
    dtype:
        Compute precision (``"float64"`` default, or ``"float32"`` which
        roughly halves GEMM time).  Parameters are initialised from the same
        RNG draws in either precision, and inputs are cast on entry.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int = 128,
        num_heads: int = 4,
        seed: int = 0,
        dtype=None,
    ) -> None:
        super().__init__()
        if input_dim <= 0:
            raise ValueError("input_dim must be positive")
        rng = np.random.default_rng(seed)
        dtype = resolve_dtype(dtype)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.num_heads = num_heads
        self.dtype = dtype
        self.signature = (input_dim, hidden_dim, num_heads, np.dtype(dtype).name)

        self.embed_1 = RowwiseFeedForward(input_dim, hidden_dim, rng=rng, dtype=dtype)
        self.embed_2 = RowwiseFeedForward(hidden_dim, hidden_dim, rng=rng, dtype=dtype)
        self.attention_1 = MultiHeadSelfAttention(hidden_dim, num_heads, rng=rng, dtype=dtype)
        self.post_attention = RowwiseFeedForward(hidden_dim, hidden_dim, rng=rng, dtype=dtype)
        self.attention_2 = MultiHeadSelfAttention(hidden_dim, num_heads, rng=rng, dtype=dtype)
        self.value_head = RowwiseFeedForward(
            hidden_dim, 1, activation=False, rng=rng, dtype=dtype
        )
        #: Parameter objects never change after construction (optimisers
        #: re-point ``param.data``, not the parameters), so the map is built once.
        self.parameter_map: dict[str, Tensor] = dict(self.named_parameters())

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return {name: param.data for name, param in self.parameter_map.items()}

    # ------------------------------------------------------------------ #
    def forward(self, state: Tensor | np.ndarray, mask: np.ndarray | None = None) -> Tensor:
        """Return one Q value per row.

        ``state`` is a single state matrix ``(rows, input_dim)`` (returning a
        ``(rows,)`` tensor) or a padded batch ``(batch, rows, input_dim)``
        (returning ``(batch, rows)``); ``mask`` has the matching leading
        shape and marks padding rows.  The input is cast to the network's
        dtype on entry; gradients flow to the parameters only.
        """
        data = np.asarray(state.data if isinstance(state, Tensor) else state, dtype=self.dtype)
        out_shape = data.shape[:-1]
        batch = data.reshape((1, -1) + data.shape[-2:])
        if mask is not None:
            mask = np.asarray(mask, dtype=bool).reshape(batch.shape[:-1])
        # Graph tensors when gradients are on, plain arrays (no graph) otherwise.
        source = self.parameter_map if is_grad_enabled() else self.parameter_arrays()
        values = q_forward(stack_parameters([source]), batch, mask, self.num_heads)
        values = values.reshape(out_shape)
        return values if isinstance(values, Tensor) else Tensor(values)

    def forward_batch(self, states: Sequence[StateMatrix]) -> Tensor:
        """One forward pass for a whole list of states.

        States are padded to a common row count (see :func:`pad_state_batch`)
        and pushed through the network as a single ``(B, rows, input_dim)``
        batch, so the entire batch costs a handful of BLAS calls instead of
        ``B`` separate graphs.  Returns a ``(B, rows)`` tensor; only entries
        ``[i, : states[i].num_tasks]`` are meaningful.
        """
        batch, mask = pad_state_batch(states, dtype=self.dtype)
        return self.forward(batch, mask=mask)

    def clone(self) -> "SetQNetwork":
        """Create a structurally identical network with copied parameters.

        Used to build the target network Q̃ of double Q-learning.
        """
        twin = SetQNetwork(
            input_dim=self.input_dim,
            hidden_dim=self.hidden_dim,
            num_heads=self.num_heads,
            dtype=self.dtype,
        )
        twin.load_state_dict(self.state_dict())
        return twin
