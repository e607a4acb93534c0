"""Neural-network layers used by the task-arrangement Q-network.

The paper's Q-network (Sec. IV-B, Fig. 3) is a stack of

* row-wise feed-forward layers ``rFF(X) = relu(X W + b)`` that process each
  task-worker row independently, and
* multi-head self-attention layers that let rows exchange information, so
  that the value of a task depends on which other tasks are available.

Both layer types are permutation-invariant over the rows of the input, which
is the property the paper proves in its appendix and that our tests verify.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from . import init as initializers
from .dtype import get_default_dtype, resolve_dtype
from .functional import multi_head_attention
from .tensor import Tensor

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "RowwiseFeedForward",
    "MultiHeadSelfAttention",
    "LayerNorm",
    "Sequential",
    "ReLU",
]


class Parameter(Tensor):
    """A tensor that is registered as a learnable parameter of a module."""

    def __init__(self, data, name: str | None = None, dtype=None):
        super().__init__(data, requires_grad=True, name=name, dtype=dtype)


class Module:
    """Base class providing parameter registration, train/eval state and I/O."""

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, "Module"] = {}
        self.training = True

    # -- registration ---------------------------------------------------- #
    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[key] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[key] = value
        object.__setattr__(self, key, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register a child module under ``name`` (used for module lists)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal ------------------------------------------------------- #
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its children."""
        for param in self._parameters.values():
            yield param
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs."""
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for child_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def param_dtype(self) -> np.dtype:
        """The floating dtype of this module's parameters.

        Modules are dtype-homogeneous by construction (the dtype is threaded
        through every constructor); parameter-free modules report the global
        default.
        """
        for param in self.parameters():
            return param.data.dtype
        return get_default_dtype()

    def train(self) -> "Module":
        """Put the module (and children) in training mode."""
        self.training = True
        for module in self._modules.values():
            module.train()
        return self

    def eval(self) -> "Module":
        """Put the module (and children) in evaluation mode."""
        self.training = False
        for module in self._modules.values():
            module.eval()
        return self

    # -- state dict ------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a copy of all parameter arrays keyed by qualified name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values from :meth:`state_dict` output."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, values in state.items():
            param = own[name]
            values = np.asarray(values)
            if values.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {values.shape}"
                )
            # In-place write (cast to the parameter's own dtype): the flat
            # optimiser buffers alias ``param.data``, so the array object must
            # survive a state-dict load for the views to stay coherent.
            np.copyto(param.data, values)

    def copy_from(self, other: "Module", tau: float = 1.0) -> None:
        """Polyak-average parameters from ``other`` into this module.

        ``tau=1`` performs a hard copy (used every *N* iterations for the
        target network, as in the paper); ``tau<1`` performs a soft update.
        """
        own = dict(self.named_parameters())
        for name, source in other.named_parameters():
            # Computed out-of-place (same values as before), written in-place
            # so optimiser flat-buffer views of ``data`` stay valid.
            np.copyto(own[name].data, (1.0 - tau) * own[name].data + tau * source.data)

    # -- call ------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Dense affine layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        dtype = resolve_dtype(dtype)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            initializers.xavier_uniform((in_features, out_features), rng, dtype=dtype),
            name="weight",
        )
        self.bias = (
            Parameter(initializers.zeros((out_features,), dtype=dtype), name="bias")
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        # Flatten leading (batch) dims so the product is one large GEMM —
        # numpy's N-D matmul would otherwise loop tiny GEMMs per batch item,
        # which dominates the batched engine's runtime.  The single-column
        # case (the Q value head) is the exception: BLAS runs an
        # ``(M, K) @ (K, 1)`` product as a vectorized main loop plus a scalar
        # tail over the last ``M % width`` rows, so collapsing would make the
        # tail rows' bits depend on the *total* batch size.  Keeping the N-D
        # per-batch-item product makes every row batch-slice stable, which
        # the train step's forwards rely on (``repro.core.learner._group_forward``):
        # a fused group pads shorter batches with dummy states, and a ragged
        # batch runs one call per row-count bucket; the Q-network's own
        # value head (``repro.core.qnetwork._linear``) keeps the same
        # product.  The loop of tiny ``(rows, K) @ (K, 1)`` products is cheap
        # next to the hidden-layer GEMMs.
        lead = x.shape[:-1]
        collapse = x.ndim > 2 and self.out_features > 1
        if collapse:
            x = x.reshape((-1, self.in_features))
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        if collapse and len(lead) > 1:
            out = out.reshape(lead + (self.out_features,))
        return out


class ReLU(Module):
    """Stateless ReLU activation module (for use inside :class:`Sequential`)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class RowwiseFeedForward(Module):
    """Row-wise feed-forward layer ``rFF(X) = relu(X W + b)``.

    Each row of the input set is transformed independently and identically,
    which makes the layer permutation-invariant over rows (Proof 1 in the
    paper's appendix).  ``activation`` can be disabled for the final value
    head, which must be able to output negative Q values.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: bool = True,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__()
        self.linear = Linear(in_features, out_features, rng=rng, dtype=dtype)
        self.activation = activation

    def forward(self, x: Tensor) -> Tensor:
        out = self.linear(x)
        return out.relu() if self.activation else out


class MultiHeadSelfAttention(Module):
    """Multi-head self-attention over the rows of a set (Sec. IV-B, Fig. 4).

    The layer projects the input into ``num_heads`` query/key/value triples,
    applies scaled dot-product attention per head, concatenates the heads and
    applies an output projection.  Padded rows (``mask``) are excluded from
    the attention softmax so zero-padding cannot influence real tasks.

    The Q/K/V projections are **fused**: instead of three separate
    ``(E, E)`` GEMMs per call, the layer stores one ``(E, 3E)`` weight
    (``in_proj_weight``) and launches a single GEMM, peeling the three
    head-split activations off a packed view with :meth:`Tensor.unbind`
    (whose backward writes each gradient straight into the owning slice
    instead of materialising three full-size zero arrays).  The fused
    weight is
    initialised from three independent Xavier draws with the *unfused*
    ``(E, E)`` fan sizes, in the historical Q, K, V order, so the parameter
    values (and the downstream RNG stream) are identical to the old layout.
    """

    def __init__(
        self,
        embed_dim: int,
        num_heads: int = 4,
        rng: np.random.Generator | None = None,
        dtype=None,
    ) -> None:
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError(
                f"embed_dim ({embed_dim}) must be divisible by num_heads ({num_heads})"
            )
        rng = rng if rng is not None else np.random.default_rng()
        dtype = resolve_dtype(dtype)
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        blocks = [
            initializers.xavier_uniform((embed_dim, embed_dim), rng, dtype=dtype)
            for _ in range(3)
        ]
        self.in_proj_weight = Parameter(
            np.concatenate(blocks, axis=1), name="in_proj_weight"
        )
        self.in_proj_bias = Parameter(
            initializers.zeros((3 * embed_dim,), dtype=dtype), name="in_proj_bias"
        )
        self.output_proj = Linear(embed_dim, embed_dim, rng=rng, dtype=dtype)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Attend over the rows of ``x``.

        ``x`` is either a single set ``(rows, embed_dim)`` or a batch of sets
        ``(batch, rows, embed_dim)``; ``mask`` (True = padding row) has shape
        ``(rows,)`` respectively ``(batch, rows)``.  All heads are computed in
        one reshaped batched matmul — ``(heads, rows, head_dim)`` for a single
        set, ``(batch, heads, rows, head_dim)`` for a batch — instead of a
        Python loop over column slices, and Q, K and V come out of one fused
        ``(·, E) @ (E, 3E)`` GEMM.
        """
        flat = x.reshape((-1, self.embed_dim)) if x.ndim > 2 else x
        qkv = flat @ self.in_proj_weight + self.in_proj_bias
        merged = multi_head_attention(qkv, x.shape[:-1], self.num_heads, mask=mask)
        return self.output_proj(merged)


class LayerNorm(Module):
    """Layer normalisation over the last dimension.

    Not strictly required by the paper but commonly paired with attention
    stacks; the Q-network uses it optionally to stabilise training.
    """

    def __init__(self, normalized_shape: int, eps: float = 1e-5, dtype=None) -> None:
        super().__init__()
        dtype = resolve_dtype(dtype)
        self.eps = eps
        self.gamma = Parameter(np.ones((normalized_shape,), dtype=dtype), name="gamma")
        self.beta = Parameter(np.zeros((normalized_shape,), dtype=dtype), name="beta")

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centred = x - mean
        variance = (centred * centred).mean(axis=-1, keepdims=True)
        normalised = centred / ((variance + self.eps) ** 0.5)
        return normalised * self.gamma + self.beta


class Sequential(Module):
    """A container that applies child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._ordered: list[Module] = []
        for index, module in enumerate(modules):
            self.register_module(f"layer_{index}", module)
            self._ordered.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._ordered)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._ordered:
            x = module(x)
        return x


def build_mlp(
    layer_sizes: Sequence[int],
    rng: np.random.Generator | None = None,
    final_activation: bool = False,
    dtype=None,
) -> Sequential:
    """Construct a plain MLP from ``layer_sizes`` (used by the Greedy NN baseline)."""
    rng = rng if rng is not None else np.random.default_rng()
    dtype = resolve_dtype(dtype)
    modules: list[Module] = []
    for index, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
        is_last = index == len(layer_sizes) - 2
        modules.append(Linear(fan_in, fan_out, rng=rng, dtype=dtype))
        if not is_last or final_activation:
            modules.append(ReLU())
    return Sequential(*modules)
