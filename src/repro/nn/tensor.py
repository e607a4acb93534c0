"""Reverse-mode automatic differentiation on top of numpy arrays.

This module is the foundation of the :mod:`repro.nn` substrate.  The paper
trains its Q-networks with PyTorch; since the reproduction environment has no
deep-learning framework available, we implement the small subset of tensor
operations the framework needs (dense linear algebra, element-wise
non-linearities, softmax, reductions, concatenation and slicing) together with
reverse-mode gradients.

The design follows the classic tape-free "define-by-run" pattern: every
:class:`Tensor` stores the operation that produced it as a ``_backward``
closure plus references to its parents, and :meth:`Tensor.backward` performs a
topological sort of that implicit graph and accumulates gradients.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .dtype import get_default_dtype, resolve_dtype

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled"]

#: Floating dtypes preserved as-is by the Tensor constructor.
_PRESERVED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class _GradMode(threading.local):
    """Per-thread autograd switch (mirrors torch.no_grad semantics).

    Thread-local rather than a module global: ``run_spec``'s cell threads
    and the async trainer thread enter/exit ``no_grad`` concurrently with
    the decision thread, and a shared flag would let one thread's inference
    scope strand training on another thread with gradient tracking silently
    disabled.
    """

    def __init__(self) -> None:
        self.enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager *and* decorator that disables gradient tracking.

    Used by inference paths (action selection, target-network evaluation) so
    that no computation graph is retained.  Mirrors torch semantics::

        with no_grad():
            ...

        @no_grad()
        def inference(...):
            ...

    The switch is per-thread, so worker threads running inference never
    disable gradient tracking for a thread that is training.
    """

    def __enter__(self) -> "no_grad":
        self._previous = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        _GRAD_MODE.enabled = self._previous

    def __call__(self, func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            # A fresh context per call keeps the decorator reentrant.
            with no_grad():
                return func(*args, **kwargs)

        return wrapper


def is_grad_enabled() -> bool:
    """Return whether gradient tracking is currently enabled (this thread)."""
    return _GRAD_MODE.enabled


def softmax_array(data: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax of a plain array (what :meth:`Tensor.softmax` computes)."""
    shifted = data - data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after numpy broadcasting.

    When an operand of shape ``shape`` was broadcast to the shape of ``grad``
    during the forward pass, the gradient contribution must be summed over the
    broadcast axes before being accumulated into the operand.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value, requires_grad: bool = False, dtype=None) -> "Tensor":
    """Coerce ``value`` (Tensor, ndarray, scalar or nested list) to a Tensor.

    ``dtype`` applies only when ``value`` is not already a Tensor: binary ops
    pass their own dtype here so that python scalars and plain arrays join
    the computation in the operand's precision instead of silently promoting
    a float32 graph back to float64 (numpy 2 treats 0-d float64 arrays as
    "strong" in promotion, unlike bare python scalars).
    """
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad, dtype=dtype)


class Tensor:
    """A numpy-backed tensor that records operations for backpropagation.

    Parameters
    ----------
    data:
        Anything convertible to a floating numpy array.  Arrays that are
        already float32/float64 keep their dtype; everything else (lists,
        python scalars, integer arrays) is converted to ``dtype`` when given,
        otherwise to the global default (see :mod:`repro.nn.dtype` —
        ``float64`` unless reconfigured).
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    dtype:
        Optional explicit dtype (``"float32"``/``"float64"``); forces a cast
        even for arrays that already carry a floating dtype.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "name",
        "_grad_view",
        "_grad_owned",
    )

    def __init__(self, data, requires_grad: bool = False, name: str | None = None, dtype=None):
        if dtype is not None:
            self.data = np.asarray(data, dtype=resolve_dtype(dtype))
        elif isinstance(data, (np.ndarray, np.floating)) and data.dtype in _PRESERVED_DTYPES:
            # Arrays (and numpy scalars, e.g. what ``.sum()`` returns) that
            # already carry a supported floating dtype keep it — this is what
            # lets a float32 graph stay float32 end to end.
            self.data = np.asarray(data)
        else:
            # Lists, scalars, integer arrays, …: the global default decides.
            self.data = np.asarray(data, dtype=get_default_dtype())
        self.requires_grad = bool(requires_grad) and _GRAD_MODE.enabled
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name
        #: Optional preallocated gradient buffer (a view into an optimiser's
        #: flat gradient vector).  When set, :meth:`_accumulate` writes the
        #: first contribution into it instead of allocating a fresh array,
        #: so the optimiser's gather step becomes a no-op.
        self._grad_view: np.ndarray | None = None
        #: Whether :attr:`grad` is a buffer this tensor may add into in place
        #: (see :meth:`_accumulate`).
        self._grad_owned = False

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a python float."""
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a single-element tensor, got shape {self.data.shape}"
            )
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #
    def _make_child(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Build a result tensor wired into the autograd graph."""
        tracked = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=tracked)
        if tracked:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        The first contribution is *adopted*, not copied: most backward
        closures compute a new array (e.g. ``grad @ W.T``), and residual
        adds and reshapes hand their own gradient, or a view of it, to
        their parents.  ``fresh=True`` promises that ``grad`` is a newly
        allocated array nobody else holds; only then does this tensor own
        the buffer and add later contributions into it in place.  A shared
        buffer (``fresh=False``) is never written: the second contribution
        is added out of place into a new, owned buffer.  Either way the
        additions and their order are those of copying the first
        contribution and adding the rest into the copy, so every gradient
        value is the same bit for bit.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if self._grad_view is not None:
                np.copyto(self._grad_view, grad)
                self.grad, self._grad_owned = self._grad_view, True
            elif grad.dtype == self.data.dtype:
                self.grad, self._grad_owned = grad, fresh
            else:
                self.grad, self._grad_owned = grad.astype(self.data.dtype), True
        elif self._grad_owned:
            self.grad += grad
        else:
            self.grad = np.add(self.grad, grad, out=np.empty_like(self.grad))
            self._grad_owned = True

    def _owned_grad(self) -> np.ndarray:
        """The gradient buffer, writable in place: zeros if absent, a copy if shared."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        elif not self._grad_owned:
            self.grad = self.grad.copy(order="K")
        self._grad_owned = True
        return self.grad

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to 1 for scalar tensors.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar tensor"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        ordered = self._topological_order()
        self._accumulate(grad)
        for node in reversed(ordered):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _topological_order(self) -> list["Tensor"]:
        """Return the interior nodes reachable from ``self`` in topological order.

        Leaves (parameters, inputs) are skipped: they have no backward to
        run, and their children's backwards already deliver their gradients.
        """
        ordered: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                ordered.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent._parents and id(parent) not in visited:
                    stack.append((parent, False))
        return ordered

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            grad_self = _unbroadcast(grad, self.data.shape)
            self._accumulate(grad_self, fresh=grad_self is not grad)
            grad_other = _unbroadcast(grad, other.data.shape)
            other._accumulate(grad_other, fresh=grad_other is not grad)

        return self._make_child(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, fresh=True)

        return self._make_child(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            grad_self = _unbroadcast(grad, self.data.shape)
            self._accumulate(grad_self, fresh=grad_self is not grad)
            other._accumulate(_unbroadcast(-grad, other.data.shape), fresh=True)

        return self._make_child(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.data.shape), fresh=True)
            other._accumulate(_unbroadcast(grad * self.data, other.data.shape), fresh=True)

        return self._make_child(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.data.shape), fresh=True)
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data**2), other.data.shape),
                fresh=True,
            )

        return self._make_child(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1), fresh=True)

        return self._make_child(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    grad_self = np.outer(grad, other.data) if self.data.ndim == 2 else grad * other.data
                else:
                    grad_self = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(
                    _unbroadcast(np.asarray(grad_self), self.data.shape), fresh=True
                )
            if other.requires_grad:
                if self.data.ndim == 1:
                    grad_other = np.outer(self.data, grad) if other.data.ndim == 2 else self.data * grad
                else:
                    grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(
                    _unbroadcast(np.asarray(grad_other), other.data.shape), fresh=True
                )

        return self._make_child(data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis=axis)
            self._accumulate(np.broadcast_to(expanded, self.data.shape).copy(), fresh=True)

        return self._make_child(data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else np.prod(
            [self.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            max_vals = data
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis=axis)
                max_vals = np.expand_dims(data, axis=axis)
            mask = (self.data == max_vals).astype(self.data.dtype)
            # Split gradient equally between ties to keep backward deterministic.
            normaliser = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask / np.maximum(normaliser, 1.0) * expanded, fresh=True)

        return self._make_child(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return self._make_child(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        axes = tuple(ax + self.data.ndim if ax < 0 else ax for ax in axes)
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make_child(data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Exchange two axes (used for batched matrix transposes)."""
        axes = list(range(self.data.ndim))
        axis1 %= self.data.ndim
        axis2 %= self.data.ndim
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(tuple(axes))

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full, fresh=True)

        return self._make_child(data, (self,), backward)

    def unbind(self, axis: int = 0) -> list["Tensor"]:
        """Slice off every index of ``axis`` (the axis is dropped).

        The pieces are plain views with the axis removed, so unbinding a
        packed ``(3, ..., rows, head_dim)`` QKV stack costs no data movement
        in the forward pass.  The backward is cheap too: each piece's
        gradient is written straight into the owning slice of the parent's
        gradient buffer (one full-size zero allocation in total, instead of
        one per piece as indexing would materialise).
        """
        axis = axis % self.data.ndim
        pieces: list[Tensor] = []
        for position in range(self.data.shape[axis]):
            index = (slice(None),) * axis + (position,)

            def backward(grad: np.ndarray, index=index) -> None:
                if self.requires_grad:
                    self._owned_grad()[index] += grad

            pieces.append(self._make_child(self.data[index], (self,), backward))
        return pieces

    # ------------------------------------------------------------------ #
    # Element-wise non-linearities
    # ------------------------------------------------------------------ #
    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > 0.0), fresh=True)

        return self._make_child(data, (self,), backward)

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data, fresh=True)

        return self._make_child(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, fresh=True)

        return self._make_child(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - data**2), fresh=True)

        return self._make_child(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data * (1.0 - data), fresh=True)

        return self._make_child(data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        data = softmax_array(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            # d softmax_i / d x_j = softmax_i (delta_ij - softmax_j)
            dot = (grad * data).sum(axis=axis, keepdims=True)
            self._accumulate(data * (grad - dot), fresh=True)

        return self._make_child(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Combination helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        boundaries = np.cumsum(sizes)[:-1]

        def backward(grad: np.ndarray) -> None:
            pieces = np.split(grad, boundaries, axis=axis)
            for tensor, piece in zip(tensors, pieces):
                tensor._accumulate(piece)

        anchor = tensors[0]
        return anchor._make_child(data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)
        lead = (slice(None),) * (axis % data.ndim)

        def backward(grad: np.ndarray) -> None:
            # Each input receives its own slice (a view) of the gradient.
            for position, tensor in enumerate(tensors):
                tensor._accumulate(grad[lead + (position,)])

        anchor = tensors[0]
        return anchor._make_child(data, tuple(tensors), backward)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a tensor equal to ``self`` where ``mask`` is False and ``value`` elsewhere."""
        mask = np.asarray(mask, dtype=bool)
        data = np.where(mask, value, self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.where(mask, 0.0, grad), fresh=True)

        return self._make_child(data, (self,), backward)
