"""BLAS thread-count control for the big GEMMs, and the heap policy.

numpy's matmul dispatches to the BLAS bundled with the wheel (OpenBLAS in the
``numpy.libs`` vendored build); its thread pool size decides whether the
padded ``(B, rows, dim)`` forwards of the fused engine run single-threaded or
fan out.  The substrate has no deep-learning dependency and ``threadpoolctl``
may not be installed, so this module talks to the BLAS runtime directly via
:mod:`ctypes`, degrading to an informative no-op when no known symbol is
found (e.g. a numpy linked against an unknown BLAS).

Use :func:`set_num_threads` / :func:`num_threads` for a process-wide setting
(the ``REPRO_NUM_THREADS`` environment variable applies one at import time)
and the :func:`blas_threads` context manager to scope a setting to one block
— the benchmarks record the active setting in their environment blocks via
:func:`thread_info`.

The same ctypes route sets the one heap policy the train step needs.  A
learn-shape step allocates tens of megabytes of temporaries and frees them
all; by default glibc hands that memory back to the kernel after every step,
and the next step faults it back in as zero-filled pages (about half of a
hidden-64 train step was kernel time).  At import, :func:`_apply_heap_pad`
asks glibc to keep :data:`HEAP_TOP_PAD` bytes of slack at the top of every
malloc arena instead, so steady-state steps reuse their memory.  The pad is
a fixed constant with no override, and a no-op (recorded as ``None``) where
``mallopt`` is unavailable.  Setting it also freezes glibc's adaptive mmap
threshold where import left it, so a large temporary that finds no free
chunk big enough (a fragmented heap, or a step that outgrows the pad) is
still mapped, and faulted, afresh.
"""

from __future__ import annotations

import ctypes
import os
import platform
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = [
    "set_num_threads",
    "num_threads",
    "blas_threads",
    "thread_info",
    "max_threads",
    "budgeted_workers",
    "shard_blas_threads",
]

#: Environment variable applied once at import (see :func:`_apply_env`).
ENV_VAR = "REPRO_NUM_THREADS"

#: Overrides the machine-wide thread budget used by :func:`budgeted_workers`
#: (defaults to ``os.cpu_count()``).  The scale-out layer multiplies worker
#: counts — serve shards × replica threads × BLAS threads — and clamps the
#: product to this budget so composed parallelism never oversubscribes.
BUDGET_ENV_VAR = "REPRO_MAX_THREADS"

#: (set, get) symbol-name pairs of the BLAS runtimes numpy is known to bundle.
#: The scipy-openblas wheels mangle the usual ``openblas_*`` entry points.
_SYMBOL_PAIRS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

#: Bytes of free memory each glibc malloc arena keeps at its top instead of
#: returning it to the kernel (``mallopt(M_TOP_PAD, ...)``).
HEAP_TOP_PAD = 64 << 20

#: glibc's ``M_TOP_PAD`` parameter number (``malloc.h``).
_M_TOP_PAD = -2

_RESOLVED: tuple | None = None
_PROBED = False


def _candidate_libraries() -> list[Path]:
    """BLAS shared objects vendored next to the running numpy."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    if not libs_dir.is_dir():
        return []
    return sorted(
        path
        for path in libs_dir.iterdir()
        if "blas" in path.name.lower() and ".so" in path.name.lower()
    )


def _resolve() -> tuple | None:
    """Locate (set_fn, get_fn) in numpy's BLAS, once; None when unavailable."""
    global _RESOLVED, _PROBED
    if _PROBED:
        return _RESOLVED
    _PROBED = True
    for path in _candidate_libraries():
        try:
            library = ctypes.CDLL(str(path))
        except OSError:  # pragma: no cover - unreadable vendored library
            continue
        for set_name, get_name in _SYMBOL_PAIRS:
            set_fn = getattr(library, set_name, None)
            get_fn = getattr(library, get_name, None)
            if set_fn is None or get_fn is None:
                continue
            set_fn.argtypes = [ctypes.c_int]
            set_fn.restype = None
            get_fn.argtypes = []
            get_fn.restype = ctypes.c_int
            _RESOLVED = (set_fn, get_fn)
            return _RESOLVED
    return None


def set_num_threads(count: int) -> bool:
    """Set the BLAS thread-pool size; returns False when BLAS is uncontrollable."""
    if count <= 0:
        raise ValueError("thread count must be positive")
    resolved = _resolve()
    if resolved is None:
        return False
    resolved[0](int(count))
    return True


def num_threads() -> int | None:
    """Current BLAS thread-pool size, or None when BLAS is uncontrollable."""
    resolved = _resolve()
    if resolved is None:
        return None
    return int(resolved[1]())


@contextmanager
def blas_threads(count: int):
    """Run a block under ``count`` BLAS threads, restoring the previous setting.

    Yields the previous thread count (None when the BLAS runtime could not be
    controlled, in which case the block runs unchanged).
    """
    previous = num_threads()
    if previous is not None:
        set_num_threads(count)
    try:
        yield previous
    finally:
        if previous is not None:
            set_num_threads(previous)


def thread_info() -> dict:
    """What the benchmarks record: BLAS controllability and setting, heap pad.

    ``heap_top_pad`` is the glibc top pad in bytes applied at import, or
    None when the process runs without it.
    """
    return {
        "controllable": _resolve() is not None,
        "blas_threads": num_threads(),
        "env": os.environ.get(ENV_VAR),
        "cpu_count": os.cpu_count(),
        "heap_top_pad": _HEAP_TOP_PAD_APPLIED,
    }


def max_threads() -> int:
    """The machine-wide thread budget the scale-out knobs share.

    ``REPRO_MAX_THREADS`` (a positive integer) overrides; otherwise
    ``os.cpu_count()`` (at least 1).  Invalid override values are ignored,
    matching :func:`_apply_env`'s lenient treatment of ``REPRO_NUM_THREADS``.
    """
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw:
        try:
            count = int(raw)
        except ValueError:
            count = 0
        if count > 0:
            return count
    return os.cpu_count() or 1


def budgeted_workers(requested: int, concurrent: int = 1, label: str = "workers") -> int:
    """Clamp a worker count so composed parallelism respects the thread budget.

    ``requested`` workers each running alongside ``concurrent - 1`` sibling
    units (e.g. replica threads × BLAS threads per thread, or shards × BLAS
    threads per shard) would occupy ``requested × concurrent`` cores.  When
    that product exceeds :func:`max_threads` the request is clamped with a
    warning — oversubscription turns BLAS fan-out into scheduler thrash —
    but never below 1.
    """
    if requested < 1:
        raise ValueError(f"{label} must be >= 1, got {requested}")
    if concurrent < 1:
        raise ValueError(f"concurrent units must be >= 1, got {concurrent}")
    budget = max_threads()
    if requested * concurrent <= budget:
        return requested
    allowed = max(1, budget // concurrent)
    warnings.warn(
        f"requested {requested} {label} x {concurrent} concurrent thread(s) "
        f"exceeds the thread budget of {budget} "
        f"(os.cpu_count / {BUDGET_ENV_VAR}); clamping to {allowed}",
        RuntimeWarning,
        stacklevel=2,
    )
    return allowed


def shard_blas_threads(shards: int) -> int:
    """BLAS threads each of ``shards`` concurrent processes may use.

    The sharded serve front-end exports this as ``REPRO_NUM_THREADS`` for its
    worker processes so ``shards × blas_threads`` stays within the budget.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return max(1, max_threads() // shards)


def _apply_env() -> None:
    """Honour ``REPRO_NUM_THREADS`` once at import (invalid values ignored)."""
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return
    try:
        count = int(raw)
    except ValueError:
        return
    if count > 0:
        set_num_threads(count)


def _apply_heap_pad() -> int | None:
    """Set glibc's top pad to :data:`HEAP_TOP_PAD`; the bytes applied, or None."""
    if platform.libc_ver()[0] != "glibc":
        return None
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # pragma: no cover - stripped libc
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return HEAP_TOP_PAD if mallopt(_M_TOP_PAD, HEAP_TOP_PAD) == 1 else None


_apply_env()
#: The top pad applied at import (what :func:`thread_info` reports).
_HEAP_TOP_PAD_APPLIED = _apply_heap_pad()
