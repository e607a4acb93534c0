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

One thread budget, :func:`max_threads` (``REPRO_MAX_THREADS``, else the
CPUs this process may run on), is shared by every parallel axis: serve
shards, sweep worker processes and ``run_spec``'s cell threads each give
their units :func:`blas_share` BLAS threads apiece, so units × BLAS threads
stays within the budget.

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
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = [
    "set_num_threads",
    "num_threads",
    "blas_threads",
    "thread_info",
    "max_threads",
    "blas_share",
]

#: Environment variable applied once at import (see :func:`_apply_env`).
ENV_VAR = "REPRO_NUM_THREADS"

#: Overrides the thread budget :func:`max_threads` reports (defaults to the
#: process's CPU affinity mask), which :func:`blas_share` splits across the
#: concurrent units of a parallel axis.
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
    """What the benchmarks record: BLAS controllability and setting, budget, heap pad.

    ``budget`` is the :func:`max_threads` budget the run was granted;
    ``heap_top_pad`` is the glibc top pad in bytes applied at import, or
    None when the process runs without it.
    """
    return {
        "controllable": _resolve() is not None,
        "blas_threads": num_threads(),
        "env": os.environ.get(ENV_VAR),
        "cpu_count": os.cpu_count(),
        "budget": max_threads(),
        "heap_top_pad": _HEAP_TOP_PAD_APPLIED,
    }


def _env_count(name: str) -> int | None:
    """A positive integer environment setting, or None when unset or invalid."""
    try:
        count = int(os.environ.get(name, ""))
    except ValueError:
        return None
    return count if count > 0 else None


def max_threads() -> int:
    """The thread budget every parallel axis shares.

    ``REPRO_MAX_THREADS`` (a positive integer) overrides; otherwise the
    number of CPUs in this process's affinity mask where the platform
    reports one, else ``os.cpu_count()`` (at least 1).  Invalid override
    values are ignored, matching :func:`_apply_env`'s lenient treatment of
    ``REPRO_NUM_THREADS``.
    """
    budget = _env_count(BUDGET_ENV_VAR)
    if budget is not None:
        return budget
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def blas_share(units: int) -> int:
    """BLAS threads each of ``units`` concurrent workers may use.

    An explicitly set ``REPRO_NUM_THREADS`` wins; otherwise the budget is
    split evenly, ``max(1, max_threads() // units)``.
    """
    if units < 1:
        raise ValueError(f"units must be >= 1, got {units}")
    pinned = _env_count(ENV_VAR)
    return pinned if pinned is not None else max(1, max_threads() // units)


def _apply_env() -> None:
    """Honour ``REPRO_NUM_THREADS`` once at import (invalid values ignored)."""
    count = _env_count(ENV_VAR)
    if count is not None:
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
