"""Off-loop checkpoint writes for the serving layer.

The replica loop's ``_save_checkpoint`` builds the checkpoint trees inline
(they must snapshot the learner mid-stream), but serializing and fsyncing
them is pure I/O that used to run on the asyncio loop thread — every
periodic save stalled *all* tenants for the write's duration and showed up
as 60–200 ms round-trip spikes at the clients.  :class:`CheckpointOffloader`
is the ``checkpoint_writer`` the serving layer injects instead: it deep
copies the tree synchronously (the trees alias live optimiser buffers that
the very next feedback mutates in place, so the copy cannot be deferred)
and hands the write to a single worker thread.

One worker thread per offloader — i.e. per tenant — keeps writes for one
checkpoint path serialized and ordered, so the atomic tmp-then-``os.replace``
inside :func:`~repro.nn.serialization.save_checkpoint` retains its
crash-safety story unchanged.

Errors reach the owner through the ``on_result`` callback, which fires from
the worker thread as soon as each batch lands — ``on_result(None)`` on
success, ``on_result(error)`` on failure — so a failed write degrades the
tenant's health *promptly* instead of silently serving with a stale
checkpoint until the next save.

``fault_hook`` is the :mod:`repro.serve.faults` probe: called on the worker
thread before each batch is written, it raises when the fault plan schedules
a checkpoint I/O failure, exercising the exact error path a real ``OSError``
takes.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor, wait
from pathlib import Path
from typing import Callable

import numpy as np

from ..nn.serialization import save_checkpoint

__all__ = ["CheckpointOffloader"]


def _copy_tree(node, memo: dict | None = None):
    """Deep copy of a checkpoint tree: dicts, sequences, arrays, JSON scalars.

    ``memo`` (id → copy) lets one snapshot burst share subtrees: the run-state
    sidecar embeds the very policy tree that was just written as the policy
    checkpoint, and copying that subtree once instead of twice roughly halves
    the on-loop cost of a periodic save.
    """
    if isinstance(node, dict):
        if memo is not None:
            cached = memo.get(id(node))
            if cached is not None:
                return cached
        copied = {key: _copy_tree(value, memo) for key, value in node.items()}
        if memo is not None:
            memo[id(node)] = copied
        return copied
    if isinstance(node, np.ndarray):
        if memo is not None:
            cached = memo.get(id(node))
            if cached is not None:
                return cached
        copied = node.copy()
        if memo is not None:
            memo[id(node)] = copied
        return copied
    if isinstance(node, (list, tuple)):
        return [_copy_tree(value, memo) for value in node]
    return node


class CheckpointOffloader:
    """A drop-in ``checkpoint_writer`` that performs writes off-thread."""

    def __init__(
        self,
        on_result: Callable[[BaseException | None], None],
        fault_hook: Callable[[], None] | None = None,
    ) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="ckpt-offload"
        )
        self._pending: list[Future] = []
        self._on_result = on_result
        self._fault_hook = fault_hook
        self.writes = 0
        self.failures = 0

    def __call__(self, tree: dict, path: str | Path) -> None:
        self.write_many([(tree, path)])

    def write_many(self, items: list[tuple[dict, str | Path]]) -> None:
        """Snapshot and queue several trees as one batch, sharing subtree copies.

        All trees are snapshotted before the write is queued, so the batch is
        one consistent cut of the learner state; the memo is scoped to this
        call — identity says nothing about value across separate bursts.  The
        batch writes (or fails) as a unit, so the policy checkpoint and its
        run-state sidecar never land torn.
        """
        self._reap()
        memo: dict[int, object] = {}
        snapshots = [(_copy_tree(tree, memo), path) for tree, path in items]
        future = self._executor.submit(self._write_batch, snapshots)
        future.add_done_callback(self._notify)
        self._pending.append(future)
        self.writes += len(snapshots)

    def _write_batch(self, snapshots: list[tuple[dict, str | Path]]) -> None:
        if self._fault_hook is not None:
            self._fault_hook()
        for snapshot, path in snapshots:
            save_checkpoint(snapshot, path)

    def _notify(self, future: Future) -> None:
        """Worker-side completion callback: report each batch the moment it lands."""
        if future.cancelled():  # pragma: no cover - executor never cancels
            return
        error = future.exception()
        if error is not None:
            self.failures += 1
        self._on_result(error)

    def _reap(self) -> None:
        """Forget finished writes (``on_result`` already reported them)."""
        self._pending = [future for future in self._pending if not future.done()]

    def drain(self) -> None:
        """Block until every queued write has landed (failures were reported)."""
        pending, self._pending = self._pending, []
        wait(pending)

    def close(self) -> None:
        try:
            self.drain()
        finally:
            self._executor.shutdown(wait=True)

    def stats(self) -> dict:
        return {"writes": self.writes, "failures": self.failures, "pending": len(self._pending)}
