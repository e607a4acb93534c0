"""State representation (Sec. IV-B / V-B): the State Transformer.

A state is the pair (arriving worker, set of available tasks).  The State
Transformer concatenates the worker feature to every task feature, producing
one row per available task; MDP(r) states additionally carry the worker
quality and each task's current quality.  Rows can be zero-padded up to a
fixed ``max_tasks`` with an accompanying mask, as in the paper, or left at
their natural size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..crowd.features import FeatureSchema

__all__ = [
    "StateMatrix",
    "StateTransformer",
    "distinct_states",
    "pack_state_matrices",
    "unpack_state_matrices",
]


@dataclass
class StateMatrix:
    """The network-ready representation of one state.

    Attributes
    ----------
    matrix:
        Array of shape ``(rows, row_dim)``; row ``i`` is the concatenation of
        task ``i``'s features with the worker features (and qualities for
        MDP(r)).  Padded rows are all-zero.
    mask:
        Boolean array of shape ``(rows,)``; ``True`` marks padding rows that
        the Q-network must ignore.
    task_ids:
        Task ids aligned with the non-padded rows.
    """

    matrix: np.ndarray
    mask: np.ndarray
    task_ids: list[int]

    @property
    def num_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def row_dim(self) -> int:
        return int(self.matrix.shape[1])

    def without_tasks(self, removed_task_ids: set[int]) -> "StateMatrix":
        """Return a new state with the given tasks removed (used for expiries).

        The row count is preserved — removed tasks become zero padding rows —
        so every future-state branch derived from one decision state keeps
        that state's shape.  Uniform shapes are what allows the batched
        target computation (and the episode-vectorized platform) to push all
        branches through one padded forward without re-padding.
        """
        keep = [i for i, task_id in enumerate(self.task_ids) if task_id not in removed_task_ids]
        matrix = np.zeros_like(self.matrix)
        if keep:
            matrix[: len(keep)] = self.matrix[: self.num_tasks][keep]
        mask = np.ones(matrix.shape[0], dtype=bool)
        mask[: len(keep)] = False
        return StateMatrix(matrix=matrix, mask=mask, task_ids=[self.task_ids[i] for i in keep])


def distinct_states(states: list[StateMatrix]) -> tuple[list[StateMatrix], np.ndarray]:
    """The distinct objects among ``states``, in first-seen order, and where each entry went.

    Returns ``(unique, inverse)`` with ``states[i] is unique[inverse[i]]``.
    The key is object identity, not value: the framework stores every
    transition of one feedback (the completed task plus up to
    ``max_failed_transitions`` skipped ones) over one ``state`` object and
    one ``future_states`` list, so a replay batch repeats those objects, and
    scoring each distinct one once gives the same values for less work.
    """
    slots: dict[int, int] = {}
    unique: list[StateMatrix] = []
    inverse = np.empty(len(states), dtype=np.int64)
    for i, state in enumerate(states):
        slot = slots.setdefault(id(state), len(unique))
        if slot == len(unique):
            unique.append(state)
        inverse[i] = slot
    return unique, inverse


def pack_state_matrices(states: list[StateMatrix]) -> dict[str, np.ndarray]:
    """Encode a list of (ragged) :class:`StateMatrix` as dense arrays.

    Used by the replay-memory checkpointing: matrices and masks are
    concatenated along the row axis with per-state row counts, so states of
    different sizes round-trip through one ``.npz`` without pickling.
    """
    rows = np.array([state.matrix.shape[0] for state in states], dtype=np.int64)
    row_dim = states[0].matrix.shape[1] if states else 0
    matrix = (
        np.concatenate([state.matrix for state in states], axis=0)
        if states
        else np.zeros((0, 0), dtype=np.float64)
    )
    mask = (
        np.concatenate([state.mask for state in states])
        if states
        else np.zeros(0, dtype=bool)
    )
    num_tasks = np.array([state.num_tasks for state in states], dtype=np.int64)
    task_ids = np.array(
        [task_id for state in states for task_id in state.task_ids], dtype=np.int64
    )
    return {
        "rows": rows,
        "row_dim": np.array(row_dim, dtype=np.int64),
        "matrix": matrix,
        "mask": mask,
        "num_tasks": num_tasks,
        "task_ids": task_ids,
    }


def unpack_state_matrices(packed: dict[str, np.ndarray]) -> list[StateMatrix]:
    """Inverse of :func:`pack_state_matrices`."""
    rows = np.asarray(packed["rows"], dtype=np.int64)
    row_dim = int(packed["row_dim"])
    matrix = np.asarray(packed["matrix"], dtype=np.float64).reshape(-1, max(row_dim, 1))
    mask = np.asarray(packed["mask"], dtype=bool)
    num_tasks = np.asarray(packed["num_tasks"], dtype=np.int64)
    task_ids = np.asarray(packed["task_ids"], dtype=np.int64)
    states: list[StateMatrix] = []
    row_offset = 0
    id_offset = 0
    for i in range(rows.size):
        count = int(rows[i])
        n = int(num_tasks[i])
        states.append(
            StateMatrix(
                matrix=matrix[row_offset : row_offset + count, :row_dim].copy(),
                mask=mask[row_offset : row_offset + count].copy(),
                task_ids=[int(t) for t in task_ids[id_offset : id_offset + n]],
            )
        )
        row_offset += count
        id_offset += n
    return states


class StateTransformer:
    """Builds :class:`StateMatrix` objects for MDP(w) and MDP(r) states.

    Parameters
    ----------
    schema:
        Feature schema defining task/worker feature dimensions.
    include_quality:
        When True (MDP(r)), two extra columns carry the worker quality and the
        task quality.
    max_tasks:
        Fixed number of rows.  Extra tasks are truncated (keeping the first
        ``max_tasks`` by the provided order); missing rows are zero-padded.
        ``None`` disables padding and uses exactly one row per task.
    interaction:
        When True (default) each row additionally carries the element-wise
        product ``task_feature ⊙ worker_feature``.  The paper feeds the raw
        concatenation to a GPU-trained network; at the CPU scale of this
        reproduction the explicit interaction block is what lets the small
        Q-network learn the worker-task affinity from far fewer samples (the
        same block is given to the LinUCB and Greedy NN baselines, so the
        comparison remains fair).  See EXPERIMENTS.md, "deviations".
    """

    def __init__(
        self,
        schema: FeatureSchema,
        include_quality: bool = False,
        max_tasks: int | None = None,
        interaction: bool = True,
    ) -> None:
        if max_tasks is not None and max_tasks <= 0:
            raise ValueError(f"max_tasks must be positive or None, got {max_tasks}")
        self.schema = schema
        self.include_quality = include_quality
        self.max_tasks = max_tasks
        self.interaction = interaction

    @property
    def row_dim(self) -> int:
        """Dimensionality of one row of the state matrix."""
        base = self.schema.task_dim + self.schema.worker_dim
        if self.interaction:
            base += self.schema.task_dim
        return base + 2 if self.include_quality else base

    def transform(
        self,
        worker_feature: np.ndarray,
        task_features: np.ndarray,
        task_ids: list[int],
        worker_quality: float | None = None,
        task_qualities: np.ndarray | None = None,
    ) -> StateMatrix:
        """Build the state matrix for one (worker, available tasks) pair."""
        worker_feature = np.asarray(worker_feature, dtype=np.float64)
        task_features = np.asarray(task_features, dtype=np.float64)
        if worker_feature.shape != (self.schema.worker_dim,):
            raise ValueError(
                f"worker feature has shape {worker_feature.shape}, "
                f"expected ({self.schema.worker_dim},)"
            )
        if task_features.ndim != 2 or task_features.shape[1] != self.schema.task_dim:
            raise ValueError(
                f"task features have shape {task_features.shape}, "
                f"expected (n, {self.schema.task_dim})"
            )
        if len(task_ids) != task_features.shape[0]:
            raise ValueError("task_ids and task_features must have matching lengths")
        if self.include_quality:
            if worker_quality is None or task_qualities is None:
                raise ValueError("MDP(r) states require worker_quality and task_qualities")
            task_qualities = np.asarray(task_qualities, dtype=np.float64)
            if task_qualities.shape[0] != task_features.shape[0]:
                raise ValueError("task_qualities must align with task_features")

        num_tasks = task_features.shape[0]
        if self.max_tasks is not None and num_tasks > self.max_tasks:
            num_tasks = self.max_tasks
            task_features = task_features[: self.max_tasks]
            task_ids = list(task_ids[: self.max_tasks])
            if task_qualities is not None:
                task_qualities = task_qualities[: self.max_tasks]
        else:
            task_ids = list(task_ids)

        rows = self.max_tasks if self.max_tasks is not None else num_tasks
        matrix = np.zeros((rows, self.row_dim), dtype=np.float64)
        mask = np.ones(rows, dtype=bool)
        if num_tasks:
            tiled_worker = np.tile(worker_feature, (num_tasks, 1))
            block = [task_features, tiled_worker]
            if self.interaction:
                block.append(task_features * tiled_worker[:, : self.schema.task_dim])
            if self.include_quality:
                block.append(np.full((num_tasks, 1), float(worker_quality)))
                block.append(task_qualities.reshape(-1, 1))
            matrix[:num_tasks] = np.concatenate(block, axis=1)
            mask[:num_tasks] = False
        return StateMatrix(matrix=matrix, mask=mask, task_ids=task_ids)

    def replace_worker_feature(self, state: StateMatrix, worker_feature: np.ndarray) -> StateMatrix:
        """Return a copy of ``state`` with the worker-feature block replaced.

        Future-state predictors use this to update the worker feature (after a
        completion, or to the expected next worker) without rebuilding task
        features.
        """
        worker_feature = np.asarray(worker_feature, dtype=np.float64)
        if worker_feature.shape != (self.schema.worker_dim,):
            raise ValueError("worker feature dimension mismatch")
        matrix = state.matrix.copy()
        start = self.schema.task_dim
        end = start + self.schema.worker_dim
        matrix[: state.num_tasks, start:end] = worker_feature
        if self.interaction:
            task_block = matrix[: state.num_tasks, : self.schema.task_dim]
            interaction_start = end
            interaction_end = end + self.schema.task_dim
            matrix[: state.num_tasks, interaction_start:interaction_end] = (
                task_block * worker_feature[: self.schema.task_dim]
            )
        return StateMatrix(matrix=matrix, mask=state.mask.copy(), task_ids=list(state.task_ids))

    def replace_task_quality(
        self, state: StateMatrix, task_id: int, new_quality: float
    ) -> StateMatrix:
        """Return a copy of ``state`` with one task's quality column updated (MDP(r))."""
        if not self.include_quality:
            raise ValueError("quality columns only exist for MDP(r) states")
        matrix = state.matrix.copy()
        if task_id in state.task_ids:
            row = state.task_ids.index(task_id)
            matrix[row, -1] = new_quality
        return StateMatrix(matrix=matrix, mask=state.mask.copy(), task_ids=list(state.task_ids))
