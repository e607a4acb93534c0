"""Declarative experiment specifications (dataclass ⇄ JSON dict).

An :class:`ExperimentSpec` captures one complete head-to-head run — which
trace to generate, how the simulation runner is configured, and which
registered policies to evaluate with which kwargs — as plain data that
round-trips through JSON.  :func:`run_spec` executes it and returns one
:class:`repro.eval.metrics.EvaluationResult` per policy, which is the single
execution path shared by ``repro.eval.experiments``, the ``examples/``
scripts and the ``python -m repro`` CLI.

This module also holds the spec codec every spec type uses (experiment,
sweep, serve, limits, supervisor and fault-plan documents): :class:`JsonSpec`
supplies ``to_dict``/``from_dict``/``to_json``/``from_json``/``save``/``load``.
Decoding is :func:`decode`: unknown keys raise ``unknown <what> keys``, a
nested section decodes through its own class (so that class's checks run at
any depth), ``int``/``float`` fields are coerced, and everything else reaches
the dataclass's own validation.  Encoding writes every field, ``null`` for
unset optionals; documents that leave optional fields out decode to the same
objects.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Iterator, get_args, get_origin, get_type_hints

from ..datasets import CrowdDataset, cached_crowdspring, generate_crowdspring
from ..eval.metrics import EvaluationResult
from ..eval.runner import RunnerConfig, SimulationRunner, VectorizedRunner
from ..nn.threads import blas_share, blas_threads
from .registry import build_policy, policy_entry

__all__ = ["JsonSpec", "DatasetSpec", "PolicySpec", "ExperimentSpec", "decode", "run_spec"]


@functools.cache
def _field_types(cls) -> dict:
    """Field name → decoding type (``X | None`` unwrapped), resolved once per class."""
    hints = get_type_hints(cls)
    types = {}
    for spec_field in fields(cls):
        hint = hints[spec_field.name]
        if type(None) in get_args(hint):
            hint = next(arg for arg in get_args(hint) if arg is not type(None))
        types[spec_field.name] = hint
    return types


def _decode_field(hint, name: str, value):
    """One field's JSON value: nested specs decode through their own class."""
    if get_origin(hint) is list and is_dataclass(get_args(hint)[0]):
        if not isinstance(value, list):
            raise ValueError(f"{name} section must be a JSON array")
        return [_decode_field(get_args(hint)[0], name, entry) for entry in value]
    if is_dataclass(hint):
        return hint.from_dict(value) if issubclass(hint, JsonSpec) else decode(hint, value, name)
    if hint in (int, float) and value is not None:
        return hint(value)
    return value


def decode(cls, data: dict, what: str):
    """Instantiate a dataclass from a JSON object, rejecting unknown keys loudly.

    Fields typed as a dataclass (or a list of one) decode through that
    class's own ``from_dict``, so its checks run at any depth; ``int`` and
    ``float`` fields are coerced; any other value reaches the dataclass's own
    validation.  ``what`` names the document in errors.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    types = _field_types(cls)
    unknown = set(data) - set(types)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)} (known: {sorted(types)})")
    try:
        return cls(**{key: _decode_field(types[key], key, value) for key, value in data.items()})
    except TypeError as error:
        raise ValueError(f"invalid {what}: {error}") from None


class JsonSpec:
    """Dataclass ⇄ JSON, written once for every spec type.

    ``to_dict`` writes every field; ``from_dict`` is :func:`decode`.  A
    subclass sets ``what`` (its name in errors) and overrides ``from_dict``
    only for checks that apply to parsed input.
    """

    what = "spec"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict):
        return decode(cls, data, cls.what)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path):
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no {cls.what} at {path}")
        return cls.from_json(path.read_text())


@dataclass
class DatasetSpec(JsonSpec):
    """Which CrowdSpring-like trace to generate (see ``generate_crowdspring``)."""

    what = "dataset spec"

    scale: float = 1.0
    num_months: int = 13
    seed: int = 7

    def build(
        self, cache_dir: str | Path | None = None, write_cache: bool = True
    ) -> CrowdDataset:
        """Generate the trace — or read it from an on-disk cache.

        With ``cache_dir`` set, the generated dataset is persisted once under
        a name derived from this spec's identity and every later build (in
        any process) loads the cached trace bit-identically instead of
        regenerating it.  ``write_cache=False`` makes a cache miss generate
        in memory without writing (read-only consumers, e.g. sweep workers).
        """
        if cache_dir is not None:
            return cached_crowdspring(
                self.scale, self.num_months, self.seed, cache_dir, write=write_cache
            )
        return generate_crowdspring(scale=self.scale, num_months=self.num_months, seed=self.seed)


@dataclass
class PolicySpec(JsonSpec):
    """One (registered policy name, builder kwargs) entry of an experiment."""

    what = "policy spec"

    policy: str
    kwargs: dict = field(default_factory=dict)
    #: Optional override for the result key (defaults to the built policy's
    #: display name); needed when one spec runs the same policy twice.
    label: str | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "PolicySpec":
        spec = super().from_dict(data)
        if not isinstance(spec.policy, str) or not spec.policy:
            raise ValueError("policy spec requires a non-empty 'policy' name")
        if not isinstance(spec.kwargs, dict):
            raise ValueError("policy 'kwargs' must be a JSON object")
        return spec


@dataclass
class ExperimentSpec(JsonSpec):
    """A full experiment: dataset + runner configuration + policy line-up."""

    what = "experiment spec"

    name: str = "experiment"
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    runner: RunnerConfig = field(default_factory=RunnerConfig)
    policies: list[PolicySpec] = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        spec = super().from_dict(data)
        # Reject ambiguous line-ups at parse time: repeated labels, or the
        # same policy repeated without distinguishing labels, would collide
        # in the results dict (the old behaviour silently kept the last
        # one).  Labels and bare policy names are checked separately — an
        # unlabeled entry's runtime key is its *display* name, which is only
        # known once the policy is built, so run_spec keeps the authoritative
        # duplicate-label check.
        labels: set[str] = set()
        unlabeled: set[str] = set()
        for policy_spec in spec.policies:
            pool = unlabeled if policy_spec.label is None else labels
            key = policy_spec.label if policy_spec.label is not None else policy_spec.policy
            if key in pool:
                raise ValueError(
                    f"spec {spec.name!r} lists policy {key!r} more than once; "
                    "set a distinct PolicySpec.label on repeated policies"
                )
            pool.add(key)
        return spec


#: Characters unsafe in filenames derived from labels / axis values (shared
#: with the sweep layer so checkpoint slugs and cell ids never diverge).
_UNSAFE_COMPONENT = re.compile(r"[^A-Za-z0-9._=-]+")


def _label_slug(label: str) -> str:
    """Filesystem-safe file stem for a result label."""
    slug = _UNSAFE_COMPONENT.sub("-", label).strip("-.")
    return slug or "policy"


def _checkpoint_path(
    spec: ExperimentSpec,
    label: str,
    checkpoint_dir: str | Path | None,
    checkpoint_slugs: dict[str, str],
) -> Path | None:
    """Per-label checkpoint file, refusing slug collisions loudly."""
    if checkpoint_dir is None:
        return None
    slug = _label_slug(label)
    if slug in checkpoint_slugs:
        raise ValueError(
            f"labels {checkpoint_slugs[slug]!r} and {label!r} in spec "
            f"{spec.name!r} both checkpoint to {slug}.npz; relabel one "
            "so their checkpoints cannot overwrite each other"
        )
    checkpoint_slugs[slug] = label
    return Path(checkpoint_dir) / f"{slug}.npz"


def _policy_jobs(
    spec: ExperimentSpec,
    dataset: CrowdDataset,
    checkpoint_dir: str | Path | None,
) -> Iterator[tuple[str, object, Path | None]]:
    """Build each policy's ``(label, policy, checkpoint path)``, one at a time.

    Lazy, so a consumer that runs each policy before asking for the next
    holds one trained framework at a time.  Raises on a repeated label.
    """
    labels: set[str] = set()
    checkpoint_slugs: dict[str, str] = {}
    for policy_spec in spec.policies:
        policy = build_policy(policy_spec.policy, dataset, **policy_spec.kwargs)
        label = policy_spec.label if policy_spec.label is not None else policy.name
        if label in labels:
            raise ValueError(
                f"duplicate result label {label!r} in spec {spec.name!r}; "
                "set PolicySpec.label to disambiguate repeated policies"
            )
        labels.add(label)
        yield label, policy, _checkpoint_path(spec, label, checkpoint_dir, checkpoint_slugs)


def run_spec(
    spec: ExperimentSpec,
    dataset: CrowdDataset | None = None,
    checkpoint_dir: str | Path | None = None,
    dataset_cache_dir: str | Path | None = None,
    vectorize: int | None = None,
    resume: bool = False,
    cell_threads: int | None = None,
) -> dict[str, EvaluationResult]:
    """Execute a spec and return the results keyed by policy label.

    ``dataset`` overrides the spec's generated trace (used when several specs
    share one dataset, or when a synthetic variant was derived from it).

    ``checkpoint_dir`` enables the runner's periodic auto-checkpointing (when
    ``spec.runner.checkpoint_every`` is set): every checkpointable policy
    writes ``<checkpoint_dir>/<label>.npz``, overwritten in place as training
    progresses, so an interrupted run leaves its latest state restorable via
    the ``ddqn-checkpoint`` registry entry.  With ``resume=True`` an existing
    ``<label>.runstate.npz`` sidecar additionally fast-forwards that policy's
    run to the checkpointed arrival instead of redoing finished work.

    ``dataset_cache_dir`` points at a read-only trace cache (see
    :meth:`DatasetSpec.build`); the sweep runner passes the cache it
    pre-populated so worker processes skip trace regeneration.

    ``vectorize`` runs the spec's policies through the episode-vectorized
    platform in lockstep groups of up to that many replicas instead of one
    after another: the DDQN replicas' candidate scorings and train steps are
    fused across replicas (see :class:`repro.eval.VectorizedRunner`) while
    every result stays float-for-float identical to the serial run.  Note
    that a lockstep group keeps all of its policies in memory at once.

    ``cell_threads`` runs the (non-vectorized) policies on a thread pool of
    that size instead of one after another: the policies share nothing (each
    run works on its own entity copies and its own RNGs) and numpy releases
    the GIL inside BLAS, so the results are float-identical to the serial
    order while independent simulations overlap.  While the pool runs, BLAS
    gets :func:`repro.nn.threads.blas_share` threads, so pool threads × BLAS
    threads stays within the thread budget.  Ignored when ``vectorize`` is
    active (the lockstep path has its own fusion).
    """
    if not spec.policies:
        raise ValueError(f"experiment spec {spec.name!r} lists no policies")
    if vectorize is not None and vectorize < 1:
        raise ValueError(f"vectorize must be >= 1 or None, got {vectorize}")
    if cell_threads is not None and cell_threads < 1:
        raise ValueError(f"cell_threads must be >= 1 or None, got {cell_threads}")
    # Fail fast on typo'd policy names before any (possibly hours-long)
    # simulation starts.
    for policy_spec in spec.policies:
        policy_entry(policy_spec.policy)
    if dataset is None:
        dataset = spec.dataset.build(cache_dir=dataset_cache_dir, write_cache=False)

    jobs = _policy_jobs(spec, dataset, checkpoint_dir)
    width = 1 if vectorize is None else vectorize
    if width > 1:
        # One lockstep chunk at a time: at most ``width`` trained frameworks
        # are resident at once.
        results: dict[str, EvaluationResult] = {}
        while chunk := list(itertools.islice(jobs, width)):
            replicas = [(dataset, policy, path) for _, policy, path in chunk]
            chunk_results = VectorizedRunner(replicas, spec.runner, resume=resume).run()
            results.update(zip([label for label, _, _ in chunk], chunk_results))
        return results

    runner = SimulationRunner(dataset, spec.runner)
    threads = min(cell_threads or 1, len(spec.policies))
    if threads > 1:
        # Build every policy first, so a bad label fails before any run starts.
        items = list(jobs)
        with blas_threads(blas_share(threads)), ThreadPoolExecutor(threads) as pool:
            futures = [
                pool.submit(runner.run, policy, checkpoint_path=path, resume=resume)
                for _, policy, path in items
            ]
            return {label: future.result() for (label, _, _), future in zip(items, futures)}
    return {
        label: runner.run(policy, checkpoint_path=path, resume=resume)
        for label, policy, path in jobs
    }
