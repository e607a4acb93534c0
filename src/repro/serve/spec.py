"""Declarative serving specifications (dataclass ⇄ JSON dict).

A :class:`ServeSpec` describes one server process: the TCP endpoint plus one
:class:`TenantSpec` per hosted tenant — a (dataset, policy) pair with its own
runner configuration, mirroring the offline :class:`repro.api.spec
.ExperimentSpec` building blocks so a serving tenant is configured with
exactly the vocabulary an offline experiment already uses.  The JSON shape::

    {
      "name": "serve-ci",
      "host": "127.0.0.1",
      "port": 7601,
      "tenants": [
        {
          "name": "alpha",
          "dataset": {"scale": 0.03, "num_months": 2, "seed": 1},
          "runner": {"seed": 0, "checkpoint_every": 25},
          "policy": {"policy": "ddqn-worker", "kwargs": {"hidden_dim": 16}}
        }
      ]
    }

Two optional top-level sections harden the endpoint: ``"limits"``
(:class:`~repro.serve.protocol.ProtocolLimits` — max frame size, per-request
deadline, queue-depth backpressure, trainer-lag degradation threshold) and
``"supervisor"`` (:class:`SupervisorSpec` — how many times a failed tenant
is restarted from its last checkpoint, and the exponential backoff between
attempts).  Both default sensibly when omitted.

Every section reads and writes JSON through the spec codec
(:class:`repro.api.spec.JsonSpec`): unknown keys at any depth raise
``unknown <section> keys``, and ``to_dict`` writes every field.  On top of
that, tenant names must be unique filesystem-safe slugs (they become
checkpoint file stems), and every policy name is validated against the
registry before any dataset is generated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..api.registry import policy_entry
from ..api.spec import DatasetSpec, JsonSpec, PolicySpec
from ..eval.runner import RunnerConfig
from .protocol import ProtocolLimits

__all__ = ["SupervisorSpec", "TenantSpec", "ServeSpec"]

#: Tenant names become checkpoint file stems (``<state_dir>/<name>.npz``), so
#: they are restricted to the registry's slug alphabet.
_TENANT_NAME = re.compile(r"[a-z0-9][a-z0-9_-]*")


@dataclass
class SupervisorSpec(JsonSpec):
    """Restart policy for failed tenants (spec section ``"supervisor"``).

    A tenant that raises out of its replica loop is restarted in-process from
    its last periodic checkpoint at most ``max_restarts`` times over its
    lifetime, with exponential backoff ``backoff_base_s · 2^restarts`` capped
    at ``backoff_max_s`` before each attempt.  Once the budget is spent the
    tenant stays ``failed`` and its requests answer ``tenant_failed``.
    """

    what = "supervisor"

    max_restarts: int = 3
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.backoff_max_s < self.backoff_base_s:
            raise ValueError(
                f"backoff_max_s ({self.backoff_max_s}) must be >= "
                f"backoff_base_s ({self.backoff_base_s})"
            )

    def backoff_s(self, restarts: int) -> float:
        """The sleep before restart attempt ``restarts + 1``."""
        return min(self.backoff_base_s * (2.0**restarts), self.backoff_max_s)


@dataclass
class TenantSpec(JsonSpec):
    """One hosted tenant: a named (dataset, runner, policy) triple."""

    what = "tenant spec"

    name: str
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    runner: RunnerConfig = field(default_factory=RunnerConfig)
    policy: PolicySpec = field(default_factory=lambda: PolicySpec(policy="random"))

    @classmethod
    def from_dict(cls, data: dict) -> "TenantSpec":
        spec = super().from_dict(data)
        if not isinstance(spec.name, str) or not _TENANT_NAME.fullmatch(spec.name):
            raise ValueError(
                f"tenant name {spec.name!r} must be a lowercase slug "
                "(letters, digits, '-' and '_', starting with a letter or digit)"
            )
        if "policy" not in data:
            raise ValueError(f"tenant {spec.name!r} is missing its 'policy' section")
        return spec


@dataclass
class ServeSpec(JsonSpec):
    """A full server: TCP endpoint + tenant line-up.

    ``shards > 1`` asks ``repro serve`` to scale the endpoint out across
    that many worker *processes*: a thin front-end at (host, port) routes by
    tenant name while each worker hosts a deterministic round-robin
    partition of the tenants on its own event loop (see
    :mod:`repro.serve.shard`).  The partition, checkpoint layout and
    schedule-aligned checkpoint phases all derive from the spec's global
    tenant order, so a sharded deployment drains bit-identical state to a
    single-process one fed the same events.
    """

    what = "serve spec"

    name: str = "serve"
    host: str = "127.0.0.1"
    port: int = 7600
    tenants: list[TenantSpec] = field(default_factory=list)
    limits: ProtocolLimits = field(default_factory=ProtocolLimits)
    supervisor: SupervisorSpec = field(default_factory=SupervisorSpec)
    shards: int = 1

    @classmethod
    def from_dict(cls, data: dict) -> "ServeSpec":
        spec = super().from_dict(data)
        if not spec.tenants:
            raise ValueError(f"serve spec {spec.name!r} lists no tenants")
        if not (0 <= spec.port <= 65535):
            raise ValueError(f"port must be in [0, 65535], got {spec.port}")
        if spec.shards < 1:
            raise ValueError(f"shards must be >= 1, got {spec.shards}")
        seen: set[str] = set()
        for tenant in spec.tenants:
            if tenant.name in seen:
                raise ValueError(
                    f"serve spec {spec.name!r} lists tenant {tenant.name!r} twice; "
                    "tenant names must be unique"
                )
            seen.add(tenant.name)
            # Fail fast on typo'd policy names before any dataset generation.
            policy_entry(tenant.policy.policy)
        return spec
