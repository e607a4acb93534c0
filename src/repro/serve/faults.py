"""Seeded, deterministic fault injection for the serving stack.

A :class:`FaultPlan` (JSON, ``repro serve --fault-plan plan.json``) describes
*where* and *when* the serving process should fail on purpose.  Every
injection site is a named probe the serving code calls on its normal path
(:meth:`FaultPlan.fire`); whether a visit to the site actually fires is
decided deterministically from the plan alone — per-spec visit counters plus
a per-spec ``random.Random`` seeded from the plan seed — so a chaos test or
CI job replays the *exact same* failure sequence on every run.

Sites (the ``"site"`` key of a fault spec):

``checkpoint_write``
    The offload worker raises while writing a checkpoint batch; the tenant
    degrades (stale checkpoint on disk) instead of crashing.
``tenant_loop``
    The tenant's replica loop raises at its *N*-th rank request; the tenant
    fails and the server's supervisor restarts it from the last checkpoint.
``trainer_thread``
    A poison plan is pushed through the tenant's trainer loop: an
    :class:`AsyncTrainer` worker thread dies consuming it (the error
    re-raises on the loop thread at the next handoff), a ``SyncTrainer``
    raises inline.  Either way the tenant fails and is supervised.
``conn_drop``
    The server closes the client connection instead of answering a frame.
``malformed_frame``
    The server treats the (decoded, matched) frame as undecodable garbage
    and answers the ``bad_request`` error the real parse failure produces,
    marked ``"injected": true`` so resilient clients retry.
``oversized_frame``
    Same, for the ``frame_too_large`` response of a frame past
    ``max_frame_bytes``.
``slow_frame``
    Dispatch of the frame is stalled by ``delay_ms`` *inside* the
    per-request deadline window — stalls longer than
    ``request_timeout_s`` surface as ``deadline_exceeded``.

Each spec gates its firings with ``after`` (first eligible visit, 1-based),
``every`` (visit stride while eligible), ``times`` (max firings, ``null`` =
unlimited) and optionally ``probability`` (a seeded coin per eligible
visit).  ``tenant`` / ``op`` restrict which visits tick the spec's counter
at all; scoping a spec to one tenant is what keeps its schedule
deterministic when several connections interleave.

Example plan::

    {
      "name": "faults-ci",
      "seed": 7,
      "faults": [
        {"site": "checkpoint_write", "tenant": "beta", "after": 1, "times": 1},
        {"site": "tenant_loop", "tenant": "alpha", "after": 30, "times": 1}
      ]
    }

A plan reads and writes this shape through the spec codec
(:class:`repro.api.spec.JsonSpec`): fields left out take their defaults,
unknown keys raise ``unknown fault plan keys`` / ``unknown fault spec keys``,
and a saved plan writes every fault field (``null`` for unset ones).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from ..api.spec import JsonSpec

__all__ = ["FAULT_SITES", "FaultEvent", "FaultSpec", "FaultPlan", "InjectedFault"]

#: Every site the serving code probes.  Plans naming anything else are
#: rejected at parse time — a typo'd site would otherwise never fire.
FAULT_SITES = frozenset(
    {
        "checkpoint_write",
        "tenant_loop",
        "trainer_thread",
        "conn_drop",
        "malformed_frame",
        "oversized_frame",
        "slow_frame",
    }
)


class InjectedFault(RuntimeError):
    """An error raised by a firing fault spec (never by real failures)."""


@dataclass(frozen=True)
class FaultEvent:
    """One firing of one fault spec at one site visit."""

    site: str
    tenant: str | None
    op: str | None
    spec_index: int
    visit: int
    firing: int
    delay_ms: float
    message: str

    def to_record(self) -> dict:
        """The NDJSON event-log / obs-store shape of this firing."""
        return {
            "kind": "fault",
            "site": self.site,
            "tenant": self.tenant if self.tenant is not None else "",
            "op": self.op,
            "spec_index": self.spec_index,
            "visit": self.visit,
            "firing": self.firing,
            "delay_ms": self.delay_ms,
            "reason": self.message,
        }


@dataclass
class FaultSpec(JsonSpec):
    """One deterministic failure schedule at one site."""

    what = "fault spec"

    site: str
    tenant: str | None = None
    op: str | None = None
    after: int = 1
    every: int = 1
    times: int | None = 1
    probability: float | None = None
    delay_ms: float = 0.0
    message: str = ""

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: {sorted(FAULT_SITES)}"
            )
        if self.after < 1:
            raise ValueError(f"fault 'after' must be >= 1 (1-based visit), got {self.after}")
        if self.every < 1:
            raise ValueError(f"fault 'every' must be >= 1, got {self.every}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"fault 'times' must be >= 1 or null, got {self.times}")
        if self.probability is not None and not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"fault 'probability' must be in [0, 1], got {self.probability}")
        if self.delay_ms < 0:
            raise ValueError(f"fault 'delay_ms' must be >= 0, got {self.delay_ms}")

    def matches(self, site: str, tenant: str | None, op: str | None) -> bool:
        if site != self.site:
            return False
        if self.tenant is not None and tenant != self.tenant:
            return False
        if self.op is not None and op != self.op:
            return False
        return True

    def eligible(self, visit: int) -> bool:
        """Does the schedule allow firing at this (1-based) visit?"""
        return visit >= self.after and (visit - self.after) % self.every == 0


@dataclass
class _PlanDocument(JsonSpec):
    """The JSON shape of a :class:`FaultPlan`."""

    what = "fault plan"

    name: str = "faults"
    seed: int = 0
    faults: list[FaultSpec] = field(default_factory=list)


class FaultPlan(JsonSpec):
    """A seeded set of fault specs with deterministic firing decisions.

    Thread-safe: sites are probed from the asyncio loop thread *and* from
    checkpoint-offload worker threads; one lock guards the counters, so a
    plan's firing sequence depends only on the order of probe calls (which
    tenant-scoped specs make deterministic per tenant).
    """

    what = "fault plan"

    def __init__(self, specs: list[FaultSpec], seed: int = 0, name: str = "faults") -> None:
        self.name = name
        self.seed = int(seed)
        self.specs = list(specs)
        self.fired: list[FaultEvent] = []
        #: Callback invoked (under no lock) with every :class:`FaultEvent`;
        #: the server routes these into the serve event logs.
        self.on_fire = None
        self._lock = threading.Lock()
        self._visits = [0] * len(self.specs)
        self._firings = [0] * len(self.specs)
        # One RNG per spec, derived from (plan seed, spec index) so adding a
        # spec never perturbs the others' coin flips.
        self._rngs = [
            random.Random((self.seed << 16) ^ (index * 0x9E3779B1))
            for index in range(len(self.specs))
        ]

    # ------------------------------------------------------------------ #
    def fire(self, site: str, tenant: str | None = None, op: str | None = None):
        """Probe a site: returns the first firing :class:`FaultEvent`, else None.

        Every matching spec's visit counter ticks exactly once per call,
        whether or not it fires; the first spec that fires wins the visit.
        """
        event: FaultEvent | None = None
        with self._lock:
            for index, spec in enumerate(self.specs):
                if not spec.matches(site, tenant, op):
                    continue
                self._visits[index] += 1
                visit = self._visits[index]
                if not spec.eligible(visit):
                    continue
                if spec.times is not None and self._firings[index] >= spec.times:
                    continue
                if spec.probability is not None and not (
                    self._rngs[index].random() < spec.probability
                ):
                    continue
                if event is not None:
                    continue
                self._firings[index] += 1
                event = FaultEvent(
                    site=site,
                    tenant=tenant,
                    op=op,
                    spec_index=index,
                    visit=visit,
                    firing=self._firings[index],
                    delay_ms=spec.delay_ms,
                    message=spec.message
                    or f"injected {site} fault (spec {index}, visit {visit})",
                )
                self.fired.append(event)
        if event is not None and self.on_fire is not None:
            self.on_fire(event)
        return event

    def raise_if(self, site: str, tenant: str | None = None, op: str | None = None) -> None:
        """Probe a site and raise :class:`InjectedFault` when it fires."""
        event = self.fire(site, tenant=tenant, op=op)
        if event is not None:
            raise InjectedFault(event.message)

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Per-site firing counters for the ``status`` surface."""
        with self._lock:
            by_site: dict[str, int] = {}
            for index, spec in enumerate(self.specs):
                if self._firings[index]:
                    by_site[spec.site] = by_site.get(spec.site, 0) + self._firings[index]
            return {
                "name": self.name,
                "seed": self.seed,
                "specs": len(self.specs),
                "fired": sum(self._firings),
                "by_site": by_site,
            }

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return _PlanDocument(self.name, self.seed, self.specs).to_dict()

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        document = _PlanDocument.from_dict(data)
        return cls(document.faults, seed=document.seed, name=document.name)
