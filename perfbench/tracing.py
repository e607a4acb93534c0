"""Spans around public calls into the program's layers, installed from outside.

:class:`Tracer` replaces a class attribute or module function with a wrapper
that times each call while the tracer is active.  Spans nest: a span's *self
time* is its duration minus the time of the spans it encloses, so the self
times of all spans plus the untraced remainder add up to wall time.  Nothing
in the program is modified on disk; :meth:`Tracer.restore` puts every
original back.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Per-name call counts, inclusive and self time, and optional samples."""

    def __init__(self) -> None:
        self.active = False
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.samples: defaultdict = defaultdict(list)
        self.counts: Counter = Counter()
        # One [child seconds] cell per open span.
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, name: str, keep_sample: bool = False):
        """Time the enclosed block as span ``name`` (no-op when inactive)."""
        if not self.active:
            yield
            return
        cell = [0.0]
        self._stack.append(cell)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self._stack.pop()
            self.calls[name] += 1
            self.total_s[name] += elapsed
            self.self_s[name] += elapsed - cell[0]
            if self._stack:
                self._stack[-1][0] += elapsed
            if keep_sample:
                self.samples[name].append(elapsed)

    def wrap(self, owner, attribute: str, name: str, keep_sample: bool = False, probe=None) -> None:
        """Trace ``owner.attribute`` as span ``name``.

        ``probe(args, kwargs)`` runs before each traced call and may add to
        :attr:`counts`; it sees the call's arguments, never changes them.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if probe is not None:
                probe(tracer, args, kwargs)
            with tracer.span(name, keep_sample):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    def self_ms(self, *names: str) -> float:
        """Summed self time of the named spans, in milliseconds."""
        return 1e3 * sum(self.self_s.get(name, 0.0) for name in names)


class _Probe:
    def call(self) -> None:
        pass


def span_cost_s(calls: int = 20_000) -> float:
    """Seconds one traced call adds over an untraced one (a calibration)."""
    tracer = Tracer()
    probe = _Probe()
    started = time.perf_counter()
    for _ in range(calls):
        probe.call()
    plain = time.perf_counter() - started
    tracer.wrap(_Probe, "call", "probe")
    tracer.active = True
    try:
        with tracer.span("outer"):
            started = time.perf_counter()
            for _ in range(calls):
                probe.call()
            traced = time.perf_counter() - started
    finally:
        tracer.active = False
        tracer.restore()
    return max(traced - plain, 0.0) / calls
