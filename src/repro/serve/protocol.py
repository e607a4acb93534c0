"""The newline-delimited JSON wire protocol of the serving layer.

One request per line, one response line per request, answered strictly in
request order per connection.  Requests are JSON objects dispatched on their
``"op"`` key:

``event``
    ``{"op": "event", "tenant": <name>, "kind": <event type>,
    "subject_id": <int>, "timestamp": <minutes>}`` — one platform event,
    exactly the trace's event model (:class:`repro.crowd.events.Event`).
    Task events are acknowledged with ``{"ok": true, "queued": <depth>}``;
    worker arrivals block until the tenant's replica loop has processed the
    arrival and answer ``{"ok": true, "decision": {…} | null}`` with the
    presented ranking, the simulated feedback outcome and the server-side
    rank latency (``null`` when the loop skipped the arrival — empty pool or
    empty ranking).
``status``
    ``{"op": "status"}`` — the health surface: per-tenant queue depth, event
    counts, decision-latency percentiles, trainer stats, plus server-level
    uptime and batching counters.
``policies``
    ``{"op": "policies"}`` — the machine-readable policy registry (the same
    payload as ``python -m repro policies --json``).
``shutdown``
    ``{"op": "shutdown"}`` — graceful drain: every tenant's event stream is
    closed, the replica loops run to completion (writing their final
    checkpoints), and the response carries the per-tenant results.  The
    server exits afterwards.  ``SIGTERM``/``SIGINT`` trigger the same drain.

Every response carries ``"ok"``; failures answer ``{"ok": false, "code":
<error code>, "error": <message>}`` without closing the connection.  The
``code`` is one of :data:`ERROR_CODES` — a machine-matchable identity the
clients branch on (``error`` stays a human message, never a traceback).
Codes in :data:`RETRYABLE_CODES` describe transient conditions
(``overloaded`` backpressure, a ``tenant_restarting`` supervision window,
a ``deadline_exceeded`` dispatch) that a client should retry with backoff;
everything else is a request or terminal-state problem retries cannot fix.
Responses to *injected* protocol faults additionally carry
``"injected": true`` so chaos-run clients retry through them.

``event`` requests may carry an optional ``"seq"`` — the event's absolute
index in the tenant's online trace.  The server acknowledges ``seq <
expected`` duplicates without re-applying them (``"duplicate": true``) and
rejects ``seq > expected`` gaps with the expected value, which makes tail
re-feeding after reconnects and tenant restarts idempotent: a client can
always resend from its cursor and converge on the server's.

:class:`ProtocolLimits` bundles the hardening knobs (max frame size,
per-request deadline, queue-depth backpressure, trainer-lag degradation)
a :class:`~repro.serve.spec.ServeSpec` can override under ``"limits"``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
from dataclasses import dataclass

from ..crowd.events import Event, EventType

__all__ = [
    "ERROR_CODES",
    "MAX_ANSWER_BYTES",
    "RETRYABLE_CODES",
    "ProtocolLimits",
    "encode_line",
    "decode_line",
    "error_response",
    "event_to_wire",
    "event_from_wire",
    "ProtocolError",
    "ServeClient",
    "request_once",
]

#: Structured error codes answered on the wire.
ERROR_CODES = frozenset(
    {
        "bad_request",  # undecodable frame / invalid or missing fields
        "unknown_op",
        "unknown_tenant",
        "frame_too_large",  # request line exceeded max_frame_bytes
        "deadline_exceeded",  # dispatch exceeded request_timeout_s
        "overloaded",  # tenant queue at max_queue_depth; retry with backoff
        "tenant_restarting",  # tenant failed; supervisor is restarting it
        "tenant_failed",  # tenant failed permanently (restart budget spent)
        "sequence_gap",  # event seq ahead of the tenant's cursor
        "draining",  # server shutting down; no new events
        "internal",  # unexpected server-side error
    }
)

#: Transient conditions a client should retry (with backoff + jitter).
RETRYABLE_CODES = frozenset({"overloaded", "tenant_restarting", "deadline_exceeded"})

#: Longest answer line a client reads.  ``max_frame_bytes`` bounds requests
#: only: a ``status`` answer or a drain summary grows with the tenants.
MAX_ANSWER_BYTES = 1 << 24


def error_response(code: str, message: str, **extra) -> dict:
    """One structured failure response line (``ok``/``code``/``error``)."""
    assert code in ERROR_CODES, f"unregistered error code {code!r}"
    payload = {"ok": False, "code": code, "error": message}
    payload.update(extra)
    return payload


@dataclass
class ProtocolLimits:
    """Hardening knobs of one serving endpoint (spec section ``"limits"``)."""

    #: Largest accepted request line; longer frames answer ``frame_too_large``.
    max_frame_bytes: int = 1 << 20
    #: Per-request dispatch deadline (the ``shutdown`` drain is exempt).
    request_timeout_s: float = 60.0
    #: Per-tenant buffered-event cap; deeper queues answer ``overloaded``.
    max_queue_depth: int = 4096
    #: Async-trainer plan backlog past which the tenant reports ``degraded``
    #: (decisions keep flowing on the stale snapshot — shed training, not
    #: serving).
    degrade_queue_lag: int = 512

    _KEYS = frozenset(
        {"max_frame_bytes", "request_timeout_s", "max_queue_depth", "degrade_queue_lag"}
    )

    def __post_init__(self) -> None:
        if self.max_frame_bytes < 256:
            raise ValueError(f"max_frame_bytes must be >= 256, got {self.max_frame_bytes}")
        if self.request_timeout_s <= 0:
            raise ValueError(f"request_timeout_s must be > 0, got {self.request_timeout_s}")
        if self.max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.degrade_queue_lag < 1:
            raise ValueError(f"degrade_queue_lag must be >= 1, got {self.degrade_queue_lag}")

    def to_dict(self) -> dict:
        return {
            "max_frame_bytes": self.max_frame_bytes,
            "request_timeout_s": self.request_timeout_s,
            "max_queue_depth": self.max_queue_depth,
            "degrade_queue_lag": self.degrade_queue_lag,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProtocolLimits":
        if not isinstance(data, dict):
            raise ValueError(f"limits must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - cls._KEYS
        if unknown:
            raise ValueError(f"unknown limits keys: {sorted(unknown)}")
        defaults = cls()
        return cls(
            max_frame_bytes=int(data.get("max_frame_bytes", defaults.max_frame_bytes)),
            request_timeout_s=float(
                data.get("request_timeout_s", defaults.request_timeout_s)
            ),
            max_queue_depth=int(data.get("max_queue_depth", defaults.max_queue_depth)),
            degrade_queue_lag=int(data.get("degrade_queue_lag", defaults.degrade_queue_lag)),
        )

#: Accepted ``kind`` values (the :class:`EventType` wire names).
_KINDS = {member.value: member for member in EventType}


class ProtocolError(ValueError):
    """A malformed request or response line."""


def encode_line(payload: dict) -> bytes:
    """One protocol line: compact JSON + newline."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def decode_line(line: bytes | str) -> dict:
    """Parse one protocol line into a JSON object (loudly on garbage)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as error:
        raise ProtocolError(f"invalid JSON line: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"protocol lines must be JSON objects, got {type(payload).__name__}")
    return payload


def event_to_wire(tenant: str, event: Event, seq: int | None = None) -> dict:
    """The ``op=event`` request for one trace event of one tenant.

    ``seq`` (the event's absolute online-trace index) opts the request into
    idempotent delivery: the server acks duplicates without re-applying them
    and rejects gaps with the expected index, so retries and tail re-feeds
    after reconnects or tenant restarts are safe.
    """
    payload = {
        "op": "event",
        "tenant": tenant,
        "kind": event.event_type.value,
        "subject_id": int(event.subject_id),
        "timestamp": float(event.timestamp),
    }
    if seq is not None:
        payload["seq"] = int(seq)
    return payload


def event_from_wire(payload: dict) -> Event:
    """Validate and convert an ``op=event`` request into a trace event."""
    kind = payload.get("kind")
    if kind not in _KINDS:
        raise ProtocolError(
            f"unknown event kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    try:
        subject_id = int(payload["subject_id"])
        timestamp = float(payload["timestamp"])
    except (KeyError, TypeError, ValueError) as error:
        raise ProtocolError(
            f"event requires integer 'subject_id' and numeric 'timestamp': {error}"
        ) from None
    return Event(timestamp=timestamp, event_type=_KINDS[kind], subject_id=subject_id)


async def request_once(host: str, port: int, payload: dict) -> dict:
    """One request on a throwaway connection (control ops, shard fan-out).

    Raises :class:`OSError` when the peer cannot be reached or drops the
    connection (``ConnectionError`` when it closes before answering) and
    :class:`ValueError` when the answer overruns :data:`MAX_ANSWER_BYTES`
    or does not decode (:class:`ProtocolError`, say a line torn by a peer
    killed mid-write).
    """
    reader, writer = await asyncio.open_connection(host, port, limit=MAX_ANSWER_BYTES)
    try:
        writer.write(encode_line(payload))
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_line(line)
    finally:
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()


class ServeClient:
    """A minimal blocking client for tests, benchmarks and simple tooling.

    One socket, strict request→response alternation (the load generator's
    concurrent clients use asyncio streams instead; this class exists so a
    test or a shell one-liner does not need an event loop).
    """

    def __init__(self, host: str, port: int, timeout: float | None = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")

    def request(self, payload: dict) -> dict:
        """Send one request line and block for its response line."""
        self._sock.sendall(encode_line(payload))
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_line(line)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
