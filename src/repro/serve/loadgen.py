"""Load generator: replay tenant traces as concurrent, *resilient* clients.

``repro loadgen <serve spec>`` rebuilds each tenant's dataset locally (same
spec, same seeds → the exact trace the server expects), asks the server which
trace offset every tenant has already consumed (warm restarts continue where
the previous process stopped), then drives one asyncio client per tenant
feeding the online events in trace order over its own connection.

Every event request carries its absolute trace index (``seq``), which makes
delivery idempotent and the client fault-tolerant:

* transient failures — ``overloaded`` backpressure, ``tenant_restarting``
  supervision windows, ``deadline_exceeded``, injected chaos responses —
  are retried with seeded exponential backoff + jitter (``--retries``,
  ``--backoff-base``, ``--backoff-max``, ``--retry-seed``);
* dropped or reset connections reconnect and resend the in-flight event —
  the server acks it as a duplicate if the original delivery landed;
* ``sequence_gap`` responses rewind the client cursor to the server's
  expected offset, which is exactly the tail re-feed a restarted tenant
  needs to converge bit-exact with an uninterrupted run;
* request timeouts (``--timeout``) drop the connection (the late response
  would desynchronise the request/response pairing) and are accounted
  separately from errors;
* against a *sharded* front-end (``--shards``; the ``status`` op advertises
  ``routes``), each tenant client resolves the shard worker that owns its
  tenant and connects straight to it — and **re-resolves on every
  reconnect**, so a client follows its tenant to a restarted shard's new
  ephemeral port, falling back to the front-end (whose
  ``tenant_restarting`` answers are retried) while the shard is down.

Pacing:

``--accel N``
    replay at ``N``× wall-clock speed — trace timestamps are minutes, so an
    event gap of *m* minutes sleeps ``m·60/N`` seconds.  ``--accel 0`` (the
    default) replays as fast as the request/response round-trip allows.
``--rate R``
    cap each tenant at ``R`` events per second (a simple token schedule);
    combine with ``--max-events`` for fixed-size runs.

The generator validates every tenant's policy name against the server's
``policies`` op before building anything, and reports per-tenant and
aggregate throughput, client-side rank round-trip percentiles and the full
resilience accounting (retries, reconnects, timeouts, duplicates, resyncs).
With ``--shutdown`` it drains the server afterwards and includes the drain
summary (the CI benchmark uses exactly this path).  Control ops (``policies``,
``status``, ``shutdown``, route lookups) go through
:func:`~repro.serve.protocol.request_once`, the one-shot request the sharded
front-end also fans out with.  An unreachable server is a clean one-line
error and a nonzero exit, not a traceback.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..crowd.events import Event, EventType
from .protocol import RETRYABLE_CODES, decode_line, encode_line, event_to_wire, request_once
from .spec import ServeSpec
from .tenant import latency_percentiles

__all__ = ["LoadgenError", "Resilience", "configure_parser", "main", "run", "run_loadgen"]


class LoadgenError(RuntimeError):
    """A load-generator failure with a clean operator-facing message."""


@dataclass
class Resilience:
    """Client-side retry/backoff knobs (seeded, so chaos runs reproduce)."""

    retries: int = 8
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    timeout_s: float = 60.0
    seed: int = 0

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Jittered exponential backoff before retry ``attempt`` (1-based)."""
        base = min(self.backoff_base_s * (2.0 ** (attempt - 1)), self.backoff_max_s)
        return base * (0.5 + rng.random())


async def _control_request(host: str, port: int, payload: dict, what: str) -> dict:
    try:
        response = await request_once(host, port, payload)
    except OSError as error:
        raise LoadgenError(
            f"cannot reach server at {host}:{port} for {what}: {error}"
        ) from None
    if not response.get("ok"):
        raise LoadgenError(f"{what} op failed: {response.get('error')}")
    return response


def _make_resolver(host: str, port: int, tenant: str):
    """A per-tenant shard-address resolver against a sharded front-end.

    Asks the front-end's ``status`` op for the tenant's current route and
    returns the owning worker's (host, port) — re-queried on *every* call,
    so a reconnecting client follows its tenant to a restarted shard's new
    ephemeral port.  While the shard is down (route unannounced) or the
    front-end is unreachable, falls back to the front-end address itself,
    whose ``tenant_restarting`` answers the driver retries through.
    """

    async def resolve() -> tuple[str, int]:
        try:
            response = await request_once(host, port, {"op": "status"})
        except OSError:
            return host, port
        route = (response.get("status") or {}).get("routes", {}).get(tenant)
        if route and route.get("host") is not None and route.get("port") is not None:
            return str(route["host"]), int(route["port"])
        return host, port

    return resolve


class _TenantDriver:
    """One tenant's resilient replay client: connection, cursor, accounting."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        events: list[Event],
        offset: int,
        rate: float,
        accel: float,
        max_events: int | None,
        resilience: Resilience,
        resolver=None,
    ) -> None:
        self.host = host
        self.port = port
        #: Async () -> (host, port): where this tenant lives *right now*
        #: (sharded front-ends move tenants across worker restarts).
        self.resolver = resolver
        self.tenant = tenant
        self.events = events
        self.offset = offset
        self.rate = rate
        self.accel = accel
        # The replay window is a trace slice, so a mid-run rewind (tenant
        # restart) re-feeds inside the same window instead of shifting it —
        # a faulted run and a fault-free run end at the same trace position.
        self.end = len(events) if max_events is None else min(len(events), offset + max_events)
        self.resilience = resilience
        # Seeded per tenant (stable digest, not hash()) so concurrent chaos
        # runs draw reproducible jitter.
        self.rng = random.Random(resilience.seed ^ zlib.crc32(tenant.encode("utf-8")))
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.rtts_ms: list[float] = []
        self.sent = 0
        self.arrivals = 0
        self.decisions = 0
        self.completions = 0
        self.errors = 0
        self.retries = 0
        self.reconnects = 0
        self.timeouts = 0
        self.duplicates = 0
        self.resyncs = 0

    # -------------------------------------------------------------- #
    async def _connect(self) -> None:
        if self.resolver is not None:
            self.host, self.port = await self.resolver()
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    async def _disconnect(self) -> None:
        if self.writer is None:
            return
        writer, self.writer, self.reader = self.writer, None, None
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def _exchange(self, payload: dict) -> dict | None:
        """One request/response; ``None`` means the connection is unusable."""
        try:
            if self.writer is None:
                await self._connect()
                self.reconnects += 1
            self.writer.write(encode_line(payload))
            await self.writer.drain()
            line = await asyncio.wait_for(
                self.reader.readline(), timeout=self.resilience.timeout_s
            )
            if not line:
                raise ConnectionError("server closed the connection")
            return decode_line(line)
        except TimeoutError:
            # A late response would desynchronise request/response pairing on
            # this connection; drop it and resend (idempotent via seq).
            self.timeouts += 1
            await self._disconnect()
            return None
        except (ConnectionError, OSError):
            await self._disconnect()
            return None

    # -------------------------------------------------------------- #
    async def drive(self) -> dict:
        started = time.perf_counter()
        first_ts: float | None = None
        cursor = self.offset
        # The first _exchange reconnect is the initial connection, not a
        # recovery; start the counter at -1 so it reports recoveries only.
        self.reconnects = -1
        try:
            while cursor < self.end:
                event = self.events[cursor]
                if self.rate > 0:
                    target = started + self.sent / self.rate
                    delay = target - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                elif self.accel > 0:
                    if first_ts is None:
                        first_ts = event.timestamp
                    target = started + (event.timestamp - first_ts) * 60.0 / self.accel
                    delay = target - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                cursor = await self._send_event(cursor, event)
        finally:
            await self._disconnect()
        elapsed = time.perf_counter() - started
        return {
            "tenant": self.tenant,
            "offset": self.offset,
            "events_sent": self.sent,
            "arrivals": self.arrivals,
            "decisions": self.decisions,
            "completions": self.completions,
            "errors": self.errors,
            "retries": self.retries,
            "reconnects": max(self.reconnects, 0),
            "timeouts": self.timeouts,
            "duplicates": self.duplicates,
            "resyncs": self.resyncs,
            "elapsed_s": elapsed,
            "events_per_s": self.sent / elapsed if elapsed > 0 else 0.0,
            "rank_rtt_ms": latency_percentiles(self.rtts_ms),
            "_rtts_ms": self.rtts_ms,
        }

    async def _send_event(self, cursor: int, event: Event) -> int:
        """Deliver one event (with retries); returns the next cursor."""
        is_arrival = event.event_type is EventType.WORKER_ARRIVAL
        payload = event_to_wire(self.tenant, event, seq=cursor)
        attempts = 0
        while True:
            sent_at = time.perf_counter()
            response = await self._exchange(payload)
            if response is None:  # connection-level failure or timeout
                attempts += 1
                if attempts > self.resilience.retries:
                    raise LoadgenError(
                        f"tenant {self.tenant!r}: gave up on event seq {cursor} "
                        f"after {attempts} attempts (connection failures/timeouts)"
                    )
                self.retries += 1
                await asyncio.sleep(self.resilience.backoff_s(attempts, self.rng))
                continue
            if response.get("ok"):
                self.sent += 1
                if response.get("duplicate"):
                    # The original delivery landed before the connection died;
                    # its decision (if any) was lost with that connection.
                    self.duplicates += 1
                elif is_arrival:
                    self.arrivals += 1
                    self.rtts_ms.append((time.perf_counter() - sent_at) * 1e3)
                    decision = response.get("decision")
                    if decision is not None:
                        self.decisions += 1
                        if decision.get("completed_task_id") is not None:
                            self.completions += 1
                return cursor + 1
            code = response.get("code")
            if code == "sequence_gap":
                # The tenant restarted from a checkpoint behind us: rewind to
                # its expected offset and re-feed the tail (idempotent).
                expected = int(response.get("expected", self.offset))
                self.resyncs += 1
                return min(expected, cursor)
            if code in RETRYABLE_CODES or response.get("injected"):
                attempts += 1
                if attempts > self.resilience.retries:
                    self.errors += 1
                    self.sent += 1
                    return cursor + 1  # budget spent: record and move on
                self.retries += 1
                await asyncio.sleep(self.resilience.backoff_s(attempts, self.rng))
                continue
            if code in ("draining", "tenant_failed"):
                raise LoadgenError(
                    f"tenant {self.tenant!r}: server answered {code} at event "
                    f"seq {cursor}: {response.get('error')}"
                )
            # Non-retryable request error: count it and continue the replay.
            self.errors += 1
            self.sent += 1
            return cursor + 1


async def _drive_tenant(
    host: str,
    port: int,
    tenant: str,
    events: list[Event],
    offset: int,
    rate: float,
    accel: float,
    max_events: int | None,
    resilience: Resilience,
    resolver=None,
) -> dict:
    """Feed one tenant's trace window, retrying through transient failures."""
    driver = _TenantDriver(
        host, port, tenant, events, offset, rate, accel, max_events, resilience,
        resolver=resolver,
    )
    return await driver.drive()


async def _run(
    spec: ServeSpec,
    host: str,
    port: int,
    rate: float,
    accel: float,
    max_events: int | None,
    tenant_names: list[str] | None,
    dataset_cache_dir: str | Path | None,
    shutdown: bool,
    resilience: Resilience,
) -> dict:
    # Registry validation via the server's own surface: fail before any
    # dataset generation if the server build does not know a policy name.
    policies = await _control_request(host, port, {"op": "policies"}, "policies")
    known = {entry["name"] for entry in policies["policies"]["policies"]}
    chosen = [
        tenant
        for tenant in spec.tenants
        if tenant_names is None or tenant.name in tenant_names
    ]
    if tenant_names is not None:
        missing = set(tenant_names) - {tenant.name for tenant in chosen}
        if missing:
            raise ValueError(f"spec has no tenants named {sorted(missing)}")
    for tenant in chosen:
        if tenant.policy.policy not in known:
            raise ValueError(
                f"tenant {tenant.name!r} uses policy {tenant.policy.policy!r}, "
                f"which the server does not register"
            )

    status = await _control_request(host, port, {"op": "status"}, "status")
    server_tenants = status["status"]["tenants"]
    # A sharded front-end advertises per-tenant routes; drive each tenant
    # straight at its owning shard worker, re-resolving on reconnect.
    sharded = status["status"].get("routes") is not None
    offsets: dict[str, int] = {}
    for tenant in chosen:
        if tenant.name not in server_tenants:
            raise ValueError(
                f"server does not host tenant {tenant.name!r}; "
                f"hosted: {sorted(server_tenants)}"
            )
        entry = server_tenants[tenant.name]
        offsets[tenant.name] = int(entry.get("next_seq", entry["events_consumed"]))

    # Rebuild each tenant's trace locally (deterministic from the spec).
    traces: dict[str, list[Event]] = {}
    for tenant in chosen:
        dataset = tenant.dataset.build(cache_dir=dataset_cache_dir)
        _, online = dataset.trace.split_warmup(dataset.warmup_end)
        traces[tenant.name] = online.events

    started = time.perf_counter()
    per_tenant = await asyncio.gather(
        *(
            _drive_tenant(
                host,
                port,
                tenant.name,
                traces[tenant.name],
                offsets[tenant.name],
                rate,
                accel,
                max_events,
                resilience,
                resolver=_make_resolver(host, port, tenant.name) if sharded else None,
            )
            for tenant in chosen
        )
    )
    elapsed = time.perf_counter() - started

    all_rtts: list[float] = []
    total_sent = total_errors = total_retries = 0
    for row in per_tenant:
        all_rtts.extend(row.pop("_rtts_ms"))
        total_sent += row["events_sent"]
        total_errors += row["errors"]
        total_retries += row["retries"]

    final_status = await _control_request(host, port, {"op": "status"}, "status")
    report = {
        "spec": spec.name,
        "host": host,
        "port": port,
        "rate": rate,
        "accel": accel,
        "max_events": max_events,
        "resilience": {
            "retries": resilience.retries,
            "backoff_base_s": resilience.backoff_base_s,
            "backoff_max_s": resilience.backoff_max_s,
            "timeout_s": resilience.timeout_s,
            "seed": resilience.seed,
        },
        "tenants": {row["tenant"]: row for row in per_tenant},
        "aggregate": {
            "tenants": len(per_tenant),
            "events_sent": total_sent,
            "errors": total_errors,
            "retries": total_retries,
            "elapsed_s": elapsed,
            "events_per_s": total_sent / elapsed if elapsed > 0 else 0.0,
            "rank_rtt_ms": latency_percentiles(all_rtts),
        },
        "server_status": final_status.get("status"),
    }
    if shutdown:
        drained = await _control_request(host, port, {"op": "shutdown"}, "shutdown")
        report["shutdown"] = drained["shutdown"]
    return report


def run_loadgen(
    spec: ServeSpec,
    host: str | None = None,
    port: int | None = None,
    rate: float = 0.0,
    accel: float = 0.0,
    max_events: int | None = None,
    tenant_names: list[str] | None = None,
    dataset_cache_dir: str | Path | None = None,
    shutdown: bool = False,
    resilience: Resilience | None = None,
) -> dict:
    """Drive a running server with the spec's tenant traces; returns the report."""
    return asyncio.run(
        _run(
            spec,
            host if host is not None else spec.host,
            port if port is not None else spec.port,
            rate,
            accel,
            max_events,
            tenant_names,
            dataset_cache_dir,
            shutdown,
            resilience if resilience is not None else Resilience(),
        )
    )


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the loadgen arguments to ``parser`` (shared with the unified CLI)."""
    parser.add_argument("spec", type=Path, help="ServeSpec JSON file (same one the server runs)")
    parser.add_argument("--host", default=None, help="server host (default: spec host)")
    parser.add_argument("--port", type=int, default=None, help="server port (default: spec port)")
    parser.add_argument(
        "--rate", type=float, default=0.0, help="per-tenant cap in events/s (0 = unpaced)"
    )
    parser.add_argument(
        "--accel",
        type=float,
        default=0.0,
        help="replay at N× wall-clock speed (0 = as fast as possible)",
    )
    parser.add_argument(
        "--max-events", type=int, default=None, help="stop each tenant after this many events"
    )
    parser.add_argument(
        "--tenants", nargs="+", default=None, help="drive only these tenants (default: all)"
    )
    parser.add_argument("--cache-dir", type=Path, default=None, help="dataset cache directory")
    parser.add_argument(
        "--shutdown", action="store_true", help="drain the server after the replay"
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="also write the JSON report here"
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=8,
        help="retry budget per event for transient failures (0 = fail fast)",
    )
    parser.add_argument(
        "--backoff-base",
        type=float,
        default=0.05,
        metavar="S",
        help="base of the exponential retry backoff in seconds",
    )
    parser.add_argument(
        "--backoff-max",
        type=float,
        default=2.0,
        metavar="S",
        help="cap of the exponential retry backoff in seconds",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="S",
        help="per-request response timeout in seconds",
    )
    parser.add_argument(
        "--retry-seed",
        type=int,
        default=0,
        help="seed of the backoff jitter RNG (reproducible chaos runs)",
    )


def run(args: argparse.Namespace) -> int:
    """Execute a parsed loadgen invocation (the unified CLI's dispatch target)."""
    spec = ServeSpec.load(args.spec)
    try:
        report = run_loadgen(
            spec,
            host=args.host,
            port=args.port,
            rate=args.rate,
            accel=args.accel,
            max_events=args.max_events,
            tenant_names=args.tenants,
            dataset_cache_dir=args.cache_dir,
            shutdown=args.shutdown,
            resilience=Resilience(
                retries=args.retries,
                backoff_base_s=args.backoff_base,
                backoff_max_s=args.backoff_max,
                timeout_s=args.timeout,
                seed=args.retry_seed,
            ),
        )
    except LoadgenError as error:
        print(f"loadgen: {error}", file=sys.stderr)
        return 1
    text = json.dumps(report, indent=2)
    print(text)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(text + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    """``python -m repro loadgen`` — replay tenant traces against a server."""
    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Replay a ServeSpec's tenant traces against a running server.",
    )
    configure_parser(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
