"""The asyncio serving endpoint: N tenants behind one NDJSON TCP socket.

:class:`Endpoint` is the wire, written once: bind, frames, the connection
loop, the shared ops, an idempotent drain.  :class:`ArrangementServer` hosts
every tenant of a :class:`ServeSpec` on one event loop; the sharded
:class:`~repro.serve.shard.ShardedFrontend` routes to shard processes that
are arrangement servers themselves.  Worker-arrival events block their
request until the tenant's replica loop has served the decision, task events
are acknowledged immediately, and rank requests that land on the same loop
tick share stacked forwards through the
:class:`~repro.serve.batching.RankBatcher`.  Asynchronously trained tenants
run their gradient work on the :class:`~repro.core.trainer.AsyncTrainer`
background thread, so decision latency stays decoupled from training cost.

Shutdown (the ``shutdown`` op, ``SIGTERM`` or ``SIGINT``) drains: every
tenant's event stream is closed, the replica loops consume what is buffered
and finish exactly like an exhausted offline trace — flushing training and
writing their final run-state checkpoints — and only then does the process
exit.  A restarted server resumes every tenant from its checkpoint, and
because a tenant's trajectory depends only on its own event sequence (own
RNGs, own platform, batching bit-identical per replica), the resumed state
matches an uninterrupted run fed the same events.

The server is **fault-tolerant by supervision**: every tenant carries the
health state machine of :mod:`repro.serve.tenant`, a tenant whose replica
loop raises is isolated (its neighbours' pumps and tickets are untouched)
and restarted in-process from its last periodic checkpoint under the spec's
:class:`~repro.serve.spec.SupervisorSpec` (bounded attempts, exponential
backoff); clients re-feed the tail through ``sequence_gap`` resynchronisation
and the recovered trajectory is bit-exact versus an uninterrupted run.  The
wire surface is hardened by :class:`~repro.serve.protocol.ProtocolLimits`:
oversized frames answer ``frame_too_large`` without killing the connection,
every non-shutdown request a server hosts dispatches under a deadline
(``deadline_exceeded``), and queue-depth backpressure answers ``overloaded``.
``--fault-plan`` arms a seeded :class:`~repro.serve.faults.FaultPlan` that
injects failures at named sites for chaos tests and CI; every injected
fault, health transition and restart flows into the NDJSON event logs
(``kind="fault"`` / ``"health"`` / ``"supervisor"``, server-level records in
``_server.ndjson``) and is queryable after ``repro report ingest``.

``python -m repro serve <spec.json>`` runs this module's :func:`main`: one
endpoint (single process, shard worker or sharded front-end) under
:func:`serve_endpoint`, which on readiness prints one JSON line
``{"serving": {...}}`` (host, bound port, pid, tenants, state dir) so
drivers can discover an ephemeral port, and at exit one line
``{"shutdown": {...}}`` with the per-tenant drain summary.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

from ..api.registry import registry_payload
from ..crowd.events import EventType
from .batching import RankBatcher
from .faults import FaultEvent, FaultPlan
from .protocol import (
    ProtocolError,
    decode_line,
    encode_line,
    error_response,
    event_from_wire,
)
from .spec import ServeSpec
from .tenant import FAILED, RESTARTING, ArrivalTicket, Tenant

__all__ = [
    "ArrangementServer",
    "Endpoint",
    "checkpoint_phases",
    "configure_parser",
    "main",
    "run",
    "serve_endpoint",
]


def checkpoint_phases(spec: ServeSpec) -> dict[str, int]:
    """The global checkpoint-phase stagger, tenant name → phase.

    Derived from the spec's full tenant order alone (see :meth:`
    ArrangementServer.boot`), so every deployment shape — single process,
    any shard count, interrupted or not — staggers identically and the
    schedule-aligned checkpoints stay bit-exact across them.  Shard workers
    host a tenant *subset* but must keep the global phases, hence this
    helper instead of recomputing from the subset.
    """
    count = max(1, len(spec.tenants))
    phases: dict[str, int] = {}
    for index, tenant_spec in enumerate(spec.tenants):
        every = tenant_spec.runner.checkpoint_every
        phases[tenant_spec.name] = (index * every) // count if every is not None else 0
    return phases

#: Sentinel returned by the frame reader for an over-limit request line.
_OVERSIZED = object()
#: Sentinel answer: a conn_drop fault fired — close the connection unanswered.
_DROP = object()


class Endpoint:
    """One NDJSON endpoint: bind, frames, the connection loop, shared ops, drain.

    :class:`ArrangementServer` (hosts tenants) and
    :class:`~repro.serve.shard.ShardedFrontend` (routes to shard processes)
    are its two shapes.  A shape readies what it serves in :meth:`_prepare`,
    answers ``event`` ops in :meth:`_op_event`, reports :meth:`status`,
    drains in :meth:`_drain` and adds its own fields to the announce line;
    the wire around those is written once, here.
    """

    def __init__(self, spec: ServeSpec) -> None:
        self.spec = spec
        self.shutdown_summary: dict | None = None
        self._server: asyncio.AbstractServer | None = None
        self._started = time.perf_counter()
        self._closing = False
        self._shutdown_task: asyncio.Task | None = None
        self._shutdown_complete = asyncio.Event()
        #: Live connection task → the links a front-end opened upstream for
        #: that client (shard index → (reader, writer)), closed with it.
        self._connections: dict[asyncio.Task, dict] = {}

    async def _prepare(self) -> None:
        """Ready what this endpoint serves; :meth:`start` runs it before the bind."""

    async def start(self) -> tuple[str, int]:
        """Ready the endpoint and bind; returns the bound (host, port)."""
        await self._prepare()
        self._server = await asyncio.start_server(
            self._handle,
            self.spec.host,
            self.spec.port,
            # The stream reader's buffer limit is what readuntil() enforces;
            # one byte past max_frame_bytes must overrun, so the limit is the
            # frame budget itself (frame = payload + newline).
            limit=self.spec.limits.max_frame_bytes,
        )
        self._started = time.perf_counter()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "endpoint not started"
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    # ------------------------------------------------------------------ #
    async def _read_frame(self, reader: asyncio.StreamReader):
        """One request line, EOF (``None``) or the ``_OVERSIZED`` sentinel.

        An over-limit line is discarded up to its terminating newline so the
        connection survives the ``frame_too_large`` answer; bytes a client
        pipelined *behind* an oversized frame in the same burst may be lost
        with it (clients should not pipeline past an unread response).
        """
        try:
            return await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError:
            return None  # EOF, possibly mid-frame; nothing to answer
        except asyncio.LimitOverrunError:
            while True:
                chunk = await reader.read(self.spec.limits.max_frame_bytes)
                if not chunk or b"\n" in chunk:
                    return _OVERSIZED

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        upstream: dict[int, tuple[asyncio.StreamReader, asyncio.StreamWriter]] = {}
        self._connections[task] = upstream
        try:
            while True:
                line = await self._read_frame(reader)
                if line is None:
                    break
                request: dict = {}
                if line is _OVERSIZED:
                    response = error_response(
                        "frame_too_large",
                        f"request line exceeds max_frame_bytes "
                        f"({self.spec.limits.max_frame_bytes})",
                        max_frame_bytes=self.spec.limits.max_frame_bytes,
                    )
                else:
                    try:
                        request = decode_line(line)
                    except ProtocolError as error:
                        response = error_response("bad_request", str(error))
                    else:
                        response = await self._answer(request, line, upstream)
                        if response is _DROP:
                            break  # conn_drop fired: close without answering
                writer.write(encode_line(response))
                await writer.drain()
                if request.get("op") == "shutdown":
                    # The drain summary was this connection's answer; close it
                    # so drivers blocking on the shutdown op see EOF next.
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            del self._connections[task]
            for _, up_writer in upstream.values():
                up_writer.close()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _answer(self, request: dict, line: bytes, upstream: dict) -> dict:
        """Dispatch one decoded request; a failing op answers on the wire."""
        op = request.get("op")
        try:
            if op == "event":
                if self._closing:
                    return error_response("draining", "server is draining; no new events accepted")
                return await self._op_event(request, line, upstream)
            if op == "status":
                return {"ok": True, "status": await self.status()}
            if op == "policies":
                return {"ok": True, "policies": registry_payload()}
            if op == "ping":
                return {"ok": True}
            if op == "shutdown":
                return {"ok": True, "shutdown": await self.shutdown()}
            return error_response("unknown_op", f"unknown op {op!r}")
        except ProtocolError as error:
            return error_response("bad_request", str(error))
        except Exception as error:  # noqa: BLE001 - answered on the wire
            return error_response("internal", f"{type(error).__name__}: {error}")

    async def _op_event(self, request: dict, line: bytes, upstream: dict) -> dict:
        """Answer one ``event`` op (``line`` is its raw frame)."""
        raise NotImplementedError

    async def status(self) -> dict:
        """The ``status`` op's health surface."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    async def shutdown(self) -> dict:
        """Drain to completion; idempotent, safe to race."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self._shutdown())
        return await asyncio.shield(self._shutdown_task)

    async def _shutdown(self) -> dict:
        try:
            self.shutdown_summary = await self._drain()
        finally:
            # Even a failed drain ends run_until_shutdown: never hang the exit.
            self._shutdown_complete.set()
        return self.shutdown_summary

    async def _drain(self) -> dict:
        """Stop taking events, finish what is in flight; the drain summary."""
        raise NotImplementedError

    def _announce_fields(self) -> dict:
        """What the ``{"serving": ...}`` line adds after name, host, port, pid."""
        raise NotImplementedError

    async def run_until_shutdown(self) -> dict:
        """Serve until a drain completes, then close the listener cleanly."""
        assert self._server is not None, "endpoint not started"
        await self._shutdown_complete.wait()
        self._server.close()
        await self._server.wait_closed()
        if self._connections:
            # Give in-flight responses (including the shutdown op's own
            # answer) a moment to flush, then drop lingering idle clients.
            _, pending = await asyncio.wait(set(self._connections), timeout=2.0)
            for task in pending:
                task.cancel()
        return self.shutdown_summary or {}


class ArrangementServer(Endpoint):
    """One serving process: boots tenants, speaks the protocol, drains clean."""

    def __init__(
        self,
        spec: ServeSpec,
        state_dir: str | Path | None = None,
        resume: bool = True,
        dataset_cache_dir: str | Path | None = None,
        event_log_dir: str | Path | None = None,
        fault_plan: FaultPlan | None = None,
        shard_index: int | None = None,
        checkpoint_phase_overrides: dict[str, int] | None = None,
    ) -> None:
        super().__init__(spec)
        #: Which shard of a sharded deployment this process is (None when the
        #: server stands alone); stamped into status and every event record.
        self.shard_index = shard_index
        #: Tenant name → checkpoint phase, computed by the front-end from the
        #: *full* spec so a shard worker's subset keeps the global stagger.
        self.checkpoint_phase_overrides = checkpoint_phase_overrides
        self.state_dir = Path(state_dir) if state_dir is not None else None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        self.event_log_dir = Path(event_log_dir) if event_log_dir is not None else None
        if self.event_log_dir is not None:
            self.event_log_dir.mkdir(parents=True, exist_ok=True)
        self.resume = resume
        self.dataset_cache_dir = dataset_cache_dir
        self.fault_plan = fault_plan
        if self.fault_plan is not None:
            self.fault_plan.on_fire = self._record_fault
        self.tenants: dict[str, Tenant] = {}
        self.batcher = RankBatcher()
        #: Tenant names with an in-flight supervised restart task.
        self._supervising: set[str] = set()
        self._restart_tasks: set[asyncio.Task] = set()
        self._server_log_file = None
        self._server_log_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def boot(self) -> None:
        """Build and warm every tenant (datasets, policies, resume/warm-up)."""
        # Stagger periodic checkpoints across the tenant's own period so
        # co-hosted loops never all deep-copy their trees in one tick.
        # Derived from spec order alone, so interrupted and uninterrupted
        # runs share the schedule and warm restarts stay bit-exact.  Shard
        # workers receive the phases of the full tenant line-up instead, so
        # sharded and single-process deployments checkpoint identically.
        phases = (
            self.checkpoint_phase_overrides
            if self.checkpoint_phase_overrides is not None
            else checkpoint_phases(self.spec)
        )
        for tenant_spec in self.spec.tenants:
            phase = phases.get(tenant_spec.name, 0)
            tenant = Tenant(
                tenant_spec,
                state_dir=self.state_dir,
                resume=self.resume,
                dataset_cache_dir=self.dataset_cache_dir,
                event_log=(
                    self.event_log_dir / f"{tenant_spec.name}.ndjson"
                    if self.event_log_dir is not None
                    else None
                ),
                checkpoint_phase=phase,
                limits=self.spec.limits,
                fault_plan=self.fault_plan,
                on_failure=self._tenant_failed,
                shard=self.shard_index,
            )
            tenant.boot()
            self.tenants[tenant_spec.name] = tenant

    async def _prepare(self) -> None:
        if not self.tenants:
            self.boot()

    # ------------------------------------------------------------------ #
    def _injected_frame_fault(self, request: dict):
        """Probe the connection-level fault sites for one decoded frame.

        Returns ``_DROP`` when ``conn_drop`` fires, an injected error
        response for ``malformed_frame`` / ``oversized_frame``, else
        ``None``.  The probes run after decoding — matching needs the
        frame's tenant/op — and mirror exactly the responses the real
        conditions produce, plus ``"injected": true`` so resilient clients
        retry through them.
        """
        if self.fault_plan is None:
            return None
        tenant, op = request.get("tenant"), request.get("op")
        if self.fault_plan.fire("conn_drop", tenant=tenant, op=op) is not None:
            return _DROP
        event = self.fault_plan.fire("malformed_frame", tenant=tenant, op=op)
        if event is not None:
            return error_response(
                "bad_request", f"invalid JSON line ({event.message})", injected=True
            )
        event = self.fault_plan.fire("oversized_frame", tenant=tenant, op=op)
        if event is not None:
            return error_response(
                "frame_too_large",
                f"request line exceeds max_frame_bytes ({event.message})",
                injected=True,
            )
        return None

    async def _answer(self, request: dict, line: bytes, upstream: dict):
        """Probe the fault sites, then answer under the per-request deadline."""
        injected = self._injected_frame_fault(request)
        if injected is not None:
            return injected
        slow = (
            self.fault_plan.fire(
                "slow_frame", tenant=request.get("tenant"), op=request.get("op")
            )
            if self.fault_plan is not None
            else None
        )
        respond = super()._answer
        if request.get("op") == "shutdown":
            # The drain legitimately outlives any request deadline.
            return await respond(request, line, upstream)

        async def stalled() -> dict:
            if slow is not None:
                await asyncio.sleep(slow.delay_ms / 1e3)  # stall inside the deadline
            return await respond(request, line, upstream)

        try:
            return await asyncio.wait_for(stalled(), timeout=self.spec.limits.request_timeout_s)
        except TimeoutError:
            return error_response(
                "deadline_exceeded",
                f"request exceeded the {self.spec.limits.request_timeout_s}s deadline",
                injected=slow is not None,
            )

    async def _op_event(self, request: dict, line: bytes = b"", upstream=None) -> dict:
        """Feed one event to its tenant (``line``/``upstream`` are for routing)."""
        name = request.get("tenant")
        tenant = self.tenants.get(name)
        if tenant is None:
            return error_response(
                "unknown_tenant",
                f"unknown tenant {name!r}; hosted tenants: {sorted(self.tenants)}",
            )
        if tenant.health in (FAILED, RESTARTING) or tenant.error is not None:
            if tenant.supervision_exhausted:
                return error_response(
                    "tenant_failed",
                    f"tenant {name!r} failed permanently: {tenant.health_reason}",
                )
            return error_response(
                "tenant_restarting",
                f"tenant {name!r} is restarting after a failure; retry shortly",
                retry_after_ms=50,
            )
        if tenant.result is not None:
            return error_response(
                "tenant_failed", f"tenant {name!r} has finished its run"
            )
        event = event_from_wire(request)
        is_arrival = event.event_type is EventType.WORKER_ARRIVAL
        seq = request.get("seq")
        if seq is not None:
            try:
                seq = int(seq)
            except (TypeError, ValueError):
                return error_response("bad_request", f"event seq must be an integer, got {seq!r}")
            expected = tenant.stream.next_seq
            if seq < expected:
                # Already consumed or buffered: idempotent duplicate ack
                # (the original decision, if any, went to the first delivery).
                ack = {"ok": True, "tenant": name, "duplicate": True}
                ack["decision" if is_arrival else "queued"] = (
                    None if is_arrival else tenant.stream.pending
                )
                return ack
            if seq > expected:
                return error_response(
                    "sequence_gap",
                    f"tenant {name!r} expects event seq {expected}, got {seq}; "
                    "re-feed from the expected offset",
                    expected=expected,
                )
        if tenant.stream.pending >= self.spec.limits.max_queue_depth:
            return error_response(
                "overloaded",
                f"tenant {name!r} queue depth {tenant.stream.pending} at "
                f"max_queue_depth ({self.spec.limits.max_queue_depth}); retry with backoff",
                retry_after_ms=50,
            )
        if is_arrival:
            future = asyncio.get_running_loop().create_future()
            tenant.feed(event, ArrivalTicket(future))
            asyncio.ensure_future(tenant.pump(self.batcher))
            try:
                decision = await future
            except asyncio.CancelledError:
                raise
            except BaseException as error:  # noqa: BLE001 - tenant failed mid-arrival
                if tenant.supervision_exhausted:
                    return error_response(
                        "tenant_failed", f"tenant {name!r} failed: {error!r}"
                    )
                return error_response(
                    "tenant_restarting",
                    f"tenant {name!r} failed while serving and is being "
                    f"restarted: {error!r}",
                    retry_after_ms=50,
                )
            return {"ok": True, "tenant": name, "decision": decision}
        tenant.feed(event)
        asyncio.ensure_future(tenant.pump(self.batcher))
        return {"ok": True, "tenant": name, "queued": tenant.stream.pending}

    # ------------------------------------------------------------------ #
    # Supervision: isolate, back off, restart from the last checkpoint
    # ------------------------------------------------------------------ #
    def _tenant_failed(self, tenant: Tenant) -> None:
        """Tenant pump error callback: schedule a supervised restart.

        Called on the loop thread from the failing pump.  The crash is
        already isolated — only this tenant's stream and tickets were failed
        — so the supervisor task just owns the backoff/restart cycle.
        """
        if self._closing or tenant.name in self._supervising:
            return
        self._supervising.add(tenant.name)
        task = asyncio.ensure_future(self._supervise(tenant))
        self._restart_tasks.add(task)
        task.add_done_callback(self._restart_tasks.discard)

    async def _supervise(self, tenant: Tenant) -> None:
        """Restart one failed tenant with bounded attempts + exponential backoff."""
        supervisor = self.spec.supervisor
        try:
            while not self._closing:
                if tenant.restarts >= supervisor.max_restarts:
                    tenant.supervision_exhausted = True
                    reason = (
                        f"restart budget exhausted ({supervisor.max_restarts} "
                        f"restarts); tenant stays failed"
                    )
                    tenant.set_health(FAILED, reason)
                    self._log_supervisor(tenant, "gave_up", reason)
                    return
                delay_s = supervisor.backoff_s(tenant.restarts)
                attempt = tenant.restarts + 1
                tenant.set_health(
                    RESTARTING,
                    f"restart attempt {attempt}/{supervisor.max_restarts} "
                    f"after {delay_s:.3f}s backoff",
                )
                self._log_supervisor(
                    tenant, "backoff", f"attempt {attempt} in {delay_s:.3f}s"
                )
                await asyncio.sleep(delay_s)
                if self._closing:
                    return
                try:
                    # boot() replays/fast-forwards synchronously on the loop
                    # thread; neighbours pause briefly but never fail.
                    tenant.restart()
                except Exception as error:  # noqa: BLE001 - retried or given up
                    tenant.set_health(FAILED, f"restart attempt {attempt} failed: {error!r}")
                    self._log_supervisor(tenant, "restart_failed", repr(error))
                    continue
                self._log_supervisor(
                    tenant,
                    "restarted",
                    f"attempt {attempt}; resumed at event {tenant.resumed_at_event}",
                )
                return
        finally:
            self._supervising.discard(tenant.name)

    def _log_supervisor(self, tenant: Tenant, action: str, detail: str) -> None:
        tenant.log_record(
            {
                "kind": "supervisor",
                "tenant": tenant.name,
                "action": action,
                "reason": detail,
                "restarts": tenant.restarts,
                "events_consumed": tenant.stream.events_consumed,
            }
        )

    # ------------------------------------------------------------------ #
    # Fault + server-level event logging
    # ------------------------------------------------------------------ #
    def _record_fault(self, event: FaultEvent) -> None:
        """Route one fired fault into the event logs (any thread)."""
        record = event.to_record()
        tenant = self.tenants.get(event.tenant) if event.tenant else None
        if tenant is not None:
            record["events_consumed"] = tenant.stream.events_consumed
            tenant.log_record(record)
        else:
            self._log_server_record(record)

    def _log_server_record(self, record: dict) -> None:
        """Append one record to ``_server.ndjson`` (server-level faults).

        The leading underscore cannot collide with a tenant log: tenant
        slugs must start with a letter or digit.
        """
        if self.event_log_dir is None:
            return
        if self.shard_index is not None:
            record = {"shard": self.shard_index, **record}
        stem = (
            "_server.ndjson"
            if self.shard_index is None
            else f"_server-shard{self.shard_index}.ndjson"
        )
        with self._server_log_lock:
            if self._server_log_file is None:
                self._server_log_file = (self.event_log_dir / stem).open(
                    "a", encoding="utf-8"
                )
            self._server_log_file.write(json.dumps(record, sort_keys=True) + "\n")
            self._server_log_file.flush()

    # ------------------------------------------------------------------ #
    async def status(self) -> dict:
        """The ``status`` op's health surface."""
        return {
            "name": self.spec.name,
            "pid": os.getpid(),
            "shard": self.shard_index,
            "uptime_s": time.perf_counter() - self._started,
            "closing": self._closing,
            "tenants": {name: tenant.status() for name, tenant in self.tenants.items()},
            "batching": self.batcher.stats(),
            "limits": self.spec.limits.to_dict(),
            "supervisor": self.spec.supervisor.to_dict(),
            "faults": self.fault_plan.stats() if self.fault_plan is not None else None,
        }

    # ------------------------------------------------------------------ #
    async def _drain(self) -> dict:
        self._closing = True
        # Stop any in-flight supervised restarts first: a tenant mid-backoff
        # stays failed (its done event is already set), one that finished
        # restarting drains like any healthy tenant.
        for task in list(self._restart_tasks):
            task.cancel()
        if self._restart_tasks:
            await asyncio.gather(*self._restart_tasks, return_exceptions=True)
        for tenant in self.tenants.values():
            tenant.stream.close()
            asyncio.ensure_future(tenant.pump(self.batcher))
        await asyncio.gather(*(tenant.done.wait() for tenant in self.tenants.values()))
        summary: dict = {}
        for name, tenant in self.tenants.items():
            entry = {
                "events_consumed": tenant.stream.events_consumed,
                "decisions": tenant.decisions,
                "error": repr(tenant.error) if tenant.error is not None else None,
                "health": tenant.health,
                "restarts": tenant.restarts,
                "checkpoint": str(tenant.checkpoint_path) if tenant.checkpoint_path else None,
            }
            if tenant.result is not None:
                entry["result"] = {
                    key: value for key, value in tenant.result.summary_row().items()
                }
                entry["arrivals"] = tenant.result.arrivals
                entry["completions"] = tenant.result.completions
            summary[name] = entry
        if self._server_log_file is not None:
            with self._server_log_lock:
                self._server_log_file.close()
                self._server_log_file = None
        return summary

    def _announce_fields(self) -> dict:
        return {
            "shard": self.shard_index,
            "tenants": sorted(self.tenants),
            "state_dir": str(self.state_dir) if self.state_dir is not None else None,
        }


# ---------------------------------------------------------------------- #
async def serve_endpoint(endpoint: Endpoint) -> dict:
    """Start ``endpoint``, announce it, serve until it drains; the drain summary.

    ``SIGTERM`` and ``SIGINT`` drain like the ``shutdown`` op.  Readiness
    prints one JSON line ``{"serving": {...}}`` (name, host, bound port, pid
    and the shape's own fields) so drivers can discover an ephemeral port;
    the exit prints ``{"shutdown": {...}}`` with the per-tenant summary.
    """
    host, port = await endpoint.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(sig, lambda: asyncio.ensure_future(endpoint.shutdown()))
    serving = {"name": endpoint.spec.name, "host": host, "port": port, "pid": os.getpid()}
    print(json.dumps({"serving": {**serving, **endpoint._announce_fields()}}), flush=True)
    summary = await endpoint.run_until_shutdown()
    print(json.dumps({"shutdown": summary}), flush=True)
    return summary


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the serve arguments to ``parser`` (shared with the unified CLI)."""
    parser.add_argument("spec", type=Path, help="ServeSpec JSON file")
    parser.add_argument("--host", default=None, help="override the spec's bind host")
    parser.add_argument(
        "--port", type=int, default=None, help="override the spec's port (0 = ephemeral)"
    )
    parser.add_argument(
        "--state-dir",
        type=Path,
        default=None,
        help="checkpoint directory (default: serve-state/<spec name>)",
    )
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="ignore existing checkpoints instead of resuming from them",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None, help="dataset cache directory"
    )
    parser.add_argument(
        "--event-log",
        type=Path,
        default=None,
        metavar="DIR",
        help="write one NDJSON event log per tenant into this directory "
        "(ingestable with 'repro report ingest')",
    )
    parser.add_argument(
        "--fault-plan",
        type=Path,
        default=None,
        metavar="PLAN",
        help="arm a seeded deterministic FaultPlan JSON (chaos testing): "
        "inject checkpoint/loop/trainer/frame/connection failures at the "
        "planned sites",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="scale out across K worker processes behind a routing front-end "
        "(overrides the spec's 'shards'; tenants partition round-robin by "
        "spec order, checkpoints stay bit-identical to a single process)",
    )
    parser.add_argument(
        "--shard-index",
        type=int,
        default=None,
        metavar="I",
        help=argparse.SUPPRESS,  # internal: run as worker I of a sharded front-end
    )


def run(args: argparse.Namespace) -> int:
    """Execute a parsed serve invocation (the unified CLI's dispatch target)."""
    spec = ServeSpec.load(args.spec)
    if args.host is not None:
        spec.host = args.host
    if args.port is not None:
        spec.port = args.port
    shards = args.shards if args.shards is not None else spec.shards
    if shards < 1:
        print(f"serve: --shards must be >= 1, got {shards}", file=sys.stderr)
        return 2
    fault_plan = FaultPlan.load(args.fault_plan) if args.fault_plan is not None else None
    state_dir = args.state_dir if args.state_dir is not None else Path("serve-state") / spec.name
    endpoint: Endpoint
    if args.shard_index is None and shards > 1:
        from .shard import ShardedFrontend

        endpoint = ShardedFrontend(
            spec,
            shards,
            state_dir,
            resume=not args.fresh,
            dataset_cache_dir=args.cache_dir,
            event_log_dir=args.event_log,
            fault_plan_path=args.fault_plan,
        )
    else:
        phases = None
        if args.shard_index is not None:
            # Worker mode (spawned by the front-end): host one round-robin
            # partition of the tenants on an ephemeral port, with the global
            # checkpoint phases so sharded state matches a single-process run.
            from .shard import worker_spec

            phases = checkpoint_phases(spec)
            spec = worker_spec(spec, args.shard_index, shards)
        endpoint = ArrangementServer(
            spec,
            state_dir=state_dir,
            resume=not args.fresh,
            dataset_cache_dir=args.cache_dir,
            event_log_dir=args.event_log,
            fault_plan=fault_plan,
            shard_index=args.shard_index,
            checkpoint_phase_overrides=phases,
        )
    try:
        asyncio.run(serve_endpoint(endpoint))
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C before handlers
        return 130
    return 0


def main(argv: list[str] | None = None) -> int:
    """``python -m repro serve`` — boot a serving process from a spec."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve a multi-tenant task-arrangement endpoint from a ServeSpec JSON.",
    )
    configure_parser(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
