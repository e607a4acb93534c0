"""Process-sharded serving: a routing front-end over K worker processes.

``repro serve <spec> --shards K`` (or ``"shards": K`` in the spec) scales the
endpoint out across processes instead of sharing one event loop: the
:class:`ShardedFrontend` binds the spec's (host, port) and spawns K worker
processes — each ``repro serve <spec> --shard-index i`` hosting a
deterministic round-robin partition of the tenants on its own loop and an
ephemeral port.  The front-end

* **routes** ``event`` ops to the shard owning the request's tenant (one
  lazily-opened upstream connection per client connection per shard, so the
  strict request→response ordering of the protocol is preserved end to end);
* **advertises** the per-shard data-plane addresses in its aggregated
  ``status`` response (``routes``: tenant → {shard, host, port}), so smart
  clients — the load generator — connect straight to the owning shard and
  only fall back to the front-end while a shard is down;
* **fans out** ``shutdown`` (and ``SIGTERM``/``SIGINT``) to every worker,
  merging the per-tenant drain summaries into the single-process shape;
* **supervises** the workers: an exited worker process is relaunched under
  the spec's :class:`~repro.serve.spec.SupervisorSpec` budget/backoff, its
  tenants resume from their schedule-aligned checkpoints, and clients
  re-feed the tail through ``sequence_gap`` — exactly the PR-9 tenant
  supervision semantics, one level up.

Exactness: the tenant partition, the checkpoint file layout (one
``<state_dir>/<tenant>.npz`` per tenant, shared by all shapes) and the
checkpoint phases (:func:`repro.serve.server.checkpoint_phases`, computed
from the *global* tenant order and passed to every worker) all derive from
the spec alone, and each tenant's trajectory depends only on its own event
sequence — so a K-shard deployment drains a byte-identical state tree to a
single-process server fed the same events.

Thread budget: each worker process exports ``REPRO_NUM_THREADS =
max_threads() // K`` (see :func:`repro.nn.threads.blas_share`) unless the
operator pinned the knob, so ``shards × BLAS threads`` never oversubscribes
the machine.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path

from ..api.registry import registry_payload
from ..nn.threads import ENV_VAR as THREADS_ENV_VAR
from ..nn.threads import blas_share
from .protocol import decode_line, encode_line, error_response
from .server import checkpoint_phases
from .spec import ServeSpec, TenantSpec

__all__ = ["ShardedFrontend", "partition_tenants", "run_frontend", "worker_spec"]

#: Seconds a spawned worker gets to print its announce line (dataset
#: generation + warm-up replay happen before the bind).
_WORKER_BOOT_TIMEOUT_S = 600.0


def partition_tenants(spec: ServeSpec, shards: int) -> list[list[TenantSpec]]:
    """Round-robin the spec's tenants over ``min(shards, len(tenants))`` shards.

    Deterministic from the spec's tenant order alone — the front-end, every
    worker and the load generator all derive the same mapping.  Empty shards
    are never created (more shards than tenants clamps down).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    used = min(shards, len(spec.tenants))
    groups: list[list[TenantSpec]] = [[] for _ in range(used)]
    for index, tenant in enumerate(spec.tenants):
        groups[index % used].append(tenant)
    return groups


def worker_spec(spec: ServeSpec, index: int, shards: int) -> ServeSpec:
    """The sub-spec one shard worker serves: its partition, ephemeral port."""
    groups = partition_tenants(spec, shards)
    if not (0 <= index < len(groups)):
        raise ValueError(
            f"shard index {index} out of range for {len(groups)} effective "
            f"shard(s) ({len(spec.tenants)} tenants, {shards} requested)"
        )
    return replace(
        spec,
        name=f"{spec.name}-shard{index}",
        port=0,
        tenants=groups[index],
        shards=1,
    )


class _Worker:
    """One spawned shard process: address, lifecycle, restart accounting."""

    def __init__(self, index: int, tenants: list[str]) -> None:
        self.index = index
        self.tenants = tenants
        self.process: asyncio.subprocess.Process | None = None
        self.host: str | None = None
        self.port: int | None = None
        self.pid: int | None = None
        self.restarts = 0
        self.failed = False

    @property
    def alive(self) -> bool:
        return (
            self.process is not None
            and self.process.returncode is None
            and self.port is not None
        )

    def to_status(self) -> dict:
        return {
            "alive": self.alive,
            "failed": self.failed,
            "host": self.host,
            "port": self.port,
            "pid": self.pid,
            "restarts": self.restarts,
            "tenants": list(self.tenants),
        }


class ShardedFrontend:
    """The routing/supervising front-end of a ``--shards K`` deployment."""

    def __init__(
        self,
        spec: ServeSpec,
        shards: int,
        state_dir: str | Path,
        resume: bool = True,
        dataset_cache_dir: str | Path | None = None,
        event_log_dir: str | Path | None = None,
        fault_plan_path: str | Path | None = None,
    ) -> None:
        if shards < 2:
            raise ValueError(f"a sharded front-end needs shards >= 2, got {shards}")
        self.spec = spec
        self.groups = partition_tenants(spec, shards)
        self.shards = len(self.groups)
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.resume = resume
        self.dataset_cache_dir = dataset_cache_dir
        self.event_log_dir = event_log_dir
        self.fault_plan_path = fault_plan_path
        self.workers = [
            _Worker(index, [tenant.name for tenant in group])
            for index, group in enumerate(self.groups)
        ]
        #: tenant name → owning shard index (the routing table).
        self.routes: dict[str, int] = {
            tenant.name: index
            for index, group in enumerate(self.groups)
            for tenant in group
        }
        self.shutdown_summary: dict | None = None
        self._server: asyncio.AbstractServer | None = None
        self._spec_path = self.state_dir / "_frontend-spec.json"
        self._started = time.perf_counter()
        self._closing = False
        self._shutdown_task: asyncio.Task | None = None
        self._shutdown_complete = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()
        self._monitor_tasks: set[asyncio.Task] = set()
        self._drain_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _worker_command(self, index: int) -> list[str]:
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            str(self._spec_path),
            "--shard-index",
            str(index),
            "--shards",
            str(self.shards),
            "--state-dir",
            str(self.state_dir),
        ]
        if not self.resume:
            command.append("--fresh")
        if self.dataset_cache_dir is not None:
            command.extend(["--cache-dir", str(self.dataset_cache_dir)])
        if self.event_log_dir is not None:
            command.extend(["--event-log", str(self.event_log_dir)])
        if self.fault_plan_path is not None:
            command.extend(["--fault-plan", str(self.fault_plan_path)])
        return command

    def _worker_env(self) -> dict[str, str]:
        env = dict(os.environ)
        # Workers must import repro regardless of how the front-end was
        # launched; prepend the package root to PYTHONPATH.
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )
        # Split the BLAS thread budget across the shard processes unless the
        # operator pinned it explicitly (see repro.nn.threads).
        env[THREADS_ENV_VAR] = str(blas_share(self.shards))
        return env

    async def _spawn(self, worker: _Worker) -> None:
        """Launch one worker process and wait for its announce line."""
        process = await asyncio.create_subprocess_exec(
            *self._worker_command(worker.index),
            stdout=asyncio.subprocess.PIPE,
            stderr=None,  # workers share the front-end's stderr
            env=self._worker_env(),
        )
        worker.process = process
        worker.pid = process.pid
        worker.host = worker.port = None
        try:
            line = await asyncio.wait_for(
                process.stdout.readline(), timeout=_WORKER_BOOT_TIMEOUT_S
            )
        except TimeoutError:
            process.kill()
            raise RuntimeError(
                f"shard {worker.index} did not announce within "
                f"{_WORKER_BOOT_TIMEOUT_S:.0f}s"
            ) from None
        if not line:
            raise RuntimeError(
                f"shard {worker.index} exited before announcing "
                f"(returncode {process.returncode})"
            )
        announce = json.loads(line).get("serving", {})
        worker.host = str(announce["host"])
        worker.port = int(announce["port"])
        task = asyncio.ensure_future(self._monitor(worker, process))
        self._monitor_tasks.add(task)
        task.add_done_callback(self._monitor_tasks.discard)

    async def _monitor(self, worker: _Worker, process) -> None:
        """Drain the worker's stdout, then supervise an unexpected exit."""
        while True:
            line = await process.stdout.readline()
            if not line:
                break
        await process.wait()
        if self._closing or process is not worker.process:
            return
        worker.host = worker.port = None
        await self._supervise(worker)

    async def _supervise(self, worker: _Worker) -> None:
        """Relaunch a dead worker under the spec's supervisor budget."""
        supervisor = self.spec.supervisor
        while not self._closing:
            if worker.restarts >= supervisor.max_restarts:
                worker.failed = True
                return
            delay_s = supervisor.backoff_s(worker.restarts)
            worker.restarts += 1
            await asyncio.sleep(delay_s)
            if self._closing:
                return
            try:
                # The relaunched process resumes every hosted tenant from its
                # schedule-aligned checkpoint; clients re-feed the tail.
                await self._spawn(worker)
            except (RuntimeError, OSError, ValueError):
                continue
            return

    # ------------------------------------------------------------------ #
    async def start(self) -> tuple[str, int]:
        """Write the worker spec, spawn every shard, bind the front socket."""
        self._spec_path.write_text(self.spec.to_json() + "\n")
        await asyncio.gather(*(self._spawn(worker) for worker in self.workers))
        self._server = await asyncio.start_server(
            self._handle,
            self.spec.host,
            self.spec.port,
            limit=self.spec.limits.max_frame_bytes,
        )
        self._started = time.perf_counter()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "front-end not started"
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    # ------------------------------------------------------------------ #
    # Request routing
    # ------------------------------------------------------------------ #
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        #: shard index → (reader, writer) upstream connection of this client.
        upstream: dict[int, tuple[asyncio.StreamReader, asyncio.StreamWriter]] = {}
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError:
                    break
                except asyncio.LimitOverrunError:
                    while True:
                        chunk = await reader.read(self.spec.limits.max_frame_bytes)
                        if not chunk or b"\n" in chunk:
                            break
                    writer.write(
                        encode_line(
                            error_response(
                                "frame_too_large",
                                f"request line exceeds max_frame_bytes "
                                f"({self.spec.limits.max_frame_bytes})",
                                max_frame_bytes=self.spec.limits.max_frame_bytes,
                            )
                        )
                    )
                    await writer.drain()
                    continue
                try:
                    request = decode_line(line)
                except Exception as error:  # noqa: BLE001 - answered on the wire
                    writer.write(encode_line(error_response("bad_request", str(error))))
                    await writer.drain()
                    continue
                response = await self._dispatch(request, line, upstream)
                writer.write(encode_line(response))
                await writer.drain()
                if request.get("op") == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            for _, up_writer in upstream.values():
                up_writer.close()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, request: dict, raw_line: bytes, upstream: dict) -> dict:
        op = request.get("op")
        if op == "event":
            return await self._route_event(request, raw_line, upstream)
        if op == "status":
            return {"ok": True, "status": await self.status()}
        if op == "policies":
            return {"ok": True, "policies": registry_payload()}
        if op == "ping":
            return {"ok": True}
        if op == "shutdown":
            summary = await self.shutdown()
            return {"ok": True, "shutdown": summary}
        return error_response("unknown_op", f"unknown op {op!r}")

    async def _route_event(self, request: dict, raw_line: bytes, upstream: dict) -> dict:
        if self._closing:
            return error_response("draining", "server is draining; no new events accepted")
        name = request.get("tenant")
        shard = self.routes.get(name)
        if shard is None:
            return error_response(
                "unknown_tenant",
                f"unknown tenant {name!r}; hosted tenants: {sorted(self.routes)}",
            )
        worker = self.workers[shard]
        if worker.failed:
            return error_response(
                "tenant_failed",
                f"shard {shard} (hosting tenant {name!r}) failed permanently "
                f"after {worker.restarts} restart(s)",
            )
        if not worker.alive:
            return error_response(
                "tenant_restarting",
                f"shard {shard} (hosting tenant {name!r}) is restarting; retry shortly",
                retry_after_ms=100,
            )
        try:
            if shard not in upstream:
                upstream[shard] = await asyncio.open_connection(
                    worker.host, worker.port, limit=self.spec.limits.max_frame_bytes
                )
            up_reader, up_writer = upstream[shard]
            up_writer.write(raw_line)
            await up_writer.drain()
            line = await up_reader.readline()
            if not line:
                raise ConnectionError("shard closed the connection")
            return decode_line(line)
        except (ConnectionError, OSError):
            # The shard died mid-exchange; drop the upstream connection and
            # let the (idempotent, seq-carrying) client retry through the
            # supervision window.
            stale = upstream.pop(shard, None)
            if stale is not None:
                stale[1].close()
            return error_response(
                "tenant_restarting",
                f"shard {shard} (hosting tenant {name!r}) dropped the "
                "connection; retry shortly",
                retry_after_ms=100,
            )

    # ------------------------------------------------------------------ #
    async def _worker_request(self, worker: _Worker, payload: dict) -> dict | None:
        """One throwaway-connection control request to a worker; None if down."""
        if not worker.alive:
            return None
        try:
            up_reader, up_writer = await asyncio.open_connection(
                worker.host, worker.port, limit=self.spec.limits.max_frame_bytes
            )
        except (ConnectionError, OSError):
            return None
        try:
            up_writer.write(encode_line(payload))
            await up_writer.drain()
            line = await up_reader.readline()
            if not line:
                return None
            return decode_line(line)
        except (ConnectionError, OSError):
            return None
        finally:
            up_writer.close()
            with contextlib.suppress(Exception):
                await up_writer.wait_closed()

    async def status(self) -> dict:
        """The aggregated health surface: every shard's tenants + routes."""
        responses = await asyncio.gather(
            *(self._worker_request(worker, {"op": "status"}) for worker in self.workers)
        )
        tenants: dict[str, dict] = {}
        shards: dict[str, dict] = {}
        batching: dict[str, float] = {}
        for worker, response in zip(self.workers, responses):
            entry = worker.to_status()
            if response is not None and response.get("ok"):
                status = response["status"]
                entry["uptime_s"] = status.get("uptime_s")
                for tenant_name, tenant_entry in status.get("tenants", {}).items():
                    tenants[tenant_name] = {**tenant_entry, "shard": worker.index}
                for key, value in (status.get("batching") or {}).items():
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        batching[key] = batching.get(key, 0) + value
            shards[str(worker.index)] = entry
        routes = {}
        for tenant_name, shard in self.routes.items():
            worker = self.workers[shard]
            routes[tenant_name] = {
                "shard": shard,
                "host": worker.host if worker.alive else None,
                "port": worker.port if worker.alive else None,
            }
        return {
            "name": self.spec.name,
            "pid": os.getpid(),
            "frontend": True,
            "shard_count": self.shards,
            "uptime_s": time.perf_counter() - self._started,
            "closing": self._closing,
            "tenants": tenants,
            "shards": shards,
            "routes": routes,
            "batching": batching,
            "limits": self.spec.limits.to_dict(),
            "supervisor": self.spec.supervisor.to_dict(),
        }

    # ------------------------------------------------------------------ #
    async def shutdown(self) -> dict:
        """Fan the drain out to every worker; idempotent, safe to race."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(self._drain())
        return await asyncio.shield(self._shutdown_task)

    async def _drain(self) -> dict:
        self._closing = True
        summary: dict = {}
        responses = await asyncio.gather(
            *(self._worker_request(worker, {"op": "shutdown"}) for worker in self.workers)
        )
        for worker, response in zip(self.workers, responses):
            if response is not None and response.get("ok"):
                summary.update(response.get("shutdown", {}))
            else:
                for tenant_name in worker.tenants:
                    summary.setdefault(
                        tenant_name,
                        {
                            "error": f"shard {worker.index} unreachable at drain",
                            "health": "failed" if worker.failed else "restarting",
                            "restarts": worker.restarts,
                        },
                    )
            if worker.process is not None and worker.process.returncode is None:
                with contextlib.suppress(ProcessLookupError):
                    worker.process.terminate()
                with contextlib.suppress(TimeoutError):
                    await asyncio.wait_for(worker.process.wait(), timeout=30)
        self.shutdown_summary = summary
        self._shutdown_complete.set()
        return summary

    async def run_until_shutdown(self) -> dict:
        """Serve until a drain completes, then close the listener cleanly."""
        assert self._server is not None, "front-end not started"
        await self._shutdown_complete.wait()
        self._server.close()
        await self._server.wait_closed()
        if self._conn_tasks:
            _, pending = await asyncio.wait(set(self._conn_tasks), timeout=2.0)
            for task in pending:
                task.cancel()
        return self.shutdown_summary or {}


# ---------------------------------------------------------------------- #
async def _afrontend(
    spec: ServeSpec,
    shards: int,
    state_dir: Path,
    resume: bool,
    dataset_cache_dir: Path | None,
    event_log_dir: Path | None,
    fault_plan_path: Path | None,
    announce: bool = True,
) -> dict:
    frontend = ShardedFrontend(
        spec,
        shards,
        state_dir=state_dir,
        resume=resume,
        dataset_cache_dir=dataset_cache_dir,
        event_log_dir=event_log_dir,
        fault_plan_path=fault_plan_path,
    )
    host, port = await frontend.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(sig, lambda: asyncio.ensure_future(frontend.shutdown()))
    if announce:
        print(
            json.dumps(
                {
                    "serving": {
                        "name": spec.name,
                        "host": host,
                        "port": port,
                        "pid": os.getpid(),
                        "shards": frontend.shards,
                        "workers": {
                            str(worker.index): {
                                "host": worker.host,
                                "port": worker.port,
                                "pid": worker.pid,
                                "tenants": worker.tenants,
                            }
                            for worker in frontend.workers
                        },
                        "tenants": sorted(frontend.routes),
                        "state_dir": str(state_dir),
                    }
                }
            ),
            flush=True,
        )
    summary = await frontend.run_until_shutdown()
    if announce:
        print(json.dumps({"shutdown": summary}), flush=True)
    return summary


def run_frontend(spec: ServeSpec, shards: int, args: argparse.Namespace) -> int:
    """CLI entry: serve ``spec`` sharded K ways (dispatched from serve.run)."""
    state_dir = args.state_dir if args.state_dir is not None else Path("serve-state") / spec.name
    try:
        asyncio.run(
            _afrontend(
                spec,
                shards,
                state_dir,
                not args.fresh,
                args.cache_dir,
                args.event_log,
                args.fault_plan,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C before handlers
        return 130
    return 0
