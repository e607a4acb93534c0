"""Process-sharded serving: a routing front-end over K worker processes.

``repro serve <spec> --shards K`` (or ``"shards": K`` in the spec) scales the
endpoint out across processes instead of sharing one event loop: the
:class:`ShardedFrontend` binds the spec's (host, port) and spawns K worker
processes — each ``repro serve <spec> --shard-index i`` hosting a
deterministic round-robin partition of the tenants on its own loop and an
ephemeral port.  The front-end is the hosting server's
:class:`~repro.serve.server.Endpoint` (same frames, connection loop, shared
ops and drain), with only these parts of its own:

* **routes** ``event`` ops to the shard owning the request's tenant (one
  lazily-opened upstream connection per client connection per shard, so the
  strict request→response ordering of the protocol is preserved end to end;
  forwards carry no deadline, which could leave a late answer to pair with
  the next request, and a shard that drops or tears its reply answers
  ``tenant_restarting``);
* **advertises** the per-shard data-plane addresses in its aggregated
  ``status`` response (``routes``: tenant → {shard, host, port}), so smart
  clients — the load generator — connect straight to the owning shard and
  only fall back to the front-end while a shard is down;
* **fans out** ``shutdown`` (and ``SIGTERM``/``SIGINT``) to every worker,
  merging the per-tenant drain summaries into the single-process shape;
* **supervises** the workers: an exited worker process is relaunched under
  the spec's :class:`~repro.serve.spec.SupervisorSpec` budget/backoff, its
  tenants resume from their schedule-aligned checkpoints, and clients
  re-feed the tail through ``sequence_gap`` — the in-process tenant
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

import asyncio
import contextlib
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from ..nn.threads import ENV_VAR as THREADS_ENV_VAR
from ..nn.threads import blas_share
from .protocol import MAX_ANSWER_BYTES, decode_line, error_response, request_once
from .server import Endpoint
from .spec import ServeSpec, TenantSpec

__all__ = ["ShardedFrontend", "partition_tenants", "worker_spec"]

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


class ShardedFrontend(Endpoint):
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
        super().__init__(spec)
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
        self._spec_path = self.state_dir / "_frontend-spec.json"
        self._monitor_tasks: set[asyncio.Task] = set()

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
    async def _prepare(self) -> None:
        """Write the worker spec and spawn every shard."""
        self._spec_path.write_text(self.spec.to_json() + "\n")
        await asyncio.gather(*(self._spawn(worker) for worker in self.workers))

    # ------------------------------------------------------------------ #
    # Request routing
    # ------------------------------------------------------------------ #
    async def _op_event(self, request: dict, line: bytes, upstream: dict) -> dict:
        """Forward the event's frame to its tenant's shard on this client's link.

        No deadline: a forward cancelled mid-read would leave the shard's
        late answer to pair with the client's next request on the link.
        """
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
                    worker.host, worker.port, limit=MAX_ANSWER_BYTES
                )
            up_reader, up_writer = upstream[shard]
            up_writer.write(line)
            await up_writer.drain()
            reply = await up_reader.readline()
            if not reply:
                raise ConnectionError("shard closed the connection")
            return decode_line(reply)
        except (OSError, ValueError):
            # The shard died mid-exchange (a reply torn by a kill does not
            # decode); drop the upstream connection and let the (idempotent,
            # seq-carrying) client retry through the supervision window.
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
        """One control request to a worker; None if it is down or answers garbage."""
        if not worker.alive:
            return None
        try:
            return await request_once(worker.host, worker.port, payload)
        except (OSError, ValueError):
            return None

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
    async def _drain(self) -> dict:
        """Fan the drain out to every worker and merge their summaries."""
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
        return summary

    def _announce_fields(self) -> dict:
        return {
            "shards": self.shards,
            "workers": {
                str(worker.index): {
                    "host": worker.host,
                    "port": worker.port,
                    "pid": worker.pid,
                    "tenants": worker.tenants,
                }
                for worker in self.workers
            },
            "tenants": sorted(self.routes),
            "state_dir": str(self.state_dir),
        }
