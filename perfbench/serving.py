"""The ``serve`` workload: an open-loop client against ``python -m repro serve``.

The benchmark writes a two-tenant serve spec (the tenant shapes of
``examples/specs/serve_ci.json``, policies seeded from ``--seed``), boots one
unsharded server process, and drives it from this process with one
connection per tenant.  The client is **open-loop**: every trace event falls
due at its trace timestamp, compressed so the ladder step's mean rate holds
(the trace's burstiness is kept), and is written at its due time whether or
not earlier requests have been answered.  Latency runs from the due time to
the response, so a server stall shows in every request queued behind it.

The ladder has three fixed per-tenant rates; ``decision_ms`` is read at the
middle (nominal) rate, and ``max_rate_under_slo`` is the highest rate whose
step keeps the tail within ``SLO_MS`` with no failure and no growing
lateness.  A run whose client sent late (``client.lag_ms.tail`` above
``LAG_LIMIT_MS``) is marked invalid.  The untraced run then boots a fresh
server and floods it: the first ``flood`` online events of each tenant all
fall due at once, so the server alone sets the pace, and ``arrivals_per_s``
is the rate at which it answers them.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import DatasetSpec
from repro.crowd.events import EventType
from repro.eval.metrics import RequesterBenefitTracker, WorkerBenefitTracker
from repro.serve.protocol import decode_line, encode_line, event_to_wire

from .metrics import Report, p50, tail

ROOT = Path(__file__).resolve().parent.parent

#: Tenant policy of serve_ci.json: sync ddqn-worker, checkpoint every 25.
TENANT_POLICY = dict(hidden_dim=16, num_heads=2, batch_size=8, train_interval=4)
CHECKPOINT_EVERY = 25
#: Per-tenant ladder rates (events/s) and each step's share of the time;
#: the flood sends ``flood * --seconds`` events per tenant, about a quarter
#: of ``--seconds`` of work on a 2-core x86 box.
SHAPES = {
    "full": dict(
        scale=0.03, months=6, rates=(15.0, 30.0, 60.0), shares=(0.25, 0.5, 0.25), flood=30.0
    ),
    "tiny": dict(
        scale=0.03, months=2, rates=(20.0, 40.0, 60.0), shares=(0.25, 0.5, 0.25), flood=20.0
    ),
}
NOMINAL_STEP = 1
#: The step of the flood's records, whose sends are not paced.
FLOOD_STEP = -1
#: The tail latency limit that bench_serving already gates.
SLO_MS = 50.0
#: A client that sent later than this (tail) did not hold the schedule.
LAG_LIMIT_MS = 20.0
#: Server-side BLAS threads: the client keeps the other core of the box.
SERVER_BLAS_THREADS = 1
#: Boots per untraced run; setup_s is their median.  The last two boots are
#: the servers the ladder and the flood drive.
SETUPS = 5
#: Tenant traces are fixed (seeds 7 and 8); ``--seed`` picks the policies'
#: initialisation and exploration and the simulated workers' behaviour, so
#: every seed offers the same event schedule.
TRACE_SEED = 7
#: Seconds the client waits for the last responses after the schedule.
DRAIN_S = 30.0


@dataclass
class _Sent:
    """One scheduled request and what became of it."""

    tenant: str
    step: int
    due: float
    is_arrival: bool
    pool: tuple
    sent: float = 0.0
    answered: float = 0.0
    response: dict | None = None


@dataclass
class _Tenant:
    name: str
    events: list
    warm_pool: set
    mean_gap_min: float
    records: list = field(default_factory=list)


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
def make_spec(seed: int, shape: dict) -> dict:
    """The serve spec for this seed: two serve_ci-shaped tenants."""
    tenants = []
    for index, name in enumerate(("alpha", "beta")):
        tenant_seed = 2 * seed + index
        tenants.append(
            {
                "name": name,
                "dataset": {
                    "scale": shape["scale"],
                    "num_months": shape["months"],
                    "seed": TRACE_SEED + index,
                },
                "runner": {"seed": tenant_seed, "checkpoint_every": CHECKPOINT_EVERY},
                "policy": {
                    "policy": "ddqn-worker",
                    "kwargs": dict(TENANT_POLICY, seed=tenant_seed),
                },
            }
        )
    return {"name": "perfbench-serve", "host": "127.0.0.1", "port": 0, "tenants": tenants}


def _tenant_traces(spec: dict) -> list[_Tenant]:
    """Rebuild each tenant's trace client-side (same spec, same seeds)."""
    tenants = []
    for entry in spec["tenants"]:
        dataset = DatasetSpec(**entry["dataset"]).build()
        warm, online = dataset.trace.split_warmup(dataset.warmup_end)
        pool: set = set()
        for event in warm:
            _apply(pool, event)
        events = online.events
        span = events[-1].timestamp - events[0].timestamp
        tenants.append(_Tenant(entry["name"], events, pool, span / (len(events) - 1)))
    return tenants


def _apply(pool: set, event) -> None:
    if event.event_type is EventType.TASK_CREATED:
        pool.add(event.subject_id)
    elif event.event_type is EventType.TASK_EXPIRED:
        pool.discard(event.subject_id)


def schedule(tenant: _Tenant, shape: dict, seconds: float) -> None:
    """Set the tenant's records: due times along the ladder (offsets in seconds).

    Within step ``k`` an event is due ``(timestamp - first step timestamp) /
    (rate_k * mean_gap)`` seconds after the step starts: the trace's mean
    event gap maps onto ``1 / rate_k`` and the gaps keep their shape.
    """
    pool = set(tenant.warm_pool)
    records: list[_Sent] = []
    cursor = 0
    step_start = 0.0
    for step, (rate, share) in enumerate(zip(shape["rates"], shape["shares"])):
        duration = seconds * share
        seconds_per_minute = 1.0 / (rate * tenant.mean_gap_min)
        origin = tenant.events[cursor].timestamp
        while cursor < len(tenant.events):
            event = tenant.events[cursor]
            offset = (event.timestamp - origin) * seconds_per_minute
            if offset >= duration:
                break
            _apply(pool, event)
            records.append(_record(tenant, pool, event, step, step_start + offset))
            cursor += 1
        if cursor >= len(tenant.events):
            raise RuntimeError(f"tenant {tenant.name}: trace too short for the ladder")
        step_start += duration
    tenant.records = records


def schedule_flood(tenant: _Tenant, count: int) -> None:
    """Set the tenant's records: its first ``count`` online events, all due at once."""
    if count > len(tenant.events):
        raise RuntimeError(f"tenant {tenant.name}: trace too short for the flood")
    pool = set(tenant.warm_pool)
    records = []
    for event in tenant.events[:count]:
        _apply(pool, event)
        records.append(_record(tenant, pool, event, FLOOD_STEP, 0.0))
    tenant.records = records


def _record(tenant: _Tenant, pool: set, event, step: int, due: float) -> _Sent:
    """The record of one event; an arrival keeps the open pool it must rank."""
    is_arrival = event.event_type is EventType.WORKER_ARRIVAL
    return _Sent(tenant.name, step, due, is_arrival, tuple(sorted(pool)) if is_arrival else ())


# ---------------------------------------------------------------------- #
# The server process
# ---------------------------------------------------------------------- #
class Server:
    """One ``python -m repro serve`` child process."""

    def __init__(self, spec_path: Path, state_dir: Path, event_log: Path | None) -> None:
        shutil.rmtree(state_dir, ignore_errors=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env["REPRO_NUM_THREADS"] = str(SERVER_BLAS_THREADS)
        command = [
            sys.executable, "-m", "repro", "serve", str(spec_path),
            "--state-dir", str(state_dir), "--fresh",
        ]
        if event_log is not None:
            shutil.rmtree(event_log, ignore_errors=True)
            command += ["--event-log", str(event_log)]
        self._stderr = open(state_dir.parent / f"{state_dir.name}.stderr", "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, env=env, cwd=ROOT
        )
        try:
            line = self.process.stdout.readline()
            serving = json.loads(line)["serving"]
        except (ValueError, KeyError) as error:
            self.kill()
            raise RuntimeError(f"server did not become ready: {line!r}") from error
        self.boot_s = time.perf_counter() - started
        self.host, self.port = serving["host"], int(serving["port"])

    def request(self, payload: dict) -> dict:
        """One control request on its own connection."""

        async def once():
            reader, writer = await asyncio.open_connection(self.host, self.port)
            try:
                writer.write(encode_line(payload))
                await writer.drain()
                return decode_line(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()

        return asyncio.run(once())

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def shutdown(self) -> None:
        """Drain the server and wait for the process to exit."""
        try:
            self.request({"op": "shutdown"})
            self.process.communicate(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._stderr.close()


# ---------------------------------------------------------------------- #
# The open-loop client
# ---------------------------------------------------------------------- #
async def _drive_tenant(server: Server, tenant: _Tenant, start: float) -> None:
    """Write every event at its due time; read the answers in order."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    in_flight: asyncio.Queue = asyncio.Queue()

    async def send():
        for seq, record in enumerate(tenant.records):
            delay = start + record.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            record.sent = time.perf_counter()
            writer.write(encode_line(event_to_wire(tenant.name, tenant.events[seq], seq=seq)))
            in_flight.put_nowait(record)
            await writer.drain()

    async def receive():
        for _ in tenant.records:
            line = await reader.readline()
            if not line:
                return
            record = in_flight.get_nowait()
            record.answered = time.perf_counter()
            record.response = decode_line(line)

    sender = asyncio.ensure_future(send())
    receiver = asyncio.ensure_future(receive())
    try:
        await sender
        await asyncio.wait_for(receiver, timeout=DRAIN_S)
    except asyncio.TimeoutError:
        pass  # unanswered requests count as failed
    finally:
        for task in (sender, receiver):
            task.cancel()
        await asyncio.gather(sender, receiver, return_exceptions=True)
        writer.close()
        await writer.wait_closed()


async def _poll_status(server: Server, done: asyncio.Event, depths: list) -> None:
    """Sample every tenant's queue depth through the ``status`` op."""
    while not done.is_set():
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(encode_line({"op": "status"}))
        await writer.drain()
        status = decode_line(await reader.readline())["status"]
        writer.close()
        await writer.wait_closed()
        depths.extend(entry["queue_depth"] for entry in status["tenants"].values())
        try:
            await asyncio.wait_for(done.wait(), timeout=0.25)
        except asyncio.TimeoutError:
            pass


def drive(server: Server, tenants: list[_Tenant], depths: list | None = None) -> float:
    """Run every tenant's schedule; returns the schedule's start time."""
    start = time.perf_counter() + 0.2

    async def main():
        done = asyncio.Event()
        poller = (
            asyncio.ensure_future(_poll_status(server, done, depths))
            if depths is not None
            else None
        )
        try:
            await asyncio.gather(*(_drive_tenant(server, tenant, start) for tenant in tenants))
        finally:
            done.set()
            if poller is not None:
                await poller

    asyncio.run(main())
    return start


# ---------------------------------------------------------------------- #
# Reading the records
# ---------------------------------------------------------------------- #
def _answered(record: _Sent) -> bool:
    return record.response is not None and bool(record.response.get("ok"))


@dataclass
class _Outcome:
    """What one schedule's records say."""

    start: float
    records: list
    errors: dict
    bad_rankings: int
    bad_skips: int

    @property
    def arrivals(self) -> list[_Sent]:
        return [record for record in self.records if record.is_arrival]

    @property
    def failed(self) -> list[_Sent]:
        """Arrivals refused, answered with an error or never answered."""
        return [record for record in self.arrivals if not _answered(record)]

    def latency_ms(self, record: _Sent) -> float:
        return 1e3 * (record.answered - (self.start + record.due))

    def answered(self, step: int | None = None) -> list[_Sent]:
        return [
            record
            for record in self.arrivals
            if _answered(record) and (step is None or record.step == step)
        ]

    def step_latencies(self, step: int) -> list[float]:
        return [self.latency_ms(record) for record in self.answered(step)]

    def lag_ms(self) -> list[float]:
        """How late each paced event was sent against its schedule."""
        return [
            1e3 * (r.sent - (self.start + r.due))
            for r in self.records
            if r.sent and r.step != FLOOD_STEP
        ]


def read(tenants: list[_Tenant], start: float) -> _Outcome:
    records = [record for tenant in tenants for record in tenant.records]
    errors: dict = {}
    bad_rankings = bad_skips = 0
    for record in records:
        if not _answered(record):
            code = "unanswered" if record.response is None else record.response.get("code")
            errors[code] = errors.get(code, 0) + 1
        elif record.is_arrival:
            decision = record.response["decision"]
            if decision is None:
                bad_skips += bool(record.pool)  # only an empty pool may be skipped
            elif sorted(decision["presented"]) != list(record.pool):
                bad_rankings += 1
    return _Outcome(start, records, errors, bad_rankings, bad_skips)


def _growing(latencies: list[float]) -> bool:
    """Lateness grows when the step's last quarter runs 10 ms behind its first."""
    quarter = len(latencies) // 4
    if quarter < 5:
        return False
    return statistics.median(latencies[-quarter:]) - statistics.median(latencies[:quarter]) > 10.0


def _max_rate_under_slo(outcome: _Outcome, shape: dict) -> tuple[float, str]:
    best = 0.0
    notes = []
    for step, rate in enumerate(shape["rates"]):
        latencies = outcome.step_latencies(step)
        failures = sum(1 for record in outcome.failed if record.step == step)
        tail_ms = tail(latencies)[0] if latencies else float("inf")
        growing = _growing(latencies)
        ok = tail_ms <= SLO_MS and not failures and not growing
        notes.append(f"{rate:g}/s tail {tail_ms:.1f} ms{' growing' if growing else ''}{' ok' if ok else ''}")
        if ok:
            best = max(best, rate)
    return best, "; ".join(notes)


# ---------------------------------------------------------------------- #
# The workload
# ---------------------------------------------------------------------- #
def run(seed: int, seconds: float, traced: bool, size: str, out_dir: Path) -> Report:
    """Run the serve workload and return its report."""
    shape = SHAPES[size]
    report = Report(workload="serve", seed=seed, traced=traced)
    work = out_dir / f"serve-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    spec = make_spec(seed, shape)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2) + "\n")
    tenants = _tenant_traces(spec)
    if traced:
        _run_traced(report, shape, seconds, tenants, spec_path, work)
    else:
        _run_untraced(report, shape, seconds, tenants, spec_path, work)
    return report


def _boot(spec_path: Path, work: Path) -> float:
    """Boot a server, shut it down, and return its boot time."""
    server = Server(spec_path, work / "state", None)
    server.shutdown()
    return server.boot_s


def _serve(spec_path: Path, work: Path, tenants: list[_Tenant], event_log=None, depths=None):
    """Boot a server, drive the tenants' records against it, shut it down.

    Returns the boot time, the outcome, the server's final ``status`` and its
    peak resident memory in MB.
    """
    server = Server(spec_path, work / "state", event_log)
    try:
        start = drive(server, tenants, depths)
        status = server.request({"op": "status"})["status"]
        rss_mb = server.peak_rss_mb()
    finally:
        server.shutdown()
    return server.boot_s, read(tenants, start), status, rss_mb


def _run_untraced(report, shape, seconds, tenants, spec_path, work) -> None:
    boots = [_boot(spec_path, work) for _ in range(SETUPS - 2)]
    for tenant in tenants:
        schedule(tenant, shape, seconds)
    boot, outcome, status, rss_mb = _serve(spec_path, work, tenants)
    boots.append(boot)
    _check_schedule(report, outcome)
    _check_answers(report, outcome, status)
    for tenant in tenants:
        schedule_flood(tenant, math.ceil(shape["flood"] * seconds))
    boot, flood, flood_status, flood_rss_mb = _serve(spec_path, work, tenants)
    boots.append(boot)
    _check_answers(report, flood, flood_status, "flood.")
    attempted = len(outcome.arrivals) + len(flood.arrivals)
    failed = len(outcome.failed) + len(flood.failed)
    report.attempted, report.failed = attempted, failed
    report.put("setup_s", p50(boots), f"median of {len(boots)} boots: " + " ".join(f"{b:.3f}" for b in boots))
    answered = flood.answered()
    span_s = max(record.answered for record in answered) - flood.start
    report.put(
        "arrivals_per_s", len(answered) / span_s, f"{len(answered)} flood arrivals in {span_s:.2f} s"
    )
    nominal = shape["rates"][NOMINAL_STEP]
    report.put_samples("decision_ms", outcome.step_latencies(NOMINAL_STEP))
    report.metrics["decision_ms.p50"] = (
        report.metrics["decision_ms.p50"][0],
        report.metrics["decision_ms.p50"][1] + f" at {nominal:g} events/s per tenant",
    )
    report.put("peak_rss_mb", rss_mb, f"server process under the ladder; {flood_rss_mb:.1f} MB under the flood")
    rate, note = _max_rate_under_slo(outcome, shape)
    report.put("max_rate_under_slo", rate, note)
    report.put("failed_share", failed / max(attempted, 1), f"{failed} of {attempted}")
    worker, requester = WorkerBenefitTracker(), RequesterBenefitTracker()
    for record in outcome.answered():
        decision = record.response["decision"]
        if decision:
            worker.record(0, decision["completed_rank"])
            requester.record(0, decision["completed_rank"], decision["quality_gain"])
    report.put("ndcg_cr", worker.ndcg_completion_rate().final, "ladder decision payloads")
    report.put("ndcg_qg", requester.ndcg_quality_gain().final, "ladder decision payloads")


def _run_traced(report, shape, seconds, tenants, spec_path, work) -> None:
    # Untraced reference over half the time, then the same schedule against
    # a server that writes its event log while the client polls ``status``.
    for tenant in tenants:
        schedule(tenant, shape, seconds / 2)
    _, reference, _, _ = _serve(spec_path, work, tenants)
    for tenant in tenants:
        schedule(tenant, shape, seconds / 2)
    events_dir = work / "events"
    depths: list = []
    boot, outcome, status, _ = _serve(spec_path, work, tenants, events_dir, depths)
    report.attempted, report.failed = len(outcome.arrivals), len(outcome.failed)
    for log in sorted(events_dir.glob("*.ndjson")):
        for line in log.read_text().splitlines():
            entry = json.loads(line)
            if entry.get("kind") == "decision":
                depths.append(entry["queue_depth"])
    decided = [record for record in outcome.answered(NOMINAL_STEP) if record.response["decision"]]
    rank_ms = [record.response["decision"]["latency_ms"] for record in decided]
    wait_ms = [
        outcome.latency_ms(record) - record.response["decision"]["latency_ms"] for record in decided
    ]
    report.put("serve.boot_s", boot)
    report.put("serve.rank_ms.p50", p50(rank_ms), f"{len(rank_ms)} decisions")
    value, percentile, count = tail(rank_ms)
    report.put("serve.rank_ms.tail", value, f"p{percentile:.2f} of {count}")
    value, percentile, count = tail(wait_ms)
    report.put("serve.wait_ms.tail", value, f"p{percentile:.2f} of {count}")
    report.put("serve.batch.mean", status["batching"]["mean_batch"], f"{status['batching']['batches']} batches")
    report.put(
        "serve.checkpoint.writes",
        sum(entry["checkpoint_offload"]["writes"] for entry in status["tenants"].values()),
    )
    report.put("serve.queue_depth.max", max(depths, default=0))
    report.put(
        "serve.errors",
        sum(outcome.errors.values()),
        ", ".join(f"{code}={count}" for code, count in sorted(outcome.errors.items())) or "none",
    )
    pools = [len(record.pool) for record in outcome.arrivals if record.pool]
    report.put("core.state.rows.mean", sum(pools) / max(len(pools), 1), "open tasks per arrival")
    traced_p50 = p50(outcome.step_latencies(NOMINAL_STEP))
    untraced_p50 = p50(reference.step_latencies(NOMINAL_STEP))
    report.put("trace.overhead", traced_p50 / untraced_p50 - 1.0, "nominal-step latency p50")
    report.put("trace.unattributed_share", 0.0, "client latency = serve.rank_ms + serve.wait_ms")
    _check_schedule(report, outcome)
    _check_answers(report, outcome, status)


def _check_schedule(report: Report, outcome: _Outcome) -> None:
    """The client sent every paced event on time, or the run is invalid."""
    value, percentile, count = tail(outcome.lag_ms())
    if report.traced:
        report.put("client.lag_ms.tail", value, f"p{percentile:.2f} of {count} sends")
    report.lines.append(f"client lag tail {value:.3f} ms (p{percentile:.2f} of {count} sends)")
    report.check(
        "client_on_schedule",
        value <= LAG_LIMIT_MS,
        f"lag tail {value:.3f} ms, limit {LAG_LIMIT_MS} ms" + ("" if value <= LAG_LIMIT_MS else "; run invalid"),
    )


def _check_answers(report: Report, outcome: _Outcome, status: dict, prefix: str = "") -> None:
    """Rankings are valid, and every arrival was answered or counted failed.

    ``status`` is the server's ``status`` op after the schedule: its
    per-tenant arrival and decision counters must match what the client got.
    """
    report.check(
        prefix + "rankings_are_permutations",
        outcome.bad_rankings == 0 and outcome.bad_skips == 0,
        f"{outcome.bad_rankings} bad rankings, {outcome.bad_skips} non-empty pools skipped",
    )
    unsent = sum(1 for record in outcome.arrivals if not record.sent)
    mismatched = []
    for name, entry in status["tenants"].items():
        answered = [record for record in outcome.answered() if record.tenant == name]
        decided = sum(1 for record in answered if record.response["decision"] is not None)
        if (entry["arrivals_fed"], entry["decisions"]) != (len(answered), decided):
            mismatched.append(
                f"{name}: server took {entry['arrivals_fed']} arrivals and made "
                f"{entry['decisions']} decisions; client got {len(answered)} answers, "
                f"{decided} decisions"
            )
    report.check(
        prefix + "arrivals_accounted",
        not unsent and not mismatched,
        "; ".join(mismatched)
        or f"{len(outcome.answered())} answered as the server counts them, "
        f"{len(outcome.failed)} failed, {unsent} never sent",
    )
