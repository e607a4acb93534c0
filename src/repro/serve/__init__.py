"""repro.serve — async multi-tenant task-arrangement serving.

One asyncio process hosts N tenants — each a (dataset, policy) pair driven
through the *same* replica-loop generator the offline runners use — behind a
newline-delimited-JSON TCP protocol, with cross-tenant rank batching, warm
restarts from run-state checkpoints, and a trace-replaying load generator.

The layer is fault tolerant: a supervised health state machine per tenant
(healthy → degraded → failed → restarting) with bounded in-process restarts
from the last checkpoint, protocol hardening (frame-size limits, per-request
deadlines, structured error codes, backpressure), seeded deterministic fault
injection (:mod:`repro.serve.faults`), and a load generator that retries
through transient failures with seq-based idempotent delivery.

It also scales out: ``shards > 1`` (spec field or ``--shards``) runs the
endpoint as K worker processes behind a routing front-end
(:mod:`repro.serve.shard`), bit-identical to a single-process deployment.
"""

from .batching import RankBatcher
from .faults import FAULT_SITES, FaultEvent, FaultPlan, FaultSpec, InjectedFault
from .loadgen import LoadgenError, Resilience, run_loadgen
from .protocol import (
    ERROR_CODES,
    RETRYABLE_CODES,
    ProtocolError,
    ProtocolLimits,
    ServeClient,
    decode_line,
    encode_line,
    error_response,
    event_from_wire,
    event_to_wire,
)
from .server import ArrangementServer, checkpoint_phases
from .shard import ShardedFrontend, partition_tenants, worker_spec
from .spec import ServeSpec, SupervisorSpec, TenantSpec
from .tenant import (
    DEGRADED,
    FAILED,
    HEALTH_STATES,
    HEALTHY,
    RESTARTING,
    ArrivalTicket,
    PushStream,
    Tenant,
    latency_percentiles,
)

__all__ = [
    "DEGRADED",
    "ERROR_CODES",
    "FAILED",
    "FAULT_SITES",
    "HEALTHY",
    "HEALTH_STATES",
    "RESTARTING",
    "RETRYABLE_CODES",
    "ArrangementServer",
    "ArrivalTicket",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "LoadgenError",
    "ProtocolError",
    "ProtocolLimits",
    "PushStream",
    "RankBatcher",
    "Resilience",
    "ServeClient",
    "ServeSpec",
    "ShardedFrontend",
    "SupervisorSpec",
    "Tenant",
    "TenantSpec",
    "checkpoint_phases",
    "decode_line",
    "encode_line",
    "error_response",
    "event_from_wire",
    "event_to_wire",
    "latency_percentiles",
    "partition_tenants",
    "run_loadgen",
    "worker_spec",
]
