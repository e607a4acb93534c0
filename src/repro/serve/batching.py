"""Same-tick rank batching across tenants.

Tenant pumps run concurrently on one asyncio loop; whenever several of them
reach their ``("rank", context)`` yield in the same event-loop tick, their
candidate scorings can share stacked network forwards exactly like lockstep
replicas do offline — tenants never interact, so batching only changes how
many gufunc launches the work costs, never any number.

:class:`RankBatcher` collects the tick's requests (``submit`` returns a
future; the flush runs via ``loop.call_soon``, i.e. after every pump that is
ready this tick has registered) and answers them with one
:func:`repro.core.vectorized.decide_lockstep` call, which routes every
policy type: framework tenants, synchronously or asynchronously trained,
share one call of the one decision path (each agent scores on its trainer's
scorer: the live network, or the async snapshot), and baselines answer
through their own ``rank_tasks``.  Per-tenant results are bit-identical to
the serial ``rank_tasks`` call regardless of batch composition (pinned by
the vectorized-equivalence tests), so batching can never perturb a tenant's
trajectory or its warm-restart equivalence.
"""

from __future__ import annotations

import asyncio

from ..core.vectorized import decide_lockstep
from ..crowd.platform import ArrivalContext

__all__ = ["RankBatcher"]


class RankBatcher:
    """Collects one asyncio tick's rank requests and answers them together.

    ``submit`` registers a request and schedules one flush with
    ``loop.call_soon`` — by the time the flush callback runs, every tenant
    pump that was ready this tick has reached its rank yield and registered,
    so concurrent arrivals across tenants share one
    :func:`~repro.core.vectorized.decide_lockstep` call.
    Requests arriving alone still flush immediately (a batch of one is the
    serial path).
    """

    def __init__(self) -> None:
        self._pending: list[tuple[object, ArrivalContext, asyncio.Future]] = []
        self._scheduled = False
        self.batches = 0
        self.requests = 0
        self.max_batch = 0

    def submit(self, tenant, context: ArrivalContext) -> asyncio.Future:
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending.append((tenant, context, future))
        if not self._scheduled:
            self._scheduled = True
            loop.call_soon(self._flush)
        return future

    def _flush(self) -> None:
        batch, self._pending = self._pending, []
        self._scheduled = False
        if not batch:
            return
        self.batches += 1
        self.requests += len(batch)
        self.max_batch = max(self.max_batch, len(batch))
        try:
            rankings = decide_lockstep([(tenant.policy, context) for tenant, context, _ in batch])
        except BaseException as error:  # noqa: BLE001 - delivered to the waiters
            for _, _, future in batch:
                if not future.done():
                    future.set_exception(error)
            return
        for (_, _, future), ranking in zip(batch, rankings):
            if not future.done():
                future.set_result(ranking)

    def stats(self) -> dict:
        return {
            "batches": self.batches,
            "requests": self.requests,
            "mean_batch": self.requests / self.batches if self.batches else 0.0,
            "max_batch": self.max_batch,
        }
