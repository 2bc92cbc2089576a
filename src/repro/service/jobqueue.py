"""Multi-tenant admission queue: bounded depth, per-client quotas.

The queue is the service's admission-control point.  Submissions that
would exceed the global bound or the submitting client's quota are
refused *before* they consume any backend capacity, with a typed
:class:`~repro.errors.ServiceOverloadError` carrying the backpressure
facts (depth, limit, scope) the client needs to back off sensibly.

Rounds are drained FIFO with one twist: a run of consecutive ``correct``
jobs at the head is taken together — that is the coalescing window the
front-end merges into a single collective round.  Ingest and checkpoint
jobs are collective state *mutations* and run one per round, in order,
so every client observes a single consistent spectrum history.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigError, ServiceOverloadError

if TYPE_CHECKING:
    from repro.io.records import ReadBlock


@dataclass(frozen=True)
class ServicePolicy:
    """The admission-control knobs (fixed for a service's lifetime).

    ``max_pending`` bounds the whole queue; ``max_pending_per_client``
    bounds any one client's share of it (so a single aggressive client
    cannot starve the rest).  Both must admit at least one job."""

    max_pending: int = 64
    max_pending_per_client: int = 8

    def __post_init__(self) -> None:
        for name in ("max_pending", "max_pending_per_client"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )


@dataclass
class Job:
    """One admitted client submission, awaiting its collective round."""

    kind: str  # "ingest" | "correct" | "checkpoint"
    client: str
    future: asyncio.Future
    block: "ReadBlock | None" = None
    directory: str | None = None

    @property
    def n_reads(self) -> int:
        return 0 if self.block is None else len(self.block)


@dataclass
class JobQueue:
    """The bounded, quota-enforcing, coalescing-aware pending queue."""

    policy: ServicePolicy
    _pending: deque[Job] = field(default_factory=deque)
    _per_client: dict[str, int] = field(default_factory=dict)
    #: Admissions and rejections over the queue's lifetime.
    submitted: int = 0
    rejected: int = 0

    @property
    def depth(self) -> int:
        """Jobs admitted but not yet taken into a round."""
        return len(self._pending)

    @property
    def pressure(self) -> float:
        """Normalized backpressure signal in ``[0, 1]``: depth over the
        global bound.  1.0 means the next submission will be refused."""
        return self.depth / self.policy.max_pending

    def pending_for(self, client: str) -> int:
        """How many of a client's jobs are waiting (quota accounting)."""
        return self._per_client.get(client, 0)

    def submit(self, job: Job) -> None:
        """Admit a job or raise a typed rejection (never blocks)."""
        if self.depth >= self.policy.max_pending:
            self.rejected += 1
            raise ServiceOverloadError(
                f"admission queue is full ({self.depth}/"
                f"{self.policy.max_pending} pending); back off and retry",
                client=job.client,
                depth=self.depth,
                limit=self.policy.max_pending,
                scope="queue",
            )
        mine = self.pending_for(job.client)
        if mine >= self.policy.max_pending_per_client:
            self.rejected += 1
            raise ServiceOverloadError(
                f"client {job.client!r} is over quota ({mine}/"
                f"{self.policy.max_pending_per_client} pending jobs)",
                client=job.client,
                depth=mine,
                limit=self.policy.max_pending_per_client,
                scope="client",
            )
        self._pending.append(job)
        self._per_client[job.client] = mine + 1
        self.submitted += 1

    def _pop(self) -> Job:
        job = self._pending.popleft()
        left = self._per_client.get(job.client, 1) - 1
        if left:
            self._per_client[job.client] = left
        else:
            self._per_client.pop(job.client, None)
        return job

    def take_round(self) -> list[Job]:
        """The next collective round's jobs (empty when idle).

        A mutation (ingest/checkpoint) at the head runs alone; the whole
        run of consecutive correct jobs is taken together — the
        coalescing window."""
        if not self._pending:
            return []
        if self._pending[0].kind != "correct":
            return [self._pop()]
        batch: list[Job] = []
        while self._pending and self._pending[0].kind == "correct":
            batch.append(self._pop())
        return batch


__all__ = ["Job", "JobQueue", "ServicePolicy"]
