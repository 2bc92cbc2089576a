"""Spectrum-as-a-service: the async front-end over session backends.

ROADMAP item 2's serving layer.  The paper's pipeline is a one-shot
batch program; this package turns the long-lived
:class:`~repro.parallel.session.CorrectionSession` fleet into a
*service*: clients submit read batches against an already-open
distributed spectrum, and the front-end handles everything a
multi-tenant deployment needs between the client and the collective
backend verbs:

* **admission control** — a bounded :class:`JobQueue` with per-client
  quotas; over-limit submissions are refused with a typed
  :class:`~repro.errors.ServiceOverloadError` instead of queueing
  unboundedly (:class:`ServicePolicy` holds the knobs);
* **coalescing** — compatible correct submissions waiting in the queue
  are merged into *one* collective ``correct()`` round, so N concurrent
  clients cost one round's protocol handshake instead of N;
* **backpressure** — queue depth and a normalized pressure signal are
  readable at any time, and every rejection carries them;
* **accounting** — a :class:`ServiceReport`
  (``service_{submitted,coalesced,rejected,rounds}``) that flows into
  ``run_report``'s ``service`` section.

The split (see ``docs/SERVICE.md``): :class:`SpectrumService` is the
asyncio front-end and drives the backend fleet itself — a background
``run_spmd`` of the persistent :class:`ServingProgram` serving loop,
fed through two queues, its commands relayed in-band by rank 0 — and
everything below the front-end touches spectrum state only through the
:class:`~repro.parallel.session.CorrectionSession` verbs (lint rule
MPI012 enforces this statically).
"""

from repro.errors import ServiceError, ServiceOverloadError
from repro.service.frontend import (
    ServiceReport,
    ServiceRunResult,
    SpectrumService,
)
from repro.service.jobqueue import Job, JobQueue, ServicePolicy
from repro.service.program import (
    SERVICE_CMD_TAG,
    SERVICE_RESULT_TAG,
    ServingProgram,
)

__all__ = [
    "Job",
    "JobQueue",
    "SERVICE_CMD_TAG",
    "SERVICE_RESULT_TAG",
    "ServiceError",
    "ServiceOverloadError",
    "ServicePolicy",
    "ServiceReport",
    "ServiceRunResult",
    "ServingProgram",
    "SpectrumService",
]
