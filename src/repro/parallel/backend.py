"""The backend verb API: the only sanctioned surface over spectrum state.

ROADMAP item 2's service layer splits the stack into a *front-end*
(admission, coalescing, quotas — :mod:`repro.service`) and a *backend*
(the per-rank spectrum state and its collective verbs).  This module
formalizes the boundary: :class:`SessionBackend` is the structural
protocol every backend implements — today that is
:class:`~repro.parallel.session.CorrectionSession`, the reference
implementation — and the only way non-lookup code may touch spectrum
state.  Callers above the boundary (the service front-end, the CLI, the
benches) never see raw tables, protocols, or compiled stacks; they see
four collective verbs plus a handful of read-only views:

* :meth:`~SessionBackend.ingest` — merge a block's count deltas,
* :meth:`~SessionBackend.correct` — correct a block against the current
  spectrum,
* :meth:`~SessionBackend.finalize` — recompile the serving state,
* :meth:`~SessionBackend.checkpoint` — persist the raw state.

Lint rule MPI012 (:mod:`repro.analysis.modulerules`) enforces the
boundary statically: code under ``repro/service`` (or any other
non-``repro.parallel`` caller) that probes a count table or calls the
spectrum-construction internals directly is a layering regression.

Every mutating verb is **collective**: all ranks of the communicator
must call it together, in the same order.  The protocol is
``runtime_checkable`` so drivers can assert conformance
(``isinstance(obj, SessionBackend)``) without inheriting from anything.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:
    from repro.config import ReptileConfig
    from repro.core.corrector import CorrectionResult
    from repro.io.records import ReadBlock
    from repro.parallel.build import RankSpectra
    from repro.parallel.heuristics import HeuristicConfig
    from repro.simmpi.communicator import Communicator
    from repro.util.timer import PhaseTimer


@runtime_checkable
class SessionBackend(Protocol):
    """One rank's endpoint in the distributed spectrum, as verbs.

    Structural: any object with these members is a backend.  The
    reference implementation is
    :class:`~repro.parallel.session.CorrectionSession`; alternative
    backends (a remote proxy, a read-only replica) implement the same
    surface and slot under the same front-end unchanged.
    """

    # -- identity and read-only views ----------------------------------
    comm: Communicator
    config: ReptileConfig
    heuristics: HeuristicConfig

    @property
    def spectra(self) -> RankSpectra:
        """The serving-side spectra (finalize must have run)."""
        ...

    @property
    def finalized(self) -> bool:
        """Is the serving state current with everything ingested?"""
        ...

    @property
    def ingest_count(self) -> int:
        """Ingest calls over the backend's lifetime."""
        ...

    # -- the four collective verbs -------------------------------------
    def ingest(self, block: ReadBlock, timer: PhaseTimer | None = None) -> None:
        """Merge one block's count deltas into the distributed spectrum."""
        ...

    def correct(
        self, block: ReadBlock, *, timer: PhaseTimer | None = None
    ) -> CorrectionResult:
        """Correct one block against the current spectrum."""
        ...

    def finalize(self, timer: PhaseTimer | None = None) -> None:
        """Recompile the serving state from the raw shards."""
        ...

    def checkpoint(self, directory: str | os.PathLike) -> str:
        """Persist this rank's raw state; returns the written path."""
        ...

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Release the endpoint (protocol, compiled stacks); idempotent."""
        ...

    def __enter__(self) -> "SessionBackend":
        ...

    def __exit__(self, exc_type, exc, tb) -> None:
        ...


__all__ = ["SessionBackend"]
