"""The prior work's dynamic master-worker load balancing (ablation).

Jammula et al. — whose design the paper contrasts itself with — used "a
dynamic work allocation scheme that depends upon a global master which
coordinates the entire work allocation mechanism ... the actual error
correction is performed by worker threads ... who fetch chunks of
sequences from the work-queue."

This module implements that scheme on the distributed runtime so the
ablation benchmark can compare all three policies on the same bursty
dataset:

* **none** — contiguous file chunks (the imbalanced baseline);
* **static** — the paper's hash redistribution
  (:func:`repro.parallel.loadbalance.redistribute_reads`);
* **dynamic** — this module: rank 0 is the global master holding the read
  set; workers request chunks as they drain them, so bursty chunks
  naturally spread over whoever is free.

The master dedicates itself to coordination (handing out work and serving
its spectrum shard), which is the scheme's intrinsic cost: one rank
corrects nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import ReptileConfig
from repro.core.corrector import CorrectionResult, ReptileCorrector
from repro.io.records import ReadBlock
from repro.parallel.build import RankSpectra
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.lookup.stack import compile_stacks
from repro.parallel.server import CorrectionProtocol
from repro.simmpi.communicator import Communicator
from repro.simmpi.message import Message

if TYPE_CHECKING:
    from repro.parallel.backend import SessionBackend

#: Worker -> master: "give me a chunk" (payload: None).
WORK_REQUEST_TAG = 16
#: Master -> worker: a chunk of reads, or None when the queue is empty.
WORK_ASSIGN_TAG = 17


def correct_dynamic(
    comm: Communicator,
    full_block: ReadBlock | None,
    backend: "SessionBackend",
    chunk_size: int | None = None,
) -> CorrectionResult:
    """Correct with master-coordinated dynamic chunk allocation.

    ``backend`` is the rank's :class:`~repro.parallel.backend.
    SessionBackend` (configuration, heuristics and serving spectra all
    come from it — the caller hands over one endpoint, not loose
    tables).  ``full_block`` must be the complete read set on rank 0
    (ignored elsewhere).  Returns each rank's corrected reads; the
    master (rank 0) returns an empty result.  Collective.
    """
    config = backend.config
    heuristics = backend.heuristics
    spectra = backend.spectra
    chunk_size = chunk_size or config.chunk_size
    if comm.size == 1:
        # Degenerate case: nobody to coordinate; correct directly.
        from repro.parallel.correct import correct_distributed

        return correct_distributed(
            comm, full_block or ReadBlock.empty(), config, heuristics, spectra
        )
    protocol = CorrectionProtocol(
        comm, spectra.kmers, spectra.tiles, universal=heuristics.universal
    )
    if comm.rank == 0:
        result = _master(comm, full_block, protocol, chunk_size)
    else:
        result = _worker(comm, config, heuristics, spectra, protocol)
    protocol.finish()
    return result


def _master(
    comm: Communicator,
    full_block: ReadBlock | None,
    protocol: CorrectionProtocol,
    chunk_size: int,
) -> CorrectionResult:
    """Hand out chunks on request; serve spectrum lookups meanwhile."""
    if full_block is None:
        raise ValueError("rank 0 must hold the full read block")
    chunks = list(full_block.chunks(chunk_size)) if len(full_block) else []
    state = {"next": 0, "exhausted_workers": 0}
    n_workers = comm.size - 1

    def on_work_request(msg: Message) -> None:
        if state["next"] < len(chunks):
            chunk = chunks[state["next"]]
            state["next"] += 1
            payload = chunk.to_wire()
            comm.stats.bump("chunks_assigned")
        else:
            payload = None
            state["exhausted_workers"] += 1
        comm.send(msg.source, payload, tag=WORK_ASSIGN_TAG)

    protocol.handlers[WORK_REQUEST_TAG] = on_work_request
    while state["exhausted_workers"] < n_workers:
        protocol.pump(block=True)
    return CorrectionResult.concat([], full_block.max_length)


def _worker(
    comm: Communicator,
    config: ReptileConfig,
    heuristics: HeuristicConfig,
    spectra: RankSpectra,
    protocol: CorrectionProtocol,
) -> CorrectionResult:
    """Fetch chunks from the master until the queue drains; correct them."""
    assignment: dict[str, object] = {"chunk": None, "pending": False}

    def on_assign(msg: Message) -> None:
        assignment["chunk"] = msg.payload
        assignment["pending"] = False

    protocol.handlers[WORK_ASSIGN_TAG] = on_assign

    stacks = compile_stacks(comm, spectra, heuristics, protocol=protocol)
    corrector = ReptileCorrector(config, stacks)
    results: list[CorrectionResult] = []
    width = 0
    while True:
        assignment["pending"] = True
        comm.send(0, None, tag=WORK_REQUEST_TAG)
        while assignment["pending"]:
            protocol.pump(block=True)
        payload = assignment["chunk"]
        if payload is None:
            break
        chunk = ReadBlock.from_wire(payload)
        width = max(width, chunk.max_length)
        results.append(corrector.correct_block(chunk))
        comm.stats.bump("chunks_corrected")

    return CorrectionResult.concat(results, width)
