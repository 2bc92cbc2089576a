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

from repro.core.corrector import CorrectionResult, ReptileCorrector
from repro.io.records import ReadBlock
from repro.parallel.server import CorrectionProtocol
from repro.simmpi.communicator import Communicator
from repro.simmpi.message import Message

if TYPE_CHECKING:
    from repro.parallel.session import CorrectionSession

#: Worker -> master: "give me a chunk" (payload: None).
WORK_REQUEST_TAG = 16
#: Master -> worker: a chunk of reads, or None when the queue is empty.
WORK_ASSIGN_TAG = 17


def correct_dynamic(
    session: "CorrectionSession", full_block: ReadBlock | None
) -> CorrectionResult:
    """Correct with master-coordinated dynamic chunk allocation.

    ``session`` is the rank's finalized
    :class:`~repro.parallel.session.CorrectionSession`: the round runs
    on its Step IV endpoint — the same protocol and compiled lookup
    stacks :meth:`~repro.parallel.session.CorrectionSession.correct`
    uses, so the lookup round books its comm time on the session's
    timer.  ``full_block`` must be the complete read set on rank 0
    (ignored elsewhere); the master hands it out in pieces of
    ``config.chunk_size`` reads.  Returns each rank's corrected reads;
    the master (rank 0) returns an empty result.  Collective.
    """
    comm = session.comm
    if comm.size == 1:
        # Degenerate case: nobody to coordinate; correct directly.
        return session.correct(full_block or ReadBlock.empty())
    with session.timer.phase("error_correction"):
        protocol, stacks = session._open_round()
        if comm.rank == 0:
            result = _master(
                comm, full_block, protocol, session.config.chunk_size
            )
        else:
            corrector = ReptileCorrector(session.config, stacks)
            result = _worker(comm, corrector, protocol)
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
    corrector: ReptileCorrector,
    protocol: CorrectionProtocol,
) -> CorrectionResult:
    """Fetch chunks from the master until the queue drains; correct them."""
    assignment: dict[str, object] = {"chunk": None, "pending": False}

    def on_assign(msg: Message) -> None:
        assignment["chunk"] = msg.payload
        assignment["pending"] = False

    protocol.handlers[WORK_ASSIGN_TAG] = on_assign
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
