"""Distributed-memory Reptile: the paper's contribution.

Both spectra are *distributed* across ranks — every k-mer and tile has an
owning rank, a range of hashed keys (:mod:`repro.parallel.ownership`), and
(for load balancing) every read one, ``hashFunction(seq) % nranks`` — and
error correction relies on message passing for counts the local rank does
not hold:

* Step I   — partitioned parallel reading (:mod:`repro.io.partition`),
* Step II  — local spectrum construction split into owned (``hashKmer``)
  and non-owned (``readsKmer``) tables (:mod:`repro.parallel.build`),
* Step III — ``MPI_Alltoallv`` count exchange so owners hold true global
  counts, then thresholding (:mod:`repro.parallel.exchange`),
* Step IV  — correction with a request/response protocol for remote
  lookups (:meth:`~repro.parallel.session.CorrectionSession.correct`,
  :mod:`repro.parallel.server`) over one reliable-request layer that every client waits through
  (:mod:`repro.parallel.reliable`),
* static load balancing by hashing whole reads to ranks
  (:mod:`repro.parallel.loadbalance`),
* the paper's heuristics — universal messages, read-kmer/tile retention,
  allgather replication, remote-lookup caching, batched reads tables,
  and the future-work partial replication
  (:mod:`repro.parallel.heuristics`; the replication itself is
  :func:`repro.parallel.build.apply_replication`),
* count resolution as a stack of local tiers per spectrum — the
  authoritative tables, then the caches — and one lookup round to the
  owners for what both leave open, compiled once per rank and shared
  by every resolution path (:mod:`repro.parallel.lookup`): a rank's
  whole share asks one request per owner per dependent round, each
  candidate's look-ahead tiles in the same round.
"""

from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.ownership import sequence_owner
from repro.parallel.build import RankSpectra
from repro.parallel.loadbalance import redistribute_reads
from repro.parallel.dynamicbalance import correct_dynamic
from repro.parallel.lookup import (
    LookupStack,
    RouteTable,
    ShardServer,
    StackPair,
    compile_stacks,
    resolution_order,
    tier_order,
)
from repro.parallel.memory import RankMemoryReport
from repro.parallel.report import run_report, write_run_report
from repro.parallel.session import (
    CheckpointOp,
    CorrectionSession,
    CorrectOp,
    IngestOp,
    SessionOpRunner,
    SessionRankReport,
)
from repro.parallel.driver import (
    ParallelReptile,
    ParallelRunResult,
    ParallelSession,
    RankReport,
)

__all__ = [
    "HeuristicConfig",
    "sequence_owner",
    "RankSpectra",
    "redistribute_reads",
    "correct_dynamic",
    "LookupStack",
    "RouteTable",
    "ShardServer",
    "StackPair",
    "compile_stacks",
    "resolution_order",
    "tier_order",
    "RankMemoryReport",
    "run_report",
    "write_run_report",
    "ParallelReptile",
    "ParallelRunResult",
    "ParallelSession",
    "RankReport",
    "CorrectionSession",
    "SessionOpRunner",
    "SessionRankReport",
    "IngestOp",
    "CorrectOp",
    "CheckpointOp",
]
