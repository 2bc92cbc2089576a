"""Long-lived per-rank correction sessions.

A :class:`CorrectionSession` is the object ROADMAP item 2 asks for: it
outlives a single run, owns one rank's share of the distributed spectra
(the raw count shards, the compiled serving state, the Step IV protocol
endpoint and its recovery bindings), and exposes the pipeline as three
verbs instead of one fused program:

* :meth:`ingest` — merge a block's k-mer/tile count *deltas* into the
  distributed spectrum.  The block's windows are counted by sort, and
  each distinct ``(key, count)`` pair goes to its owner over the
  reliable DELTA exchange
  (:func:`~repro.parallel.exchange.exchange_deltas`), which rides the
  same alltoallv frames as the classic Step III build; the owner sums
  what arrives into its raw pairs.
* :meth:`correct` — correct a block against the current spectrum,
  repeatedly, with no rebuild in between: the serving tables, protocol
  and compiled lookup stack persist across calls.
* :meth:`checkpoint` / :meth:`resume` — persist the raw (pre-threshold)
  state through :mod:`repro.core.persist` session bundles and pick the
  session up in a later process.

Serving state is *derived*: thresholds are lossy, so a resumable session
keeps the unfiltered raw pairs and recompiles the serving side (filter,
read tables, replication, lookup stacks) at the next chunk boundary —
:meth:`finalize`, run lazily by :meth:`correct`.  A **one-shot** session
(``retain_raw=False``) drops its raw pairs once finalize has built the
serving tables from them; the classic
:func:`~repro.parallel.build.build_rank_spectra` build is literally
``ingest() + finalize()`` on a one-shot session, so the incremental path
and the classic path cannot drift apart.

Every mutating verb is collective: all ranks of the communicator must
call it together, in the same order.

:class:`SessionOpRunner` is the one place a rank program sequences
those verbs: it is handed an open session and executes ops
(:class:`IngestOp`, :class:`CorrectOp`, :class:`CheckpointOp`, and the
batch-only :class:`DynamicCorrectOp`) on reads that are already placed.
A batch run (``BatchProgram`` in :mod:`repro.parallel.driver`) is the op
list ``[ingest, correct]`` on a one-shot session; the service's
``ServingProgram`` is an open-ended op stream on a retained one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.config import ReptileConfig
from repro.core.corrector import CorrectionResult, ReptileCorrector
from repro.core.spectrum import block_kmer_ids, block_tile_ids, window_counts
from repro.errors import ConfigError, SessionError
from repro.hashing.counthash import CountHash, merge_pairs
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.io.records import ReadBlock
from repro.parallel.build import RankSpectra, apply_replication, fetch_read_table
from repro.parallel.dynamicbalance import correct_dynamic
from repro.parallel.exchange import exchange_deltas
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.lookup.planner import PrefetchExecutor
from repro.parallel.lookup.stack import StackPair, compile_stacks
from repro.parallel.memory import RankMemoryReport
from repro.parallel.recovery import RecoveryState, replicate_state
from repro.parallel.server import CorrectionProtocol
from repro.simmpi.communicator import Communicator
from repro.util.timer import PhaseTimer

#: A raw shard with no keys yet.
_NO_PAIRS = (np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint32))


def _serving_table(
    raw: tuple[np.ndarray, np.ndarray], min_count: int, *, hashed: bool
) -> CountHash | SortedSpectrum:
    """An owned shard from its raw ascending pairs, in the form its role
    fixes: a :class:`CountHash` for a kind that will hold the whole
    spectrum (allgathered, or a one-rank world), probed in whole-share
    batches; otherwise sealed, for the per-owner batches that serving
    it takes."""
    if hashed:
        return CountHash.from_counts(*raw, min_count=min_count)
    return SortedSpectrum.from_sorted(*raw, min_count=min_count)


class CorrectionSession:
    """One rank's long-lived endpoint in the distributed spectrum.

    Parameters
    ----------
    comm:
        The rank's communicator (fault plan and ledger included).
    config / heuristics:
        Algorithm parameters and execution heuristics, fixed for the
        session's lifetime.
    retain_raw:
        ``True`` (the session default) keeps the raw pre-threshold
        pairs after a finalize, so the session can keep ingesting and
        can checkpoint/resume.  ``False`` builds a **one-shot**
        session: a single finalize builds the serving tables, drops the
        raw pairs and seals the session; further ingests raise
        :class:`~repro.errors.SessionError`.
    timer:
        Default :class:`~repro.util.timer.PhaseTimer` phases accumulate
        into (each verb also accepts a per-call override).
    """

    def __init__(
        self,
        comm: Communicator,
        config: ReptileConfig,
        heuristics: HeuristicConfig | None = None,
        *,
        retain_raw: bool = True,
        timer: PhaseTimer | None = None,
    ) -> None:
        self.comm = comm
        self.config = config
        self.heuristics = heuristics or HeuristicConfig()
        self.retain_raw = retain_raw
        self.timer = timer or PhaseTimer()
        shape = config.tile_shape
        self._shape = shape
        #: Raw, unfiltered owned counts — the durable truth: distinct
        #: ascending ``(keys, counts)`` pairs at table width.
        self.raw_kmers = self.raw_tiles = _NO_PAIRS
        self._spectra: RankSpectra | None = None
        #: Union of the rank's reads' unique k-mer/tile ids, accumulated
        #: per ingest (the read-table heuristics fetch counts for these).
        self._read_kmer_keys = np.empty(0, dtype=np.uint64)
        self._read_tile_keys = np.empty(0, dtype=np.uint64)
        self._peak = 0
        self._dirty = False
        self._sealed = False  # one-shot sessions seal at finalize
        self._closed = False
        self._ingest_count = 0
        self._protocol: CorrectionProtocol | None = None
        self._stacks: StackPair | None = None
        self._stack_timer: PhaseTimer | None = None
        self._recovery: RecoveryState | None = None
        #: Extra tag handlers merged into the session's pump-mode
        #: protocol endpoint (re-applied after every finalize rebinds
        #: the protocol).  The serving loop uses this to stash service
        #: control frames that arrive while a round is still pumping.
        self.protocol_handlers: dict = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_spectra(
        cls,
        comm: Communicator,
        config: ReptileConfig,
        heuristics: HeuristicConfig | None,
        spectra: RankSpectra,
        *,
        timer: PhaseTimer | None = None,
    ) -> "CorrectionSession":
        """Wrap already-finalized spectra in a one-shot session.

        This is how :func:`~repro.parallel.correct.correct_distributed`
        keeps its public signature: callers with prebuilt spectra get a
        sealed session whose :meth:`correct` runs immediately."""
        session = cls(comm, config, heuristics, retain_raw=False, timer=timer)
        session._spectra = spectra
        session._sealed = True
        session._peak = spectra.peak_construction_bytes
        return session

    @classmethod
    def resume(
        cls,
        comm: Communicator,
        config: ReptileConfig,
        heuristics: HeuristicConfig | None,
        directory: str | os.PathLike,
        *,
        timer: PhaseTimer | None = None,
    ) -> "CorrectionSession":
        """Rebuild a session from a :meth:`checkpoint` directory.

        Collective; every rank loads its own ``rank<r>.npz`` bundle.  The
        bundle's geometry and rank count must match this session's — a
        spectrum sharded for a different ``nranks`` or built with a
        different tiling is not reinterpretable."""
        from repro.core.persist import load_session_bundle

        session = cls(comm, config, heuristics, retain_raw=True, timer=timer)
        bundle = load_session_bundle(
            os.path.join(os.fspath(directory), f"rank{comm.rank}.npz")
        )
        shape = config.tile_shape
        if bundle["nranks"] != comm.size:
            raise SessionError(
                f"checkpoint was taken with {bundle['nranks']} ranks; "
                f"cannot resume on {comm.size} (keys are owner-sharded)"
            )
        if bundle["k"] != shape.k or bundle["overlap"] != shape.overlap:
            raise SessionError(
                f"checkpoint tiling (k={bundle['k']}, "
                f"overlap={bundle['overlap']}) does not match the "
                f"session config (k={shape.k}, overlap={shape.overlap})"
            )
        session.raw_kmers = bundle["kmers"]
        session.raw_tiles = bundle["tiles"]
        session._read_kmer_keys = bundle["read_kmer_keys"]
        session._read_tile_keys = bundle["read_tile_keys"]
        session._ingest_count = bundle["n_ingests"]
        session._dirty = True
        return session

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def spectra(self) -> RankSpectra:
        """The serving-side spectra (finalize must have run)."""
        if self._spectra is None:
            raise SessionError(
                "the session has no serving spectra yet; ingest then "
                "finalize (or correct, which finalizes lazily) first"
            )
        return self._spectra

    @property
    def finalized(self) -> bool:
        """Is the serving state current with everything ingested?"""
        return self._spectra is not None and not self._dirty

    @property
    def ingest_count(self) -> int:
        """Ingest calls over the session's lifetime (survives resume)."""
        return self._ingest_count

    def _require_open(self, verb: str) -> None:
        if self._closed:
            raise SessionError(
                f"{verb} on a closed session; the endpoint was released "
                "by close() (or the session's context manager exited)"
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the rank's endpoint state (local, idempotent).

        The wire is already quiescent — every :meth:`correct` round ends
        with its own DONE/SHUTDOWN handshake (and, for retained-raw
        rounds, a separating barrier) — so closing is purely a local
        release: the protocol endpoint, the compiled lookup stacks and
        any recovery bindings are dropped, and further mutating verbs
        raise :class:`~repro.errors.SessionError`.  Safe to call twice;
        safe to call on a session that never corrected anything.
        """
        self._protocol = None
        self._stacks = None
        self._stack_timer = None
        self._recovery = None
        self._closed = True

    def __enter__(self) -> "CorrectionSession":
        self._require_open("__enter__")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _note_peak(self, *transient) -> None:
        """Raise the construction peak to what the rank holds now: the
        ``transient`` arrays or tables, the raw pairs and any serving
        tables."""
        held = (*transient, *self.raw_kmers, *self.raw_tiles)
        footprint = sum(part.nbytes for part in held)
        if self._spectra is not None:
            footprint += self._spectra.nbytes
        self._peak = max(self._peak, footprint)

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest(self, block: ReadBlock, timer: PhaseTimer | None = None) -> None:
        """Merge one block's count deltas into the distributed spectrum.

        Collective.  The block's windows are counted by sort and each
        distinct ``(key, count)`` pair rides the DELTA exchange to its
        owner, which sums it into its raw pairs — under the *batch
        reads table* heuristic once per chunk (with an allreduce so
        every rank joins the same number of collective rounds),
        otherwise once per ingest.  Saturating addition is
        order-independent, so any split of a dataset across ingests
        yields the same shard counts as one big build."""
        self._require_open("ingest")
        if self._sealed:
            raise SessionError(
                "ingest after a one-shot finalize; construct the session "
                "with retain_raw=True to keep ingesting"
            )
        timer = timer or self.timer
        with timer.phase("kmer_construction"):
            rounds = [block]
            if self.heuristics.batch_reads:
                rounds = list(block.chunks(self.config.chunk_size))
                # Every rank joins every round's exchange even when out
                # of reads: alltoallv is collective.
                total = self.comm.allreduce(len(rounds), op=max)
                rounds += [ReadBlock.empty()] * (total - len(rounds))
            for reads in rounds:
                self._count_and_route(reads)
            self._track_read_keys(block)
        self.comm.stats.bump("session_ingests")
        self._ingest_count += 1
        self._dirty = True

    def _count_and_route(self, reads: ReadBlock) -> None:
        """Steps II-III for one round: count the reads' windows by sort,
        send each distinct pair to its owner, and sum what this rank
        owns into its raw pairs."""
        counted = window_counts(
            [reads] if len(reads) else [], self._shape,
            self.config.count_reverse_complement,
        )
        kmers, tiles = (merge_pairs([pairs]) for pairs in counted)
        self._note_peak(*kmers, *tiles)
        self.raw_kmers = merge_pairs(
            [self.raw_kmers, *exchange_deltas(self.comm, *kmers)]
        )
        self.raw_tiles = merge_pairs(
            [self.raw_tiles, *exchange_deltas(self.comm, *tiles)]
        )
        self._note_peak()

    def _track_read_keys(self, block: ReadBlock) -> None:
        """Grow the read-table key unions with this block's unique ids."""
        if self.heuristics.read_kmers:
            kids, kvalid = block_kmer_ids(block, self._shape)
            flat = (
                np.unique(kids[kvalid]) if len(block)
                else np.empty(0, np.uint64)
            )
            self._read_kmer_keys = np.union1d(self._read_kmer_keys, flat)
        if self.heuristics.read_tiles:
            tids, tvalid = block_tile_ids(block, self._shape)
            flat = (
                np.unique(tids[tvalid]) if len(block)
                else np.empty(0, np.uint64)
            )
            self._read_tile_keys = np.union1d(self._read_tile_keys, flat)

    # ------------------------------------------------------------------
    # finalize (recompile the serving state)
    # ------------------------------------------------------------------
    def finalize(self, timer: PhaseTimer | None = None) -> None:
        """Recompile the serving state from the raw shards (collective).

        Thresholds are applied, read tables fetched, replication
        performed, and the compiled lookup stack invalidated — the
        chunk-boundary recompile.  A no-op when nothing was ingested
        since the last finalize.  For a ``retain_raw`` session the raw
        pairs stay untouched (the serving side is a filtered copy), so
        ingest → finalize → ingest keeps exact counts throughout."""
        if not self._dirty:
            return
        timer = timer or self.timer
        comm = self.comm
        config = self.config
        heuristics = self.heuristics
        with timer.phase("kmer_construction"):
            # Owners hold true global counts: threshold, then insert.  A
            # one-rank world's shard is the whole spectrum: replicated.
            whole = comm.size == 1
            serving = RankSpectra(
                shape=self._shape, rank=comm.rank, nranks=comm.size,
                kmers=_serving_table(
                    self.raw_kmers, config.kmer_threshold,
                    hashed=whole or heuristics.allgather_kmers,
                ),
                tiles=_serving_table(
                    self.raw_tiles, config.tile_threshold,
                    hashed=whole or heuristics.allgather_tiles,
                ),
                kmers_replicated=whole,
                tiles_replicated=whole,
            )
            self._note_peak(serving.kmers, serving.tiles)
            if not self.retain_raw:
                self.raw_kmers = self.raw_tiles = _NO_PAIRS
                self._sealed = True
            serving.peak_construction_bytes = self._peak
            if heuristics.read_kmers:
                serving.reads_kmers = fetch_read_table(
                    comm, self._read_kmer_keys, serving.kmers
                )
            if heuristics.read_tiles:
                serving.reads_tiles = fetch_read_table(
                    comm, self._read_tile_keys, serving.tiles
                )
            apply_replication(comm, heuristics, serving)
        self._spectra = serving
        self._dirty = False
        # The old protocol serves superseded tables; drop it with the
        # compiled stacks so the next correct() rebinds everything.
        self._protocol = None
        self._stacks = None
        comm.stats.bump("session_recompiles")

    # ------------------------------------------------------------------
    # correct
    # ------------------------------------------------------------------
    def correct(
        self,
        block: ReadBlock,
        *,
        timer: PhaseTimer | None = None,
    ) -> CorrectionResult:
        """Correct one block against the current spectrum (collective).

        Repeated calls reuse the serving tables, the protocol endpoint
        and the compiled lookup stack — nothing is rebuilt unless an
        ingest dirtied the session (then a finalize runs first).

        Under a fault plan with scripted crashes the session's crash
        round must be its last collective operation (a dead rank joins
        no further collectives); plans that only drop/duplicate/delay
        frames are fully compatible with repeated rounds."""
        self._require_open("correct")
        timer = timer or self.timer
        comm = self.comm
        config = self.config
        heuristics = self.heuristics
        self.finalize(timer=timer)
        spectra = self.spectra
        plan = comm.fault_plan
        doomed = plan.doomed_ranks() if plan is not None else frozenset()
        if doomed and self._recovery is None:
            self._recovery = replicate_state(comm, plan, spectra, block)
        recovery = self._recovery or RecoveryState()
        injector = comm.fault_injector
        if injector is not None:
            # Scripted crash/stall triggers count communication events
            # only from here on — replication traffic stays reliable.
            injector.enter_phase(comm.rank, "correction")
        protocol = self._ensure_protocol(plan, recovery)
        protocol.reset_round()
        stacks = self._ensure_stacks(protocol, timer)
        with timer.phase("error_correction"):
            if heuristics.use_prefetch:
                # Bulk-prefetch engine: plan, fetch, and pipeline so the
                # corrector itself never blocks on request_counts.
                executor = PrefetchExecutor(
                    comm, config, heuristics, spectra, protocol, timer
                )
            else:
                executor = None
                corrector = ReptileCorrector(config, stacks)

            def step_iv(reads: ReadBlock) -> list[CorrectionResult]:
                """Correct one share: the rank's own, then each ward's."""
                if executor is not None:
                    # chunk_size is a real bound here: the planner holds
                    # a whole piece's candidate neighbourhood and fetches
                    # piece N+1 under piece N's correction.
                    return executor.run(list(reads.chunks(config.chunk_size)))
                # A blocking wavefront holds one tile column at a time and
                # overlaps nothing, so pieces would only multiply the
                # per-step request frames: the share is one wavefront.
                # (correct_dynamic keeps chunk_size: its unit of balance.)
                return [corrector.correct_block(reads)] if len(reads) else []

            results = step_iv(block)
            if plan is not None and comm.rank in doomed:
                # Surviving one's own scripted crash means the plan was
                # mis-calibrated (after_events beyond the rank's event
                # count): the partner would replay these reads *as well*.
                raise ConfigError(
                    f"rank {comm.rank} finished correction but its "
                    "scripted crash never fired; lower the fault's "
                    "after_events"
                )
            # Re-own and replay each dead ward's reads from the replica.
            # Replay precedes finish(): peers are still serving.
            for ward in sorted(recovery.ward_blocks):
                wblock = recovery.ward_blocks[ward]
                comm.stats.bump("takeover_reads", len(wblock))
                results.extend(step_iv(wblock))
            protocol.finish()
        if self.retain_raw and not doomed:
            # Round separator.  finish() lets rank 0 leave while peers
            # still pump with a wildcard probe that would swallow the
            # next round's collective frames; the barrier's rank-0-
            # centric, tag-filtered pattern is safe to enter early and
            # guarantees every rank has left finish() before any rank
            # starts the next collective.  Skipped for one-shot sessions
            # (their ledger must match the classic run exactly) and for
            # crash plans (a dead rank never arrives at a barrier).
            comm.barrier()

        return CorrectionResult.concat(results, block.max_length)

    def _ensure_protocol(
        self, plan, recovery: RecoveryState
    ) -> CorrectionProtocol:
        """The session's persistent pump-mode endpoint (lazy, local)."""
        if self._protocol is None:
            spectra = self.spectra
            self._protocol = CorrectionProtocol(
                self.comm,
                owned_kmers=spectra.kmers,
                owned_tiles=spectra.tiles,
                universal=self.heuristics.universal,
                faults=plan,
            )
            # Recovery as a re-bind: each ward replica becomes part of
            # the serving shard, so every protocol path answers for the
            # ward with no special casing.
            for ward, (wk, wt) in recovery.replicas.items():
                self._protocol.shards.bind_ward(ward, wk, wt)
        if self.protocol_handlers:
            self._protocol.handlers.update(self.protocol_handlers)
        return self._protocol

    def _ensure_stacks(
        self, protocol: CorrectionProtocol, timer: PhaseTimer
    ) -> StackPair:
        """The session's compiled lookup stack (lazy, local).

        Recompiled only when finalize invalidated it or the caller's
        timer changed (the lookup round attributes its comm time there)."""
        if self._stacks is None or self._stack_timer is not timer:
            self._stacks = compile_stacks(
                self.comm, self.spectra, self.heuristics,
                protocol=protocol, timer=timer,
            )
            self._stack_timer = timer
        return self._stacks

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self, directory: str | os.PathLike) -> str:
        """Write this rank's raw state to ``directory/rank<r>.npz``.

        Collective (ends with a barrier so every rank's bundle is
        durable before any rank proceeds).  Requires a ``retain_raw``
        session: a one-shot session's tables are already thresholded,
        and a checkpoint of lossy state could not honour later ingests.
        Returns the written path."""
        self._require_open("checkpoint")
        if not self.retain_raw:
            raise SessionError(
                "checkpoint requires retain_raw=True (one-shot sessions "
                "hold only thresholded state, which is lossy)"
            )
        from repro.core.persist import save_session_bundle

        os.makedirs(directory, exist_ok=True)
        path = os.path.join(os.fspath(directory), f"rank{self.comm.rank}.npz")
        (kmer_keys, kmer_counts), (tile_keys, tile_counts) = (
            self.raw_kmers, self.raw_tiles
        )
        save_session_bundle(
            path,
            k=self._shape.k,
            overlap=self._shape.overlap,
            nranks=self.comm.size,
            rank=self.comm.rank,
            n_ingests=self._ingest_count,
            kmer_keys=kmer_keys.astype(np.uint64),
            kmer_counts=kmer_counts,
            tile_keys=tile_keys.astype(np.uint64),
            tile_counts=tile_counts,
            read_kmer_keys=self._read_kmer_keys,
            read_tile_keys=self._read_tile_keys,
        )
        self.comm.barrier()
        return path


# ----------------------------------------------------------------------
# Session ops and the per-rank op runner.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IngestOp:
    """Ingest a dataset's count deltas (a driver is given the whole
    dataset, a rank's runner the reads placed on that rank)."""

    block: ReadBlock


@dataclass(frozen=True)
class CorrectOp:
    """Correct a dataset against the current spectrum."""

    block: ReadBlock


@dataclass(frozen=True)
class CheckpointOp:
    """Write every rank's session bundle into a directory."""

    directory: str


SessionOp = IngestOp | CorrectOp | CheckpointOp


@dataclass(frozen=True)
class DynamicCorrectOp:
    """Correct by the prior work's master-worker allocation
    (:func:`~repro.parallel.dynamicbalance.correct_dynamic`): rank 0's
    op carries the whole dataset to hand out, every other rank's
    ``None``.  A batch-run op — the service has no command for it."""

    block: ReadBlock | None


@dataclass
class SessionRankReport:
    """Everything one rank reports back from a session program."""

    rank: int
    #: One entry per op, e.g. ``("ingest", "correct", "correct")``.
    op_kinds: tuple[str, ...]
    #: Phase-seconds consumed by each op (same indexing as op_kinds):
    #: what the rank's timer gained since the previous op ended, so the
    #: input and placement that precede an op are charged to it.
    op_timings: list[dict[str, float]]
    #: Per-correct-op outcomes, in op order.
    correct_blocks: list[ReadBlock]
    correct_corrections: list[np.ndarray]
    correct_reverted: list[int]
    correct_tiles_examined: list[int]
    correct_tiles_below: list[int]
    timings: dict[str, float]
    memory: RankMemoryReport
    table_sizes: dict[str, int]
    ingest_count: int


class SessionOpRunner:
    """Per-rank op execution and bookkeeping over one session.

    The engine room of every rank program.  The service's serving loop
    (``ServingProgram``, and through it
    :class:`~repro.parallel.driver.ParallelSession`) and the batch
    program behind :class:`~repro.parallel.driver.ParallelReptile` each
    open the session their run calls for — retained or resumed for a
    service, one-shot for a batch run — hand it over, feed ops one at a
    time through :meth:`run_op`, and take the rank's
    :class:`SessionRankReport` from :meth:`report`.

    An op carries the reads *this rank* works on.  Which rank gets which
    rows is decided once, where the reads enter (the service relay's
    grain-aware window, the batch program's one redistribution), never
    here.

    The serving state is finalized after *every* ingest (the spectrum
    must be servable the moment the ingest command completes — the loop
    cannot see the future), and the recompile is charged to the ingest
    op, so correct ops never pay construction time.
    """

    def __init__(self, session: CorrectionSession) -> None:
        self.session = session
        self.comm = session.comm
        #: The session's timer: phases the rank program times around the
        #: ops (input, placement) land in the same report.
        self.timer = session.timer
        self._op_kinds: list[str] = []
        self._op_timings: list[dict[str, float]] = []
        self._mark = self.timer.as_dict()
        self._blocks: list[ReadBlock] = []
        self._corrections: list[np.ndarray] = []
        self._reverted: list[int] = []
        self._examined: list[int] = []
        self._below: list[int] = []
        self._memory: RankMemoryReport | None = None
        self._last_block = ReadBlock.empty()

    @property
    def ops_run(self) -> int:
        """How many ops this rank has executed (the same on every rank:
        ops are collective)."""
        return len(self._op_kinds)

    def run_op(
        self, op: SessionOp | DynamicCorrectOp
    ) -> CorrectionResult | None:
        """Execute one op (collective); returns a correct op's result."""
        session = self.session
        result: CorrectionResult | None = None
        if isinstance(op, IngestOp):
            self._op_kinds.append("ingest")
            self._last_block = op.block
            session.ingest(op.block)
            # Chunk boundary: recompile now, charged to the ingest,
            # so repeat corrections pay zero build time.
            session.finalize()
        elif isinstance(op, CorrectOp):
            self._op_kinds.append("correct")
            self._last_block = op.block
            result = session.correct(op.block, timer=self.timer)
        elif isinstance(op, DynamicCorrectOp):
            self._op_kinds.append("correct")
            with self.timer.phase("error_correction"):
                result = correct_dynamic(self.comm, op.block, session)
        elif isinstance(op, CheckpointOp):
            self._op_kinds.append("checkpoint")
            session.checkpoint(op.directory)
        else:
            raise SessionError(f"unknown session op {op!r}")
        if result is not None:
            self._blocks.append(result.block)
            self._corrections.append(result.corrections_per_read)
            self._reverted.append(int(result.reads_reverted.sum()))
            self._examined.append(result.tiles_examined)
            self._below.append(result.tiles_below_threshold)
        after = self.timer.as_dict()
        self._op_timings.append({
            name: seconds - self._mark.get(name, 0.0)
            for name, seconds in after.items()
            if seconds - self._mark.get(name, 0.0) > 0.0
        })
        self._mark = after
        if self._memory is None and session.finalized:
            self._memory = RankMemoryReport.capture(
                self.comm.rank, session.spectra, self._last_block,
                phase="construction",
            )
        return result

    def report(self) -> SessionRankReport:
        """Finalize any trailing ingest and assemble the rank's report."""
        session = self.session
        session.finalize()  # a trailing ingest still lands in the report
        memory = self._memory
        if memory is None:
            memory = RankMemoryReport.capture(
                self.comm.rank, session.spectra, self._last_block,
                phase="construction",
            )
        # Captured at the first finalize: later ingests' peaks land here.
        memory.construction_peak = session.spectra.peak_construction_bytes
        if self._blocks:
            RankMemoryReport.capture(
                self.comm.rank, session.spectra, self._last_block,
                phase="correction", into=memory,
            )
        return SessionRankReport(
            rank=self.comm.rank,
            op_kinds=tuple(self._op_kinds),
            op_timings=self._op_timings,
            correct_blocks=self._blocks,
            correct_corrections=self._corrections,
            correct_reverted=self._reverted,
            correct_tiles_examined=self._examined,
            correct_tiles_below=self._below,
            timings=self.timer.as_dict(),
            memory=memory,
            table_sizes=session.spectra.table_sizes,
            ingest_count=session.ingest_count,
        )
