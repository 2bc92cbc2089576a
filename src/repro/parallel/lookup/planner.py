"""The prefetch planner/executor: plan → fetch → correct, then one tail.

The wire endpoint (:class:`~repro.parallel.prefetch.PrefetchEndpoint`)
is a message protocol, not a resolution tier, and lives one package up;
everything that *resolves counts* here rides the compiled
:class:`~repro.parallel.lookup.stack.LookupStack` pair: the chunk cache
is the first tier, the ladder's local tiers follow, nothing goes to the
owners, and whatever is left unresolved is by definition what a plan
must fetch.

**First pass, per chunk.**  Stage 1 enumerates every window tile id and
bulk-fetches the foreign unknowns; stage 2, with real window counts
cached, enumerates the weak sites' candidate neighbourhood and fetches
its foreign ids; the corrector then runs against the cache with zero
blocking lookups.  Chunk N+1's window fetch is issued before chunk N
corrects (software pipelining).  Corrections drift ids out of the plan:
a lookup the cache cannot answer returns a speculative 0 and is
recorded as a miss against exactly the reads it taints.  A chunk that
missed is *not* replayed on the spot — its tainted rows join the tail.

**Tail, once per** :meth:`PrefetchExecutor.run`.  The tainted reads of
all the rank's chunks are re-planned once on their drifted codes (one
bulk exchange per owner, per piece of ≤ ``chunk_size`` reads) and
replayed once with the view's miss policy switched from "answer 0 and
taint" to "fetch now", which makes that replay authoritative in one
``correct_block`` call however deep a read's chain of drifting
corrections runs.  A miss-free or authoritative pass sees only global
counts, which pins the output bit-for-bit to the serial reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
from numpy.typing import NDArray

from repro.core.corrector import CorrectionResult, ReptileCorrector
from repro.io.records import ReadBlock
from repro.parallel.lookup.cache import ChunkCountCache

if TYPE_CHECKING:
    # Type-only: build.py reaches this module through exchange.py's
    # partition_by_dest import, so a runtime import would be circular.
    from repro.config import ReptileConfig
    from repro.parallel.build import RankSpectra
    from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.lookup.stack import CommLike, StackPair, compile_stacks
from repro.parallel.prefetch import (
    BulkFetch,
    PrefetchCapable,
    PrefetchEndpoint,
)
from repro.simmpi.communicator import Communicator
from repro.util.timer import PhaseTimer


#: ``fetch(kind, unique ids) -> counts``, synchronously from the owners.
MissFetch = Callable[[str, NDArray[np.uint64]], NDArray[np.uint32]]


class CachedChunkView:
    """Spectrum view over the local tier stack, with two miss policies.

    First passes never message: a lookup the stack cannot resolve is
    speculatively answered with 0 (the protocol's "globally absent"
    response) and recorded as a miss against the reads it taints.  With
    :attr:`fetch_on_miss` set (the tail replay) the same lookup is
    fetched from its owners on the spot, so every answer is global.
    """

    def __init__(
        self, comm: CommLike, stacks: StackPair, cache: ChunkCountCache
    ) -> None:
        self.comm = comm
        self.stacks = stacks
        self.cache = cache
        #: Set only while the tail replays: it is bound to the executor,
        #: and a standing cycle would keep the cache alive until a full
        #: garbage collection.
        self.fetch_on_miss: MissFetch | None = None
        self._kmer_misses: list[NDArray[np.uint64]] = []
        self._tile_misses: list[NDArray[np.uint64]] = []
        self._pending_rows: NDArray[np.int64] | None = None
        self._dirty_rows: list[NDArray[np.int64]] = []
        self._rows_complete = True

    # -- SpectrumView interface ----------------------------------------
    def kmer_counts(self, ids: NDArray[np.uint64]) -> NDArray[np.uint32]:
        """Global k-mer counts from the local stack; a miss answers 0
        and is recorded, or is fetched now (see the class doc)."""
        return self._counts(ids, "kmer", self._kmer_misses)

    def tile_counts(self, ids: NDArray[np.uint64]) -> NDArray[np.uint32]:
        """Global tile counts from the local stack; a miss answers 0
        and is recorded, or is fetched now (see the class doc)."""
        return self._counts(ids, "tile", self._tile_misses)

    # -- planner support -----------------------------------------------
    def foreign_unknown(
        self, kind: str, ids: NDArray[np.uint64]
    ) -> NDArray[np.uint64]:
        """Unique ids of a kind no local tier can answer — exactly what
        a plan must fetch.  Does not count as lookups.

        Ids a ladder tier *can* answer are deposited into the cache
        along the way (``resolved_by`` says which tier answered, so
        cache hits are not pointlessly re-deposited), so by the time the
        corrector runs, every planned id — owned or foreign — resolves
        through the cache's fast path."""
        ids = np.ascontiguousarray(ids, dtype=np.uint64)
        if ids.size == 0:
            return ids
        stack = self.stacks.for_kind(kind)
        if stack.fully_replicated:
            # Full replication answers everything in one probe; caching
            # would just mirror the replicated table entry by entry.
            return np.empty(0, dtype=np.uint64)
        res = stack.resolve(ids, record_stats=False)
        known = res.resolved_by == stack.cache_index
        deposit = ~res.unresolved & ~known
        # Ladder-resolved ids enter the cache so pass 2 takes its
        # single-probe fast path; cache hits are not re-deposited.
        self.cache.deposit(kind, ids[deposit], res.counts[deposit])
        foreign = ids[res.unresolved]
        uniq = np.unique(foreign)
        # Everything dropped from the fetch that a remote owner *would*
        # have been asked for: duplicate foreign ids plus already-cached
        # ones (locally-resolvable ids were never fetch candidates).
        self.comm.stats.bump(
            f"prefetch_{kind}_ids_deduped",
            int(np.count_nonzero(known) + foreign.size - uniq.size),
        )
        return uniq

    def peek_tile_counts(self, ids: NDArray[np.uint64]) -> NDArray[np.uint32]:
        """Best local knowledge of tile counts, without side effects.

        Like :meth:`tile_counts` (unknown ids answer 0) but records no
        misses and bumps no counters — for replanning probes, which must
        not disturb the miss record or the lookup statistics.
        """
        ids = np.ascontiguousarray(ids, dtype=np.uint64)
        return self.stacks.tiles.resolve(ids, record_stats=False).counts

    def note_rows(self, rows: NDArray[np.int64]) -> None:
        """Row index of each id in the *next* lookup call.

        :class:`~repro.core.corrector.ReptileCorrector` announces which
        read produced every id it is about to look up; a miss is then
        charged to exactly the reads whose outcome it taints, which is
        what lets the tail replay those reads alone."""
        self._pending_rows = rows

    def take_misses(self) -> tuple[NDArray[np.uint64], NDArray[np.uint64]]:
        """Unique missed ids since the last call; clears the record."""
        kmers = self._drain_misses(self._kmer_misses)
        tiles = self._drain_misses(self._tile_misses)
        return kmers, tiles

    def take_dirty_rows(self) -> tuple[NDArray[np.int64], bool]:
        """Rows whose lookups missed since the last call, and whether
        that attribution is complete (every miss had a row context).
        When it is not, the caller must replay the whole chunk."""
        complete = self._rows_complete
        if not self._dirty_rows:
            rows = np.empty(0, dtype=np.int64)
        else:
            rows = np.unique(np.concatenate(self._dirty_rows))
        self._dirty_rows.clear()
        self._rows_complete = True
        return rows, complete

    @staticmethod
    def _drain_misses(record: list[NDArray[np.uint64]]) -> NDArray[np.uint64]:
        if not record:
            return np.empty(0, dtype=np.uint64)
        out = np.unique(np.concatenate(record))
        record.clear()
        return out

    # ------------------------------------------------------------------
    def _counts(
        self,
        ids: NDArray[np.uint64],
        kind: str,
        misses: list[NDArray[np.uint64]],
    ) -> NDArray[np.uint32]:
        ids = np.ascontiguousarray(ids, dtype=np.uint64)
        rows = self._pending_rows
        self._pending_rows = None
        # The chunk-cache tier runs first, so a fully planned pass costs
        # one probe per lookup; the ladder tiers below it only run for
        # ids the plan never saw (drifted windows, replicated tables).
        res = self.stacks.for_kind(kind).resolve(ids)
        if res.unresolved.any():
            miss = np.nonzero(res.unresolved)[0]
            self.comm.stats.bump(f"prefetch_{kind}_misses", int(miss.size))
            if self.fetch_on_miss is not None:
                uniq, inverse = np.unique(ids[miss], return_inverse=True)
                res.counts[miss] = self.fetch_on_miss(kind, uniq)[inverse]
                return res.counts
            # Speculative 0 ("globally absent"); the reads that consulted
            # it are replayed in the rank's tail.
            misses.append(np.unique(ids[miss]))
            if rows is not None and rows.shape[0] == ids.shape[0]:
                self._dirty_rows.append(np.unique(rows[miss]))
            else:
                self._rows_complete = False
        return res.counts


# ----------------------------------------------------------------------
# the pipelined chunk executor
# ----------------------------------------------------------------------
Positions = tuple[NDArray[np.int64], NDArray[np.int64], NDArray[np.uint64]]


@dataclass
class _ChunkState:
    """Everything in flight for one chunk of the pipeline."""

    chunk: ReadBlock
    #: Per tile position: (rows, starts, tile ids) on original codes.
    positions: Positions
    window_fetch: BulkFetch
    cand_fetch: BulkFetch | None = None


#: One chunk's hand-over to the tail: (chunk index, rows whose lookups
#: consulted a speculative answer, missed k-mer ids, missed tile ids).
_Tainted = tuple[int, NDArray[np.int64], NDArray[np.uint64], NDArray[np.uint64]]


class PrefetchExecutor:
    """Runs a rank's Step IV chunks through plan-fetch-correct.

    The first passes are software-pipelined: chunk N+1's stage-1
    (window) fetch is issued before chunk N is corrected, so its
    responses stream in while this rank computes.  The rank's tier
    stacks are compiled once here — chunk cache first, then the
    ladder's local tiers, no lookup round (what the stack cannot
    resolve is what a plan fetches) — and one view and one corrector
    over them serve every first pass and the tail.
    """

    def __init__(
        self,
        comm: Communicator,
        config: ReptileConfig,
        heuristics: HeuristicConfig,
        spectra: RankSpectra,
        protocol: PrefetchCapable,
        timer: PhaseTimer | None = None,
    ) -> None:
        self.comm = comm
        self.config = config
        self.heuristics = heuristics
        self.spectra = spectra
        self.endpoint = PrefetchEndpoint(protocol, comm)
        self.timer = timer or PhaseTimer()
        #: One cache for the whole correction phase: coverage makes ids
        #: recur across chunks, so sharing it turns later chunks' fetches
        #: into near no-ops (see :class:`ChunkCountCache`).
        self.cache = ChunkCountCache()
        self._cache_bytes = 0
        self.stacks = compile_stacks(
            comm, spectra, heuristics, cache=self.cache, timer=self.timer
        )
        self.view = CachedChunkView(comm, self.stacks, self.cache)
        self.corrector = ReptileCorrector(config, self.view)
        shape = config.tile_shape
        self._suffix_bits = np.uint64(2 * (shape.k - shape.overlap))
        self._kmer_mask = np.uint64((1 << (2 * shape.k)) - 1)

    # ------------------------------------------------------------------
    def run(self, chunks: list[ReadBlock]) -> list[CorrectionResult]:
        """Correct every chunk (slices of one block): pipelined first
        passes, then one tail over the reads whose lookups missed."""
        results: list[CorrectionResult] = []
        tail: list[_Tainted] = []
        state = self._begin_chunk(chunks[0]) if chunks else None
        for i in range(len(chunks)):
            assert state is not None
            self._plan_candidates(state)
            # Pipelining: the next chunk's window fetch goes out before
            # this chunk starts correcting.
            upcoming = (
                self._begin_chunk(chunks[i + 1]) if i + 1 < len(chunks) else None
            )
            results.append(self._first_pass(i, state, tail))
            self.endpoint.drain()
            state = upcoming
        self._run_tail(chunks, results, tail)
        # Growth since the last run(): a ward replay runs a second one.
        nbytes = self.cache.nbytes
        self.comm.stats.bump("prefetch_cache_bytes", nbytes - self._cache_bytes)
        self._cache_bytes = nbytes
        return results

    # ------------------------------------------------------------------
    def _begin_chunk(self, chunk: ReadBlock) -> _ChunkState:
        """Stage 1: enumerate every window tile id and fetch the foreign
        ones (original codes — drift is the tail's business)."""
        positions = self._enumerate_positions(chunk)
        fetch = self.endpoint.issue(
            np.empty(0, dtype=np.uint64),
            self.view.foreign_unknown("tile", positions[2]),
        )
        return _ChunkState(chunk, positions, fetch)

    def _enumerate_positions(self, block: ReadBlock) -> Positions:
        """Every valid tile site of a block as flat (rows, starts, ids)."""
        starts_matrix = self.corrector._tile_start_matrix(block.lengths)
        valid = starts_matrix >= 0
        rows, cols = np.nonzero(valid)
        if rows.size == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.uint64),
            )
        starts = starts_matrix[rows, cols].astype(np.int64)
        tids, ok = self.corrector._gather_tiles(block.codes, rows, starts)
        return rows[ok], starts[ok], tids[ok]

    def _collect(
        self, fetch: BulkFetch
    ) -> tuple[NDArray[np.uint32], NDArray[np.uint32]]:
        """Wait for a bulk exchange (booked to ``comm_prefetch``) and
        deposit its answers in the cache."""
        start = time.perf_counter()
        kcounts, tcounts = self.endpoint.collect(fetch)
        self.timer.add("comm_prefetch", time.perf_counter() - start)
        self.cache.add_kmers(fetch.kmer_ids, kcounts)
        self.cache.add_tiles(fetch.tile_ids, tcounts)
        return kcounts, tcounts

    def _fetch_missed(
        self, kind: str, ids: NDArray[np.uint64]
    ) -> NDArray[np.uint32]:
        """The tail view's miss policy: fetch ``ids`` from their owners
        now, through the same endpoint as every planned exchange."""
        self.comm.stats.bump("prefetch_miss_fetches")
        none = np.empty(0, dtype=np.uint64)
        if kind == "kmer":
            return self._collect(self.endpoint.issue(ids, none))[0]
        return self._collect(self.endpoint.issue(none, ids))[1]

    def _plan_candidates(self, state: _ChunkState) -> None:
        """Stage 2: with real window counts cached, enumerate the weak
        sites' candidate neighbourhood and fetch its foreign ids."""
        self._collect(state.window_fetch)
        cands, kmers = self._candidate_neighbourhood(
            state.chunk, state.positions, peek=False
        )
        state.cand_fetch = self.endpoint.issue(
            self.view.foreign_unknown("kmer", kmers),
            self.view.foreign_unknown("tile", cands),
        )

    def _candidate_neighbourhood(
        self, block: ReadBlock, positions: Positions, *, peek: bool
    ) -> tuple[NDArray[np.uint64], NDArray[np.uint64]]:
        """Candidate tile ids and their constituent k-mers for every weak
        site of ``block``.  ``peek=True`` probes counts without touching
        the miss record or the lookup counters (replanning)."""
        threshold = np.uint32(self.config.tile_threshold)
        rows, starts, tids = positions
        counts = (
            self.view.peek_tile_counts(tids)
            if peek
            else self.view.tile_counts(tids)
        )
        weak = counts < threshold
        cands = kmers = np.empty(0, dtype=np.uint64)
        if weak.any():
            batch = self.corrector._generate_candidates(
                block, rows[weak], starts[weak], tids[weak]
            )
            if batch.cand_ids.size:
                cands = batch.cand_ids
                kmers = np.concatenate([
                    (cands >> self._suffix_bits) & self._kmer_mask,
                    cands & self._kmer_mask,
                ])
        return cands, kmers

    def _first_pass(
        self, index: int, state: _ChunkState, tail: list[_Tainted]
    ) -> CorrectionResult:
        """Correct one chunk against the cache, never waiting on a miss;
        the reads a speculative answer tainted are handed to the tail."""
        assert state.cand_fetch is not None
        self._collect(state.cand_fetch)
        self.view.take_misses()  # reset any planning-time residue
        self.view.take_dirty_rows()
        result = self.corrector.correct_block(state.chunk)
        k_miss, t_miss = self.view.take_misses()
        dirty, attributed = self.view.take_dirty_rows()
        if k_miss.size or t_miss.size:
            # Reads are corrected independently, so only the reads whose
            # lookups consulted a speculative answer need re-running;
            # without complete attribution that is the whole chunk.
            if not attributed or dirty.size == 0:
                dirty = np.arange(len(state.chunk), dtype=np.int64)
            tail.append((index, dirty, k_miss, t_miss))
        return result

    def _run_tail(
        self,
        chunks: list[ReadBlock],
        results: list[CorrectionResult],
        tail: list[_Tainted],
    ) -> None:
        """Replay every tainted read of the rank, once and for good.

        Per piece of ≤ ``chunk_size`` reads (the chunk bound on transient
        arrays): re-plan on the first pass's *drifted* codes, so one bulk
        exchange covers the corrections' window + candidate neighbourhood
        and not just the recorded misses, then replay the original reads
        with misses fetched on the spot and splice the outcome back."""
        if not tail:
            return
        stats = self.comm.stats
        indices, taints, k_missed, t_missed = zip(*tail)
        chunk_of = np.repeat(indices, [r.size for r in taints])
        rows = np.concatenate(taints)
        original = ReadBlock.concat(
            [chunks[i].select(r) for i, r in zip(indices, taints)]
        )
        drifted = ReadBlock.concat(
            [results[i].block.select(r) for i, r in zip(indices, taints)]
        )
        # Every recorded miss rides the first piece's exchange.
        k_miss, t_miss = np.concatenate(k_missed), np.concatenate(t_missed)
        stats.bump("prefetch_tail_reads", int(rows.size))
        size = self.config.chunk_size
        for lo in range(0, rows.size, size):
            hi = lo + size
            drift = drifted.slice(lo, hi)
            stats.bump("prefetch_replans")
            positions = self._enumerate_positions(drift)
            cands, kmers = self._candidate_neighbourhood(
                drift, positions, peek=True
            )
            self._collect(self.endpoint.issue(
                self.view.foreign_unknown(
                    "kmer", np.concatenate([k_miss, kmers])
                ),
                self.view.foreign_unknown(
                    "tile", np.concatenate([t_miss, positions[2], cands])
                ),
            ))
            k_miss = t_miss = np.empty(0, dtype=np.uint64)
            self.view.fetch_on_miss = self._fetch_missed
            try:
                sub = self.corrector.correct_block(original.slice(lo, hi))
            finally:
                self.view.fetch_on_miss = None
            self._splice(results, chunk_of[lo:hi], rows[lo:hi], sub)

    @staticmethod
    def _splice(
        results: list[CorrectionResult],
        chunk_of: NDArray[np.int64],
        rows: NDArray[np.int64],
        sub: CorrectionResult,
    ) -> None:
        """Graft a replayed tail piece — read ``j`` of ``sub`` is row
        ``rows[j]`` of chunk ``chunk_of[j]`` — into the chunks' results."""
        assert sub.tiles_examined_per_read is not None
        assert sub.tiles_below_per_read is not None
        for i in np.unique(chunk_of):
            result, part = results[i], chunk_of == i
            at = rows[part]
            assert result.tiles_examined_per_read is not None
            assert result.tiles_below_per_read is not None
            result.block.codes[at] = sub.block.codes[part]
            result.corrections_per_read[at] = sub.corrections_per_read[part]
            result.reads_reverted[at] = sub.reads_reverted[part]
            result.tiles_examined_per_read[at] = sub.tiles_examined_per_read[part]
            result.tiles_below_per_read[at] = sub.tiles_below_per_read[part]
            result.tiles_examined = int(result.tiles_examined_per_read.sum())
            result.tiles_below_threshold = int(result.tiles_below_per_read.sum())
