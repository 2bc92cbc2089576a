"""The Reptile tile-based corrector.

Reads are corrected tile by tile, left to right: a tile whose global
spectrum count is below the threshold is a correction site; candidate
replacement tiles are generated by substituting bases at the tile's
lowest-quality positions (distance 1, optionally 2), pruned by requiring
both constituent k-mers to be solid, and the surviving candidates' tile
counts decide — a correction is applied only when the best candidate beats
the runner-up by the ambiguity ratio.  Reads that would need more
substitutions than the per-read cap are reverted (left uncorrected), as
excessive corrections indicate the read cannot be placed confidently.

The block corrector runs as a *per-read lookahead* over a few dependent
lookup rounds.  Reads are independent; only a read's own left-to-right
order is a real dependency (a correction rewrites the later tiles that
overlap it).  So:

* **Round 0** extracts every tile of the block and looks them all up in
  one call.
* **Each later round** first lets every read move forward locally past
  tiles already known to be solid.  A read stops at its next weak tile
  that has candidates (it waits with the candidates' k-mer ids *and*
  their tile ids) or at a tile a correction rewrote to a new id (it
  waits with its stale tile ids).  One lookup round then answers every
  waiting read at once: a k-mer side and a tile side.  A view that
  messages is asked the round as one pair (:meth:`_lookup_round`); a
  local view, which pays by the id and not by the round, is asked the
  rewritten tiles right after the correction instead of a round later.

A read never waits at more than one weak site per round, so the batched
substitution writes distinct rows; and each read sees exactly the ids,
counts and candidates the tile-by-tile order would show it, so the output
is bit-identical to a column-by-column wavefront.  A block needs as many
rounds as its longest chain of stops — one per weak site with
candidates, one per correction that changed a later tile, plus round 0:
at read length 102, 10–14 for E. coli-profile blocks of 700 to 70k reads
(13–21 with bursty errors; a local view, with no stale rounds, 7–13),
against 36 dependent lookups (three per tile column) for a column
wavefront — and in the distributed setting every round is one message
exchange.

The kernels run on the bit-packed representation of
:mod:`repro.kmer.bitpack`: the block is packed once per ``correct_block``
call, tile extraction is two word-gathers plus shifts, winning tiles are
written back as XOR diffs, and the packed words are maintained
incrementally, so a tile extracted in a later round sees every earlier
correction.  There is no Python-level loop over reads, sites,
candidates, or bases anywhere in the call graph — winner selection is a
segmented reduction, distance-2 enumeration is a flat triangular
expansion, and a round's per-read bookkeeping touches only the rows of
the reads that moved.  The
pre-packing column-wavefront implementation survives verbatim in
:mod:`repro.core.reference` as the differential oracle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.config import ReptileConfig
from repro.core.spectrum import SpectrumView
from repro.io.records import ReadBlock
from repro.kmer.bitpack import (
    PackedBlock,
    pack_block,
    substitute_many,
    windows_at,
    windows_at_unchecked,
)
from repro.kmer.neighbors import substitute_at
from repro.kmer.tiles import TileShape


@dataclass
class CorrectionResult:
    """Outcome of correcting one read block."""

    block: ReadBlock
    corrections_per_read: np.ndarray
    reads_reverted: np.ndarray
    tiles_examined: int
    tiles_below_threshold: int
    #: Per-read breakdown of the two totals above (``None`` for results
    #: assembled outside :meth:`ReptileCorrector.correct_block`).  Lets
    #: the prefetch engine splice per-read replays while keeping the
    #: aggregate diagnostics exact.
    tiles_examined_per_read: np.ndarray | None = None
    tiles_below_per_read: np.ndarray | None = None

    @staticmethod
    def concat(
        results: "list[CorrectionResult]", width: int = 0
    ) -> "CorrectionResult":
        """Fold per-chunk results into one, in order; an empty list
        gives the empty result over ``width``-wide reads."""
        if not results:
            return CorrectionResult(
                block=ReadBlock.empty(width),
                corrections_per_read=np.empty(0, dtype=np.int64),
                reads_reverted=np.empty(0, dtype=bool),
                tiles_examined=0,
                tiles_below_threshold=0,
            )
        return CorrectionResult(
            block=ReadBlock.concat([r.block for r in results]),
            corrections_per_read=np.concatenate(
                [r.corrections_per_read for r in results]
            ),
            reads_reverted=np.concatenate([r.reads_reverted for r in results]),
            tiles_examined=sum(r.tiles_examined for r in results),
            tiles_below_threshold=sum(r.tiles_below_threshold for r in results),
        )

    @property
    def total_corrections(self) -> int:
        """Total substitutions applied (the paper's "errors corrected")."""
        return int(self.corrections_per_read.sum())

    @property
    def reads_modified(self) -> int:
        """Number of reads with at least one substitution applied."""
        return int((self.corrections_per_read > 0).sum())


@dataclass
class _TileBatch:
    """One round's correction sites, at most one per read (internal)."""

    rows: np.ndarray          # block row index of each site
    starts: np.ndarray        # tile start offset within the read
    tile_ids: np.ndarray      # current tile id at each site
    cand_ids: np.ndarray      # flat candidate tile ids
    cand_owner: np.ndarray    # index into rows for each candidate


@dataclass
class _Lookahead:
    """A block's per-tile state between lookup rounds (internal).

    One cell per (read, tile column), row-major like the tile-start
    matrix; a round reads and writes only the cells of the reads that
    moved.  Only tiles a read has yet to examine are ever marked
    ``stop``, so a read's first marked cell is where it stops next.  A
    tile's current id is not kept: the packed block is, so the few ids
    a round needs are extracted when it needs them.
    """

    width: int                # tile columns per read
    starts: np.ndarray        # (n, width) tile starts, -1 past a read's end
    #: Per cell: is there a tile without an ambiguous base?  None when
    #: every tile is (starts say which cells hold one).
    valid: np.ndarray | None
    stop: np.ndarray          # (n, width): weak and unexamined, or stale
    stale: np.ndarray         # per cell: rewritten, count unknown
    #: Cells marked stale by the last round, for the next one to fetch.
    pending: np.ndarray


_NO_IDS = np.empty(0, dtype=np.uint64)
_NO_ROWS = np.empty(0, dtype=np.int64)


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array."""
    first = np.ones(values.shape[0], dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


# ----------------------------------------------------------------------
# Tile-start memo.  Service rounds and prefetch pieces present the same
# (shape, lengths) pair over and over — uniform read lengths make
# equal-sized blocks identical (a blocking rank's share, sized per rank,
# misses once) — so the start matrix is computed once per key and
# shared.  Module-level because every rank and every correction round
# constructs its own corrector; entries are immutable (writeable=False)
# and the lock covers the threaded engine's concurrent ranks.

_TILE_STARTS_CACHE: "OrderedDict[tuple[int, int, bytes], np.ndarray]" = (
    OrderedDict()
)
_TILE_STARTS_LOCK = threading.Lock()

#: Bounded LRU size of the tile-start memo.
TILE_STARTS_CACHE_MAX = 128


def clear_tile_starts_cache() -> None:
    """Drop all memoized tile-start matrices (test isolation hook)."""
    with _TILE_STARTS_LOCK:
        _TILE_STARTS_CACHE.clear()


def _compute_tile_start_matrix(
    shape: TileShape, lengths: np.ndarray
) -> np.ndarray:
    """Per-read tile start offsets, -1 padded, shape (n, max_tiles).

    Regular starts advance by the tiling stride; a final start at
    ``L - tile_length`` is appended when the regular tiling does not
    reach the read's 3' end, so the whole read is covered (Reptile's
    shifted last tile).
    """
    n = lengths.shape[0]
    per_length: dict[int, np.ndarray] = {}
    for L in np.unique(lengths):
        L = int(L)
        ts = shape.tile_starts(L)
        final = L - shape.length
        if final >= 0 and (ts.size == 0 or ts[-1] != final):
            ts = np.append(ts, final)
        per_length[L] = ts
    width = max((v.size for v in per_length.values()), default=0)
    out = np.full((n, width), -1, dtype=np.int64)
    for L, ts in per_length.items():
        rows = np.nonzero(lengths == L)[0]
        out[rows[:, None], np.arange(ts.size)[None, :]] = ts[None, :]
    return out


class ReptileCorrector:
    """Applies Reptile's correction algorithm through a spectrum view.

    Parameters
    ----------
    config:
        Algorithm parameters (thresholds, quality cutoff, caps).
    view:
        Spectrum lookups — local for the serial reference, remote-capable
        in the distributed runtime.
    """

    def __init__(self, config: ReptileConfig, view: SpectrumView) -> None:
        self.config = config
        self.view = view
        self.shape: TileShape = config.tile_shape
        # Views that resolve lookups from an incomplete cache (the
        # prefetch engine) need to know which read each looked-up id
        # belongs to, so a miss can be replayed for just that read.
        self._note_rows = getattr(view, "note_rows", None)
        # A view that messages answers a round's two sides as one pair
        # (one request per owner); any other view — a fully replicated
        # stack pair included — answers with its kmer_counts /
        # tile_counts calls.
        self._pair_counts = (
            None if getattr(view, "fully_replicated", False)
            else getattr(view, "pair_counts", None)
        )

    # ------------------------------------------------------------------
    def correct_block(self, block: ReadBlock) -> CorrectionResult:
        """Correct every read of a block; the input block is not mutated."""
        n = len(block)
        codes = block.codes.copy()
        original = block.codes
        corrections = np.zeros(n, dtype=np.int64)
        tiles_below = np.zeros(n, dtype=np.int64)
        # Packed once; substitutions update the words incrementally so
        # tiles extracted in later rounds see earlier corrections.
        packed = pack_block(codes, block.lengths)
        state, tiles_examined, rows = self._first_round(packed, block.lengths)
        batch, stale_rows = self._advance(
            block, packed, state, rows, tiles_below
        )
        while batch.rows.size or stale_rows.size:
            self._round(codes, packed, state, batch, corrections)
            batch, stale_rows = self._advance(
                block, packed, state, np.concatenate([batch.rows, stale_rows]),
                tiles_below,
            )

        reverted = corrections > self.config.max_corrections_per_read
        if reverted.any():
            codes[reverted] = original[reverted]
            corrections[reverted] = 0

        out = ReadBlock(
            ids=block.ids.copy(),
            codes=codes,
            lengths=block.lengths.copy(),
            quals=block.quals.copy(),
        )
        return CorrectionResult(
            block=out,
            corrections_per_read=corrections,
            reads_reverted=reverted,
            tiles_examined=int(tiles_examined.sum()),
            tiles_below_threshold=int(tiles_below.sum()),
            tiles_examined_per_read=tiles_examined,
            tiles_below_per_read=tiles_below,
        )

    # ------------------------------------------------------------------
    # the lookahead
    # ------------------------------------------------------------------
    def _first_round(
        self, packed: PackedBlock, lengths: np.ndarray
    ) -> tuple[_Lookahead, np.ndarray, np.ndarray]:
        """Round 0: every tile of the block, extracted and looked up in
        one call.  Returns the state, the tiles examined per read (every
        valid tile, once) and the reads with a weak tile."""
        starts = self._tile_start_matrix(lengths)
        n, t = starts.shape
        # One (read, column) cell per tile position; with uniform read
        # lengths every read has the same tiles.
        uniform = n == 0 or lengths.min() == lengths.max()
        got, ok = windows_at_unchecked(
            packed,
            np.arange(n, dtype=np.int64)[:, None],
            starts[:1] if uniform else np.maximum(starts, 0),
            self.shape.length,
        )
        got = got.reshape(-1)
        valid = None
        if not uniform or (ok is not None and not ok.all()):
            present = starts >= 0
            valid = present if ok is None else present & ok
            valid = valid.reshape(-1)
        cells = None if valid is None else np.flatnonzero(valid)
        rows = _NO_ROWS
        if self._note_rows is not None:
            rows = (
                np.repeat(np.arange(n, dtype=np.int64), t) if cells is None
                else cells // t
            )
        counts = self._tile_counts(got if cells is None else got[cells], rows)
        weak = counts < np.uint32(self.config.tile_threshold)
        if cells is None:
            stop = weak
            examined = np.full(n, t, dtype=np.int64)
            weak_cells = np.flatnonzero(weak)
        else:
            weak_cells = cells[weak]
            stop = np.zeros(n * t, dtype=bool)
            stop[weak_cells] = True
            examined = np.bincount(cells // t, minlength=n).astype(np.int64)
        state = _Lookahead(
            width=t, starts=starts, valid=valid, stop=stop.reshape(n, t),
            stale=np.zeros(n * t, dtype=bool), pending=_NO_ROWS,
        )
        return state, examined, _distinct_sorted(weak_cells // t)

    def _advance(
        self,
        block: ReadBlock,
        packed: PackedBlock,
        state: _Lookahead,
        rows: np.ndarray,
        tiles_below: np.ndarray,
    ) -> tuple[_TileBatch, np.ndarray]:
        """Move each read of ``rows`` forward locally to its next stop.

        Solid tiles (and invalid ones, which are never looked up) are
        passed over.  A read stops at a stale tile before examining it.
        It examines a weak tile where it meets one: the tile counts as
        below the threshold, and the read waits there when the tile has
        candidates or moves on when it has none.  Returns the weak sites
        the reads wait at, with their candidates, and the reads that
        wait on stale tiles.
        """
        t = state.width
        stop = state.stop.reshape(-1)
        weak, stale = [_NO_ROWS], [_NO_ROWS]
        while rows.size:
            # Stops are sparse: a read's next one is its first marked
            # cell, read off the nonzero cells of its rows.
            cells = np.flatnonzero(np.take(state.stop, rows, axis=0))
            of = cells // t
            first = np.ones(of.shape[0], dtype=bool)
            np.not_equal(of[1:], of[:-1], out=first[1:])
            first = np.flatnonzero(first)
            of, cells = of.take(first), cells.take(first)
            rows = rows.take(of)
            cells += (rows - of) * t
            waits = state.stale.take(cells)
            if waits.any():
                stale.append(rows[waits])
                rows, cells = rows[~waits], cells[~waits]
            stop[cells] = False
            tiles_below[rows] += 1
            has = self._has_candidates(
                block, rows, state.starts.reshape(-1).take(cells)
            )
            weak.append(cells[has])
            rows = rows[~has]
        cells = np.concatenate(weak)
        rows, starts = cells // t, state.starts.reshape(-1).take(cells)
        batch = self._generate_candidates(
            block, rows, starts, self._tile_ids(packed, rows, starts)
        )
        return batch, np.concatenate(stale)

    def _tile_ids(
        self, packed: PackedBlock, rows: np.ndarray, starts: np.ndarray
    ) -> np.ndarray:
        """Current ids of valid tiles (the packed words track every
        correction)."""
        return windows_at_unchecked(packed, rows, starts, self.shape.length)[0]

    def _has_candidates(
        self, block: ReadBlock, rows: np.ndarray, starts: np.ndarray
    ) -> np.ndarray:
        """Does each site have a base below the quality cutoff (so at
        least one candidate)?"""
        quals = self._site_quals(block, rows, starts)
        return (quals < np.uint8(self.config.quality_threshold)).any(axis=1)

    def _site_quals(
        self, block: ReadBlock, rows: np.ndarray, starts: np.ndarray
    ) -> np.ndarray:
        """The ``(sites, w)`` base qualities of the tiles at ``(rows,
        starts)``, gathered through a window view of the quality matrix
        (no index array as large as the result)."""
        w = self.shape.length
        if rows.size == 0:
            return np.empty((0, w), dtype=block.quals.dtype)
        windows = np.lib.stride_tricks.sliding_window_view(
            block.quals, w, axis=1
        )
        return windows[rows, starts]

    def _round(
        self,
        codes: np.ndarray,
        packed: PackedBlock,
        state: _Lookahead,
        batch: _TileBatch,
        corrections: np.ndarray,
    ) -> None:
        """One lookup round for every waiting read, then its outcome."""
        kcounts, tcounts, stale_counts = self._lookup_round(
            batch, *self._stale_tiles(packed, state)
        )
        self._refresh(state, stale_counts)
        sites, winners = self._winners(batch, kcounts, tcounts)
        if sites.size:
            rows, starts = batch.rows[sites], batch.starts[sites]
            olds = batch.tile_ids[sites]
            # One site per read per round, so rows are distinct and the
            # batched write cannot race; same reason the plain fancy
            # index add below needs no np.add.at.
            corrections[rows] += substitute_many(
                codes, packed, rows, starts, olds, winners, self.shape.length,
            )
            self._mark_stale(state, rows, starts, olds ^ winners)
            if self._pair_counts is None:
                # A local view pays by the id, not by the round: the
                # rewritten tiles are looked up now, not in a round of
                # their own.
                self._refresh(state, self._counts(
                    self.view.tile_counts, *self._stale_tiles(packed, state)
                ))

    def _stale_tiles(
        self, packed: PackedBlock, state: _Lookahead
    ) -> tuple[np.ndarray, np.ndarray]:
        """Current ids and rows of the stale tiles."""
        rows = state.pending // state.width
        starts = state.starts.reshape(-1).take(state.pending)
        return self._tile_ids(packed, rows, starts), rows

    def _refresh(self, state: _Lookahead, counts: np.ndarray) -> None:
        """The stale tiles' counts are in: each is now a weak tile (a
        stop) or a solid one."""
        pending = state.pending
        state.stop.reshape(-1)[pending] = counts < np.uint32(
            self.config.tile_threshold
        )
        state.stale[pending] = False
        state.pending = _NO_ROWS

    def _mark_stale(
        self,
        state: _Lookahead,
        rows: np.ndarray,
        starts: np.ndarray,
        diffs: np.ndarray,
    ) -> None:
        """Windows at ``(rows, starts)`` changed by the id XOR ``diffs``:
        every later valid tile that shares a changed base has a new id,
        whose count is unknown — it is stale."""
        w, step, t = self.shape.length, self.shape.step, state.width
        # A tile's column is ceil(start / step) (the shifted last tile
        # sits between two strides), and later tiles start later, so
        # only the next ceil(w / step) columns can overlap a window.
        span = -(-w // step)
        col = np.repeat(-(-starts // step), span)
        col += np.tile(np.arange(1, span + 1, dtype=np.int64), rows.shape[0])
        inside = col < t
        np.minimum(col, t - 1, out=col)
        col += np.repeat(rows * t, span)
        offset = state.starts.reshape(-1).take(col)
        offset -= np.repeat(starts, span)
        # A read's cells past its last tile start at -1.
        inside &= offset > 0
        inside &= offset < w
        pick = np.flatnonzero(inside)
        cells = col.take(pick)
        # Base i of a window is base i - offset of the tile at offset
        # from it: 2 * offset bits further up, those below 0 drop out.
        shift = offset.take(pick).astype(np.uint64)
        shift <<= np.uint64(1)
        delta = diffs.take(pick // span) << shift
        delta &= np.uint64((1 << (2 * w)) - 1)
        changed = delta != 0
        if state.valid is not None:
            changed &= state.valid.take(cells)
        cells = cells[changed]
        state.stop.reshape(-1)[cells] = True
        state.stale[cells] = True
        state.pending = cells

    def _tile_counts(self, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Round 0's lookup: tile ids only."""
        if self._pair_counts is not None:
            return self._pair_counts(_NO_IDS, ids)[1]
        return self._counts(self.view.tile_counts, ids, rows)

    def _lookup_round(
        self, batch: _TileBatch, stale_ids: np.ndarray, stale_rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One round's counts: both k-mers of every candidate (all first
        k-mers, then all second ones), every candidate tile, and every
        stale tile.

        A view that messages is asked the round as one pair, so a weak
        site settles in one exchange: its tile side carries every
        candidate tile, solid or not.  Any other view is asked the
        k-mers first and then the tiles of the candidates whose k-mers
        are solid (a candidate with a weak k-mer cannot win, and a local
        view pays by the id, not by the call); the others count 0.  (A
        local view has no stale tiles here: :meth:`_round` looks them up
        as soon as a correction rewrites them.)
        """
        kmer_ids = self._candidate_kmers(batch.cand_ids)
        m = batch.cand_ids.shape[0]
        if self._pair_counts is not None:
            kcounts, counts = self._pair_counts(
                kmer_ids, np.concatenate([batch.cand_ids, stale_ids])
            )
            return kcounts, counts[:m], counts[m:]
        cand_rows = (
            batch.rows[batch.cand_owner] if self._note_rows is not None
            else _NO_ROWS
        )
        kcounts = self._counts(
            self.view.kmer_counts, kmer_ids,
            np.concatenate([cand_rows, cand_rows]),
        )
        solid = np.flatnonzero(self._solid(kcounts))
        counts = self._counts(
            self.view.tile_counts,
            np.concatenate([batch.cand_ids[solid], stale_ids]),
            np.concatenate([cand_rows[solid], stale_rows])
            if self._note_rows is not None else _NO_ROWS,
        )
        tcounts = np.zeros(m, dtype=np.uint32)
        tcounts[solid] = counts[: solid.shape[0]]
        return kcounts, tcounts, counts[solid.shape[0]:]

    def _counts(self, lookup, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if ids.size == 0:
            return np.empty(0, dtype=np.uint32)
        if self._note_rows is not None:
            self._note_rows(rows)
        return lookup(ids)

    # ------------------------------------------------------------------
    def _tile_start_matrix(self, lengths: np.ndarray) -> np.ndarray:
        """Memoized tile-start matrix (see :func:`_compute_tile_start_matrix`).

        The returned array is shared and read-only; callers only index it.
        """
        lengths64 = np.ascontiguousarray(lengths, dtype=np.int64)
        key = (self.shape.k, self.shape.overlap, lengths64.tobytes())
        with _TILE_STARTS_LOCK:
            cached = _TILE_STARTS_CACHE.get(key)
            if cached is not None:
                _TILE_STARTS_CACHE.move_to_end(key)
                return cached
        out = _compute_tile_start_matrix(self.shape, lengths64)
        out.setflags(write=False)
        with _TILE_STARTS_LOCK:
            _TILE_STARTS_CACHE[key] = out
            while len(_TILE_STARTS_CACHE) > TILE_STARTS_CACHE_MAX:
                _TILE_STARTS_CACHE.popitem(last=False)
        return out

    def _gather_tiles(
        self, codes: np.ndarray, rows: np.ndarray, starts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tile ids at arbitrary (row, start) sites; also a validity mask.

        One-shot convenience over a raw code matrix (the prefetch planner
        enumerates a whole chunk's sites through this): packs the matrix
        and extracts word-wise.  The correction loop itself keeps a live
        :class:`~repro.kmer.bitpack.PackedBlock` instead of re-packing.
        """
        packed = pack_block(
            codes,
            np.full(codes.shape[0], codes.shape[1], dtype=np.int64),
        )
        return windows_at(
            packed,
            np.ascontiguousarray(rows, dtype=np.int64),
            np.ascontiguousarray(starts, dtype=np.int64),
            self.shape.length,
        )

    def _generate_candidates(
        self,
        block: ReadBlock,
        rows: np.ndarray,
        starts: np.ndarray,
        tile_ids: np.ndarray,
    ) -> _TileBatch:
        """Candidate tiles for each weak site (quality-restricted).

        Fully vectorized, but the flat candidate order per site is kept
        bit-for-bit identical to the original scalar enumeration —
        distance-1 flips by ascending position (alternatives inner), then
        distance-2 pairs nested as ``(a_idx, alt_a, b_idx, alt_b)`` — because
        :meth:`_winners` breaks count ties by candidate order.
        """
        cfg = self.config
        w = self.shape.length
        pos_site, pos_flat = self._candidate_positions(block, rows, starts)
        if pos_site.size == 0:
            return _TileBatch(
                rows=rows, starts=starts, tile_ids=tile_ids,
                cand_ids=np.empty(0, dtype=np.uint64),
                cand_owner=np.empty(0, dtype=np.int64),
            )

        d1_cands = substitute_at(tile_ids[pos_site], w, pos_flat).ravel()
        d1_owner = np.repeat(pos_site, 3)
        if cfg.max_distance < 2:
            return _TileBatch(
                rows=rows, starts=starts, tile_ids=tile_ids,
                cand_ids=d1_cands, cand_owner=d1_owner,
            )

        d2_cands, d2_owner = self._distance2_candidates(
            tile_ids, pos_site, pos_flat, rows.shape[0]
        )
        if d2_cands.size == 0:
            return _TileBatch(
                rows=rows, starts=starts, tile_ids=tile_ids,
                cand_ids=d1_cands, cand_owner=d1_owner,
            )
        # Interleave so each site lists its d1 block before its d2 block.
        cand_ids = np.concatenate([d1_cands, d2_cands])
        cand_owner = np.concatenate([d1_owner, d2_owner])
        section = np.concatenate([
            np.zeros(d1_cands.size, dtype=np.int64),
            np.ones(d2_cands.size, dtype=np.int64),
        ])
        seq = np.concatenate([
            np.arange(d1_cands.size, dtype=np.int64),
            np.arange(d2_cands.size, dtype=np.int64),
        ])
        merge = np.lexsort((seq, section, cand_owner))
        return _TileBatch(
            rows=rows,
            starts=starts,
            tile_ids=tile_ids,
            cand_ids=cand_ids[merge],
            cand_owner=cand_owner[merge],
        )

    def _candidate_positions(
        self, block: ReadBlock, rows: np.ndarray, starts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Substitution positions per weak site, flattened.

        For each site: the ``max_candidate_positions`` lowest-quality
        positions below the quality cutoff (stable quality order, ties by
        offset), re-sorted to ascending position.  Returns
        ``(site_index, position)`` pairs sorted by site then position.
        """
        cfg = self.config
        quals = self._site_quals(block, rows, starts)
        low = quals < np.uint8(cfg.quality_threshold)
        # When no site exceeds the position cap the selection keeps every
        # low-quality position, and row-major nonzero already yields them
        # sorted by site then position — the quality argsort only matters
        # for choosing which positions to drop.
        if low.sum(axis=1).max(initial=0) <= cfg.max_candidate_positions:
            site_of, pos_flat = np.nonzero(low)
            return site_of, pos_flat
        order = np.argsort(quals, axis=1, kind="stable")
        sorted_low = np.take_along_axis(low, order, axis=1)
        keep = sorted_low & (
            np.cumsum(sorted_low, axis=1) <= cfg.max_candidate_positions
        )
        site_of, order_col = np.nonzero(keep)
        pos_flat = order[site_of, order_col]
        reorder = np.lexsort((pos_flat, site_of))
        return site_of[reorder], pos_flat[reorder]

    def _distance2_candidates(
        self,
        tile_ids: np.ndarray,
        pos_site: np.ndarray,
        pos_flat: np.ndarray,
        n_sites: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distance-2 candidates: flips composed at ordered position pairs.

        All ``(a_idx, b_idx)`` position pairs of every site are laid out
        flat by a segmented triangular expansion (two ``repeat`` rounds:
        site → rows ``a``, row → pairs ``b > a``) — integer index
        arithmetic only, no Python pair loop.  A final lexsort on the
        same ``(owner, a_idx, alt_a, b_idx, alt_b)`` key tuple as the
        scalar enumeration restores the exact per-site candidate order
        (the keys identify candidates uniquely, so the sorted order is
        independent of how the flat list was produced).
        """
        w = self.shape.length
        npos = np.bincount(pos_site, minlength=n_sites)
        offsets = np.concatenate(([0], np.cumsum(npos)[:-1]))
        # One "row" per (site, a_idx): site i contributes npos[i]-1 rows.
        nrows = np.maximum(npos - 1, 0)
        total_rows = int(nrows.sum())
        if total_rows == 0:
            return (
                np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
            )
        row_site = np.repeat(np.arange(n_sites, dtype=np.int64), nrows)
        row_off = np.concatenate(([0], np.cumsum(nrows)[:-1]))
        row_a = np.arange(total_rows, dtype=np.int64) - row_off[row_site]
        # Row (site, a) holds the pairs (a, a+1) .. (a, npos-1).
        row_cnt = npos[row_site] - 1 - row_a
        total_pairs = int(row_cnt.sum())
        pair_row = np.repeat(np.arange(total_rows, dtype=np.int64), row_cnt)
        pair_off = np.concatenate(([0], np.cumsum(row_cnt)[:-1]))
        pair_site = row_site[pair_row]
        pair_a = row_a[pair_row]
        pair_b = pair_a + 1 + (
            np.arange(total_pairs, dtype=np.int64) - pair_off[pair_row]
        )
        pa = pos_flat[offsets[pair_site] + pair_a]
        pb = pos_flat[offsets[pair_site] + pair_b]
        base = substitute_at(tile_ids[pair_site], w, pa)
        combo = substitute_at(base.ravel(), w, np.repeat(pb, 3))
        cands = combo.ravel()
        owners = np.repeat(pair_site, 9)
        ka = np.repeat(pair_a, 9)
        kb = np.repeat(pair_b, 9)
        aa = np.tile(np.repeat(np.arange(3, dtype=np.int64), 3), total_pairs)
        ab = np.tile(np.arange(3, dtype=np.int64), total_pairs * 3)
        perm = np.lexsort((ab, kb, aa, ka, owners))
        return cands[perm], owners[perm]

    def _candidate_kmers(self, cand_ids: np.ndarray) -> np.ndarray:
        """Both k-mers of every candidate tile: all first k-mers, then
        all second k-mers."""
        shape = self.shape
        suffix_bits = np.uint64(2 * (shape.k - shape.overlap))
        kmer_mask = np.uint64((1 << (2 * shape.k)) - 1)
        m = cand_ids.shape[0]
        both = np.empty(2 * m, dtype=np.uint64)
        np.right_shift(cand_ids, suffix_bits, out=both[:m])
        both[:m] &= kmer_mask
        np.bitwise_and(cand_ids, kmer_mask, out=both[m:])
        return both

    def _solid(self, kcounts: np.ndarray) -> np.ndarray:
        """Per candidate: are both its k-mers solid?"""
        m = kcounts.shape[0] // 2
        kmer_threshold = np.uint32(self.config.kmer_threshold)
        solid = kcounts[:m] >= kmer_threshold
        solid &= kcounts[m:] >= kmer_threshold
        return solid

    def _winners(
        self, batch: _TileBatch, kcounts: np.ndarray, tcounts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """K-mer prune, tile threshold, ambiguity test: ``(sites, winning
        tile ids)`` of the sites that correct.

        A candidate passes when both its k-mers and the tile itself reach
        their thresholds.  Winner selection is a segmented reduction:
        candidates arrive owner-major in candidate order, so each site is
        a contiguous segment and ``np.maximum.reduceat`` reads off the
        best count per site; the winner is the segment's *first*
        candidate achieving it (count ties keep candidate order, the same
        tie-break as the reference's stable descending sort — at
        ``ambiguity_ratio == 1.0`` a top tie still corrects, so the
        tie-break is observable), and the runner-up is the segment
        maximum with that one winner masked out.  No sort, no per-site
        loop.
        """
        cfg = self.config
        passing = self._solid(kcounts)
        passing &= tcounts >= np.uint32(cfg.tile_threshold)
        cand_ids = batch.cand_ids[passing]
        cand_owner = batch.cand_owner[passing]
        tcounts = tcounts[passing].astype(np.int64)
        if cand_ids.size == 0:
            return _NO_ROWS, _NO_IDS

        # cand_owner is sorted, so each site's candidates are one
        # contiguous segment in candidate order.
        ncand = cand_owner.shape[0]
        head = np.empty(ncand, dtype=bool)
        head[0] = True
        np.not_equal(cand_owner[1:], cand_owner[:-1], out=head[1:])
        seg_start = np.flatnonzero(head)
        sizes = np.diff(seg_start, append=ncand)
        best = np.maximum.reduceat(tcounts, seg_start)
        # Winner: first candidate of the segment matching its best count
        # (ties break by candidate order).
        seg_id = np.cumsum(head) - 1
        best_pos = np.flatnonzero(tcounts == best[seg_id])
        winner_pos = best_pos[np.searchsorted(best_pos, seg_start)]
        # Runner-up: segment max with the winner occurrence masked out
        # (a top tie therefore yields second == best, which any
        # ambiguity_ratio >= 1 treats as ambiguous-or-equal exactly as
        # the descending sort did).
        masked = tcounts.copy()
        masked[winner_pos] = -1
        has_second = sizes >= 2
        second = np.maximum.reduceat(masked, seg_start)
        ambiguous = has_second & (best < cfg.ambiguity_ratio * second)
        winner_pos = winner_pos[~ambiguous]
        return cand_owner[winner_pos], cand_ids[winner_pos]
