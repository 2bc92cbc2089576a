"""The pre-packing scalar corrector, frozen as a differential oracle.

:class:`UnpackedReferenceCorrector` preserves the byte-per-base
implementations that :class:`~repro.core.corrector.ReptileCorrector`
replaced with the bit-packed kernels: per-column tile gathering, the
per-site winner loop with scalar base substitution, the nested Python
distance-2 pair loop, and the unmemoized tile-start matrix.  It exists
so packed-vs-unpacked bit-identity can be property-tested and benchmarked
forever against the exact seed semantics, not a reconstruction of them.

Do not optimize this module; its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.core.corrector import (
    CorrectionResult,
    ReptileCorrector,
    _TileBatch,
    _compute_tile_start_matrix,
)
from repro.io.records import ReadBlock
from repro.kmer.codec import INVALID_CODE
from repro.kmer.neighbors import substitute_at


class UnpackedReferenceCorrector(ReptileCorrector):
    """Seed corrector: unpacked gathers, per-site loops, scalar writes."""

    def correct_block(self, block: ReadBlock) -> CorrectionResult:
        """Correct every read of a block; the input block is not mutated."""
        n = len(block)
        codes = block.codes.copy()
        original = block.codes
        corrections = np.zeros(n, dtype=np.int64)
        starts_matrix = self._tile_start_matrix(block.lengths)
        tiles_examined = np.zeros(n, dtype=np.int64)
        tiles_below = np.zeros(n, dtype=np.int64)

        for j in range(starts_matrix.shape[1]):
            col = starts_matrix[:, j]
            active = np.nonzero(col >= 0)[0]
            if active.size == 0:
                continue
            starts = col[active].astype(np.int64)
            tile_ids, valid = self._gather_tiles(codes, active, starts)
            active, starts, tile_ids = (
                active[valid], starts[valid], tile_ids[valid]
            )
            if active.size == 0:
                continue
            tiles_examined[active] += 1
            counts = self.view.tile_counts(tile_ids)
            weak = counts < np.uint32(self.config.tile_threshold)
            rows, s, tids = active[weak], starts[weak], tile_ids[weak]
            tiles_below[rows] += 1
            if rows.size == 0:
                continue
            batch = self._generate_candidates(
                rows, s, tids, self._site_quals(block, rows, s)
            )
            if batch.cand_ids.size == 0:
                continue
            self._apply_winners_loop(codes, corrections, batch)

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

    def _tile_start_matrix(self, lengths: np.ndarray) -> np.ndarray:
        """Seed behavior: recomputed per call, never memoized."""
        return _compute_tile_start_matrix(
            self.shape, np.ascontiguousarray(lengths, dtype=np.int64)
        )

    def _gather_tiles(
        self, codes: np.ndarray, rows: np.ndarray, starts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tile ids at arbitrary (row, start) sites; also a validity mask."""
        w = self.shape.length
        cols = starts[:, None] + np.arange(w, dtype=np.int64)[None, :]
        window = codes[rows[:, None], cols]
        valid = ~(window == INVALID_CODE).any(axis=1)
        # Disjoint 2-bit fields, so the sum is a bitwise OR: one numpy
        # reduction packs every window instead of w sequential shifts.
        shifts = ((w - 1 - np.arange(w, dtype=np.int64)) * 2).astype(np.uint64)
        ids = ((window.astype(np.uint64) & np.uint64(3)) << shifts[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        return ids, valid

    def _site_quals(
        self, block: ReadBlock, rows: np.ndarray, starts: np.ndarray
    ) -> np.ndarray:
        """Seed gather: the sites' base qualities by a column index."""
        w = self.shape.length
        cols = starts[:, None] + np.arange(w, dtype=np.int64)[None, :]
        return block.quals[rows[:, None], cols]

    def _candidate_positions(
        self, quals: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Seed selection: unconditional stable quality argsort per site."""
        cfg = self.config
        low = quals < np.uint8(cfg.quality_threshold)
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
        """Distance-2 candidates via the seed's Python pair loop."""
        w = self.shape.length
        npos = np.bincount(pos_site, minlength=n_sites)
        offsets = np.concatenate(([0], np.cumsum(npos)[:-1]))
        max_n = int(npos.max()) if npos.size else 0
        cand_chunks: list[np.ndarray] = []
        owner_chunks: list[np.ndarray] = []
        key_chunks: list[tuple[np.ndarray, ...]] = []
        for a in range(max_n - 1):
            for b in range(a + 1, max_n):
                sites = np.nonzero(npos > b)[0]
                if sites.size == 0:
                    continue
                pa = pos_flat[offsets[sites] + a]
                pb = pos_flat[offsets[sites] + b]
                base = substitute_at(tile_ids[sites], w, pa)
                combo = substitute_at(base.ravel(), w, np.repeat(pb, 3))
                cand_chunks.append(combo.ravel())
                owner_chunks.append(np.repeat(sites, 9))
                nine = sites.size * 9
                key_chunks.append((
                    np.full(nine, a, dtype=np.int64),
                    np.tile(np.repeat(np.arange(3, dtype=np.int64), 3),
                            sites.size),
                    np.full(nine, b, dtype=np.int64),
                    np.tile(np.arange(3, dtype=np.int64), sites.size * 3),
                ))
        if not cand_chunks:
            return (
                np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
            )
        cands = np.concatenate(cand_chunks)
        owners = np.concatenate(owner_chunks)
        ka = np.concatenate([k[0] for k in key_chunks])
        aa = np.concatenate([k[1] for k in key_chunks])
        kb = np.concatenate([k[2] for k in key_chunks])
        ab = np.concatenate([k[3] for k in key_chunks])
        perm = np.lexsort((ab, kb, aa, ka, owners))
        return cands[perm], owners[perm]

    def _apply_winners_loop(
        self,
        codes: np.ndarray,
        corrections: np.ndarray,
        batch: _TileBatch,
    ) -> None:
        """K-mer prune, tile lookup, ambiguity test, base substitution."""
        cfg = self.config
        shape = self.shape
        suffix_bits = np.uint64(2 * (shape.k - shape.overlap))
        kmer_mask = np.uint64((1 << (2 * shape.k)) - 1)

        first_kmers = (batch.cand_ids >> suffix_bits) & kmer_mask
        second_kmers = batch.cand_ids & kmer_mask
        both = np.concatenate([first_kmers, second_kmers])
        kcounts = self.view.kmer_counts(both)
        m = batch.cand_ids.shape[0]
        solid = (kcounts[:m] >= np.uint32(cfg.kmer_threshold)) & (
            kcounts[m:] >= np.uint32(cfg.kmer_threshold)
        )
        cand_ids = batch.cand_ids[solid]
        cand_owner = batch.cand_owner[solid]
        if cand_ids.size == 0:
            return
        tcounts = self.view.tile_counts(cand_ids).astype(np.int64)
        passing = tcounts >= cfg.tile_threshold
        cand_ids, cand_owner, tcounts = (
            cand_ids[passing], cand_owner[passing], tcounts[passing],
        )
        if cand_ids.size == 0:
            return

        # Per site: best and runner-up candidate counts.  The descending
        # sort must be stable so a count tie at the top resolves to the
        # *first* candidate in enumeration order — at ambiguity_ratio
        # == 1.0 a top tie still corrects, and an unstable sort would
        # leave the winner to numpy's quicksort internals.
        for site in np.unique(cand_owner):
            sel = cand_owner == site
            ids_s = cand_ids[sel]
            cnt_s = tcounts[sel]
            order = np.argsort(-cnt_s, kind="stable")
            best = int(cnt_s[order[0]])
            if order.size > 1:
                second = int(cnt_s[order[1]])
                if best < cfg.ambiguity_ratio * second:
                    continue  # ambiguous: do not correct
            winner = int(ids_s[order[0]])
            row = int(batch.rows[site])
            start = int(batch.starts[site])
            applied = self._substitute(
                codes, row, start, int(batch.tile_ids[site]), winner
            )
            corrections[row] += applied

    def _substitute(
        self, codes: np.ndarray, row: int, start: int, old: int, new: int
    ) -> int:
        """Write the bases where ``new`` differs from ``old``; returns count."""
        w = self.shape.length
        diff = old ^ new
        applied = 0
        for offset in range(w):
            shift = 2 * (w - 1 - offset)
            if (diff >> shift) & 3:
                codes[row, start + offset] = (new >> shift) & 3
                applied += 1
        return applied
