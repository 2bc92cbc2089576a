"""K-mer and tile spectrum construction, and the spectrum lookup interface.

The *k-mer spectrum* counts every k-mer occurring in the reads; the *tile
spectrum* counts tiles at the tiling stride.  Both live in
:class:`~repro.hashing.counthash.CountHash` tables (the paper's hash-table
layout, replacing the earlier sorted-array + binary-search design).

:class:`SpectrumView` is the lookup interface the corrector programs
against.  The serial reference uses :class:`LocalSpectrumView`, which
reads the two whole tables directly; the distributed implementation
substitutes its compiled lookup stacks, which consult the local tables
first and send messages for the rest — the corrector does not know the
difference, which is what makes serial-vs-parallel equivalence testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from repro.config import ReptileConfig
from repro.hashing.counthash import CountHash, sum_by_key
from repro.io.records import ReadBlock
from repro.kmer.bitpack import PackedBlock, pack_block, window_id_matrix
from repro.kmer.codec import reverse_complement_id
from repro.kmer.tiles import TileShape


@dataclass
class SpectrumPair:
    """The two spectra of a Reptile run plus their tiling geometry."""

    shape: TileShape
    kmers: CountHash = field(default_factory=CountHash)
    tiles: CountHash = field(default_factory=CountHash)

    @property
    def nbytes(self) -> int:
        """Combined memory footprint of both tables."""
        return self.kmers.nbytes + self.tiles.nbytes

    def threshold(self, kmer_threshold: int, tile_threshold: int) -> tuple[int, int]:
        """Drop sub-threshold entries from both tables (Step III epilogue).

        Returns (#kmers removed, #tiles removed).
        """
        return (
            self.kmers.filter_below(kmer_threshold),
            self.tiles.filter_below(tile_threshold),
        )


def pack_read_block(block: ReadBlock) -> PackedBlock:
    """Bit-pack a read block once for repeated window-id extraction."""
    return pack_block(block.codes, block.lengths)


def block_kmer_ids(block: ReadBlock, shape: TileShape) -> tuple[np.ndarray, np.ndarray]:
    """K-mer ids (every position) for a block: (ids, valid), shape (n, S)."""
    return window_id_matrix(pack_read_block(block), shape.k, step=1)


def block_tile_ids(block: ReadBlock, shape: TileShape) -> tuple[np.ndarray, np.ndarray]:
    """Tile ids at the tiling stride for a block: (ids, valid)."""
    return window_id_matrix(
        pack_read_block(block), shape.length, step=shape.step
    )


def block_window_ids_both_strands(
    ids: np.ndarray, valid: np.ndarray, width: int, reverse_complement: bool
) -> np.ndarray:
    """Flatten valid window ids, optionally adding reverse complements.

    Counting both orientations is how Reptile handles reads sampled from
    either genome strand: a read's windows are then supported by coverage
    from both strands.
    """
    flat = ids[valid]
    if not reverse_complement or flat.size == 0:
        return flat
    rc = reverse_complement_id(flat, width)
    return np.concatenate([flat, rc])


def _block_window_ids(
    block: ReadBlock, shape: TileShape, count_reverse_complement: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``(k-mer ids, tile ids)`` of a block (Step II core).

    The block is bit-packed once; both the k-mer and tile id matrices are
    extracted from the same packed words.
    """
    packed = pack_read_block(block)
    kids, kvalid = window_id_matrix(packed, shape.k, step=1)
    tids, tvalid = window_id_matrix(packed, shape.length, step=shape.step)
    return (
        block_window_ids_both_strands(
            kids, kvalid, shape.k, count_reverse_complement
        ),
        block_window_ids_both_strands(
            tids, tvalid, shape.length, count_reverse_complement
        ),
    )


def window_counts(
    blocks: Iterable[ReadBlock],
    shape: TileShape,
    count_reverse_complement: bool,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Distinct k-mer and tile ids of the blocks with their occurrences.

    Each block contributes one sorted ``np.unique`` run per spectrum;
    :func:`sum_by_key` merges the runs.  This is Step II, serial and per
    rank alike: both spectra come back as ascending ``(keys, counts)``.
    """
    # Seeded with an empty run so that no blocks is not a special case.
    no_windows = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.intp))
    kmer_runs, tile_runs = [no_windows], [no_windows]
    for block in blocks:
        kmer_ids, tile_ids = _block_window_ids(
            block, shape, count_reverse_complement
        )
        kmer_runs.append(np.unique(kmer_ids, return_counts=True))
        tile_runs.append(np.unique(tile_ids, return_counts=True))

    def merged(runs):
        return sum_by_key(
            np.concatenate([keys for keys, _ in runs]),
            np.concatenate([counts for _, counts in runs]),
        )

    return merged(kmer_runs), merged(tile_runs)


def build_spectra(
    blocks: Iterable[ReadBlock] | ReadBlock,
    config: ReptileConfig,
    apply_threshold: bool = True,
) -> SpectrumPair:
    """Serial spectrum construction over one or more read blocks.

    Count, threshold, insert: windows are counted by sorting, and only
    the ids that reach the thresholds ever occupy a table slot (most
    distinct ids are error-induced singletons).
    """
    if isinstance(blocks, ReadBlock):
        blocks = [blocks]
    shape = config.tile_shape
    kmers, tiles = window_counts(
        blocks, shape, config.count_reverse_complement
    )
    kmer_min, tile_min = (
        (config.kmer_threshold, config.tile_threshold)
        if apply_threshold else (0, 0)
    )
    return SpectrumPair(
        shape=shape,
        kmers=CountHash.from_counts(*kmers, min_count=kmer_min),
        tiles=CountHash.from_counts(*tiles, min_count=tile_min),
    )


@runtime_checkable
class SpectrumView(Protocol):
    """Batch count lookups against the (possibly distributed) spectra."""

    def kmer_counts(self, ids: np.ndarray) -> np.ndarray:
        """Global count of each k-mer id (0 when absent anywhere)."""
        ...

    def tile_counts(self, ids: np.ndarray) -> np.ndarray:
        """Global count of each tile id (0 when absent anywhere)."""
        ...


@dataclass
class LookupStats:
    """Counts of spectrum queries issued through a view."""

    kmer_lookups: int = 0
    tile_lookups: int = 0
    kmer_hits: int = 0
    tile_hits: int = 0

    def merge(self, other: "LookupStats") -> None:
        self.kmer_lookups += other.kmer_lookups
        self.tile_lookups += other.tile_lookups
        self.kmer_hits += other.kmer_hits
        self.tile_hits += other.tile_hits


class LocalSpectrumView:
    """Serial view: each count read straight from its spectrum's table.

    Serial is the degenerate world where every table is "replicated",
    so a lookup is one table probe — what a one-rank or fully
    replicated lookup stack does too.  :attr:`stats` counts the ids
    asked and the hits (ids with count > 0).
    """

    def __init__(self, spectra: SpectrumPair) -> None:
        self._spectra = spectra
        self.stats = LookupStats()

    def kmer_counts(self, ids: np.ndarray) -> np.ndarray:
        """K-mer counts (with stats)."""
        counts = self._spectra.kmers.lookup(ids)
        self.stats.kmer_lookups += int(np.asarray(ids).size)
        self.stats.kmer_hits += int(np.count_nonzero(counts))
        return counts

    def tile_counts(self, ids: np.ndarray) -> np.ndarray:
        """Tile counts (with stats)."""
        counts = self._spectra.tiles.lookup(ids)
        self.stats.tile_lookups += int(np.asarray(ids).size)
        self.stats.tile_hits += int(np.count_nonzero(counts))
        return counts
