"""K-mer and tile spectrum construction, and the spectrum lookup interface.

The *k-mer spectrum* counts every k-mer occurring in the reads; the *tile
spectrum* counts tiles at the tiling stride.  Both kinds of id come from
one :class:`~repro.kmer.codec.WindowLadder` per block, are counted by a
sort at id width (Step II), and the survivors live in
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
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.config import ReptileConfig
from repro.hashing.counthash import CountHash, sum_by_key
from repro.io.records import ReadBlock
from repro.kmer.bitpack import PackedBlock, pack_block
from repro.kmer.codec import WindowLadder, reverse_complement_id
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
    return WindowLadder(block.codes, block.lengths).windows(shape.k)


def block_tile_ids(block: ReadBlock, shape: TileShape) -> tuple[np.ndarray, np.ndarray]:
    """Tile ids at the tiling stride for a block: (ids, valid)."""
    return WindowLadder(block.codes, block.lengths).windows(shape.length, shape.step)


def _block_window_ids(
    block: ReadBlock, shape: TileShape, count_reverse_complement: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Flat valid ``(k-mer ids, tile ids)`` of a block (Step II core).

    One :class:`~repro.kmer.codec.WindowLadder` over the block's code
    bytes gives both kinds: the tiles read the k-mers' levels at their
    stride.  With ``count_reverse_complement`` the reverse complements
    are added, which is how Reptile handles reads sampled from either
    genome strand: a read's windows are supported by both strands.
    """
    ladder = WindowLadder(block.codes, block.lengths)
    kinds = []
    for w, step in ((shape.k, 1), (shape.length, shape.step)):
        ids, valid = ladder.windows(w, step)
        flat = ids.reshape(-1) if valid.all() else ids[valid]
        if count_reverse_complement:
            flat = np.concatenate([flat, reverse_complement_id(flat, w)])
        kinds.append(flat)
    return kinds[0], kinds[1]


def window_counts(
    blocks: Iterable[ReadBlock],
    shape: TileShape,
    count_reverse_complement: bool,
    keys: Sequence[Callable[[np.ndarray], np.ndarray]] | None = None,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Distinct k-mer and tile ids of the blocks with their occurrences.

    Each block contributes one sorted ``np.unique`` run per spectrum, at
    id width (k = 12 k-mers sort as uint32, as does the seed run);
    :func:`sum_by_key` merges the runs.  This is Step II, serial and per
    rank alike: both spectra come back as ascending ``(keys, counts)``.
    A rank passes ``keys``, the (k-mer, tile) maps of ids to its keys.
    """
    # Seeded with an empty run so that no blocks is not a special case.
    no_windows = (np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.intp))
    kmer_runs, tile_runs = [no_windows], [no_windows]
    for block in blocks:
        kmer_ids, tile_ids = _block_window_ids(
            block, shape, count_reverse_complement
        )
        if keys is not None:
            kmer_ids, tile_ids = keys[0](kmer_ids), keys[1](tile_ids)
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
