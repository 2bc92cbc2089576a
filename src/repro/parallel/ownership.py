"""Owning-rank assignment for k-mers, tiles and sequences.

"Each k-mer (and tile) are defined to have an owning rank; the owning rank
... is defined as the rank p for which hashFunction(kmer) % np == p" — and
the load-balancing scheme extends the same rule to whole sequences.  One
mixer (:func:`~repro.hashing.inthash.splitmix64`) backs all three so the
distribution properties the paper measures (Fig. 3's <1%/<2% spreads) come
from hash uniformity alone.

A sequence's hash folds its packed 2-bit words (32 bases each), not its
bases one by one: a 100-base read is four mixer passes, not a hundred.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.inthash import mix_to_rank, splitmix64
from repro.io.records import ReadBlock
from repro.kmer.bitpack import BASES_PER_WORD, pack_words


def kmer_owner(ids: np.ndarray | int, nranks: int) -> np.ndarray | int:
    """Owning rank of each k-mer id."""
    return mix_to_rank(ids, nranks)


def tile_owner(ids: np.ndarray | int, nranks: int) -> np.ndarray | int:
    """Owning rank of each tile id (same rule, same mixer)."""
    return mix_to_rank(ids, nranks)


def sequence_hash(block: ReadBlock) -> np.ndarray:
    """A 64-bit content hash per read, vectorized across the block.

    Packs the block once (:func:`~repro.kmer.bitpack.pack_words`, the
    words of :func:`~repro.kmer.bitpack.pack_block` without its
    ambiguity prefix) and folds each read's uint64 words through the
    splitmix64 mixer, stopping at the read's own word count,
    ⌈length / 32⌉, then mixes in the length.  Bases past a read's end
    pack as ``00``, so a read hashes the same whatever the width of the
    block holding it, and equal reads always land on the same owner.
    Ambiguous bases pack as ``00`` too, so reads that differ only there
    may share an owner: placement needs determinism and spread, not
    injectivity.
    """
    words = pack_words(block.codes)
    lengths = block.lengths.astype(np.int64)
    n_words = (lengths + BASES_PER_WORD - 1) // BASES_PER_WORD
    h = np.zeros(len(block), dtype=np.uint64)
    for j in range(int(n_words.max(initial=0))):
        h = np.where(n_words > j, splitmix64(h ^ words[:, j]), h)
    return splitmix64(h ^ lengths.astype(np.uint64))


def sequence_owner(block: ReadBlock, nranks: int) -> np.ndarray:
    """Owning rank of each read: ``hashFunction(seq) % np`` (Fig. 4 scheme).

    Hashing the read *content* spreads error bursts that are contiguous in
    the file across all ranks — the "randomization of the entire file"
    effect the paper describes.
    """
    if nranks <= 0:
        raise ValueError("nranks must be positive")
    return (sequence_hash(block) % np.uint64(nranks)).astype(np.int64)
