"""Owning-rank assignment for k-mers, tiles and sequences.

The paper's owner of a k-mer or tile is ``hashFunction(kmer) % np``.
Here an owner is a *key range*: a ``b``-bit id (``2k`` for a k-mer,
``2 (2k - overlap)`` for a tile) is mixed into a ``b``-bit key by a
bijection, and rank ``p`` owns the ``p``-th of ``P`` equal key ranges,
``owner = (key · P) >> b`` (Lemire's multiply-shift for ``%``).  That is
still a uniform hash partition, but sorted key order is owner order, so
a sorted run splits among its owners by binary search
(:meth:`KeySpace.cuts`) instead of a second sort.  The distributed
spectrum holds keys throughout (shards, replicas, read tables, caches,
the wire); a lookup view mixes a round's ids once on the way in.  This
module is the only code that computes an owner.

A read's owner (placement) is ``sequence_hash % P``, the hash folding
its packed 2-bit words through splitmix64, one pass per 32 bases.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.hashing.inthash import splitmix64
from repro.io.records import ReadBlock
from repro.kmer.bitpack import BASES_PER_WORD, pack_words
from repro.kmer.tiles import TileShape

#: 2⁶⁴/φ, the Fibonacci-hashing multiplier; a ``b``-bit space uses its
#: top ``b`` bits, made odd (so invertible mod 2ᵇ).
_GOLDEN = 0x9E3779B97F4A7C15

#: Key arrays are uint32 (up to 32 bits) or uint64.
Keys = NDArray[np.unsignedinteger[Any]]


@dataclass(frozen=True)
class KeySpace:
    """The keys of one kind of id, ``bits`` wide, and who owns them."""

    bits: int

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 64:
            raise ValueError(f"a key space is 1 to 64 bits, got {self.bits}")

    @property
    def dtype(self) -> type[np.uint32] | type[np.uint64]:
        """uint32 for a key space of up to 32 bits, else uint64."""
        return np.uint32 if self.bits <= 32 else np.uint64

    def keys(self, ids: ArrayLike) -> Keys:
        """The key of every id below ``2**bits``, at :attr:`dtype`:
        ``x ^= x >> s; x = x · m mod 2ᵇ; x ^= x >> s``, ``s = ⌈b/2⌉``,
        each step a bijection of ``[0, 2ᵇ)``."""
        dtype = self.dtype
        shift = dtype((self.bits + 1) // 2)
        x: Keys = np.array(ids, dtype=dtype)
        x ^= x >> shift
        x *= dtype((_GOLDEN >> (64 - self.bits)) | 1)
        if self.bits % 32:
            x &= dtype((1 << self.bits) - 1)
        x ^= x >> shift
        return x

    def owners(self, keys: ArrayLike, nranks: int) -> NDArray[np.int64]:
        """The owning rank of every key: ``(key · P) >> bits``, read off
        the key's top 32 bits at most, so the product fits uint64."""
        shift, t = self._top(nranks)
        top = np.asarray(keys, dtype=np.uint64) >> shift
        return ((top * np.uint64(nranks)) >> np.uint64(t)).astype(np.int64)

    def starts(self, nranks: int) -> NDArray[np.uint64]:
        """The least key each rank ``1 .. P-1`` owns."""
        shift, t = self._top(nranks)
        p = np.arange(1, nranks, dtype=np.uint64) << np.uint64(t)
        return ((p + np.uint64(nranks - 1)) // np.uint64(nranks)) << shift

    def _top(self, nranks: int) -> tuple[np.uint64, int]:
        """(shift to a key's top bits, how many bits those are)."""
        if nranks <= 0:
            raise ValueError(f"nranks must be positive, got {nranks}")
        t = min(self.bits, 32)
        return np.uint64(self.bits - t), t

    def cuts(self, keys: Keys, nranks: int) -> NDArray[np.intp]:
        """The ``P + 1`` cut positions of ascending ``keys``: rank
        ``p``'s keys are ``keys[cuts[p]:cuts[p + 1]]``."""
        starts = _cut_keys(self, nranks, keys.dtype)
        out = np.empty(nranks + 1, dtype=np.intp)
        out[0] = 0
        out[1 : 1 + starts.shape[0]] = keys.searchsorted(starts)
        out[1 + starts.shape[0] :] = keys.shape[0]
        return out


@functools.lru_cache(maxsize=None)
def _cut_keys(space: KeySpace, nranks: int, dtype: np.dtype) -> NDArray[Any]:
    """:meth:`KeySpace.starts` at ``dtype``, computed once per (space,
    P, dtype): a start above the dtype's range lies past every key of
    that dtype, so it is dropped (its cut is the end)."""
    starts = space.starts(nranks)
    if dtype != np.uint64:
        starts = starts[starts <= np.iinfo(dtype).max]
    out = starts.astype(dtype)
    out.setflags(write=False)
    return out


def key_spaces(shape: TileShape) -> tuple[KeySpace, KeySpace]:
    """The ``(k-mer, tile)`` key spaces of a tiling."""
    return KeySpace(2 * shape.k), KeySpace(2 * shape.length)


def sequence_hash(block: ReadBlock) -> NDArray[np.uint64]:
    """A 64-bit content hash per read, vectorized across the block.

    Folds each read's packed words (:func:`~repro.kmer.bitpack.pack_words`)
    through splitmix64 up to its own word count, ⌈length / 32⌉, then
    mixes in the length: a read hashes the same in a block of any width,
    so equal reads always share an owner.  Ambiguous bases pack as
    ``00``, so reads differing only there may share one too: placement
    needs determinism and spread, not injectivity.
    """
    words = pack_words(block.codes)
    lengths = block.lengths.astype(np.int64)
    n_words = (lengths + BASES_PER_WORD - 1) // BASES_PER_WORD
    h = np.zeros(len(block), dtype=np.uint64)
    for j in range(int(n_words.max(initial=0))):
        h = np.where(n_words > j, splitmix64(h ^ words[:, j]), h)
    return np.asarray(splitmix64(h ^ lengths.astype(np.uint64)), dtype=np.uint64)


def sequence_owner(block: ReadBlock, nranks: int) -> NDArray[np.int64]:
    """Owning rank of each read: ``hashFunction(seq) % np`` (Fig. 4 scheme).

    Hashing the read *content* spreads error bursts that are contiguous in
    the file across all ranks — the "randomization of the entire file"
    effect the paper describes.
    """
    if nranks <= 0:
        raise ValueError("nranks must be positive")
    return (sequence_hash(block) % np.uint64(nranks)).astype(np.int64)
