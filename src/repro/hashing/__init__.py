"""Hashing substrate: integer mixers, count hash tables, Bloom filters.

The paper replaces the prior work's sorted-array spectra (binary-search
lookups) with hash tables; :class:`CountHash` is that structure — an
open-addressing table over uint64 keys with uint32 counts, fully
numpy-backed so batch inserts/lookups run vectorized.  *Ownership*
(``splitmix64(key) % nranks``) is the paper's rank-assignment rule for
k-mers, tiles and sequences; the table buckets keys with a different,
shorter mix on purpose, so that a rank's shard — one residue of the owner
hash — still spreads over all of its slots.
"""

from repro.hashing.inthash import splitmix64, mix_to_rank
from repro.hashing.counthash import CountHash
from repro.hashing.bloom import BloomFilter
from repro.hashing.sortedspectrum import SortedSpectrum, EytzingerSpectrum

__all__ = [
    "splitmix64",
    "mix_to_rank",
    "CountHash",
    "BloomFilter",
    "SortedSpectrum",
    "EytzingerSpectrum",
]
