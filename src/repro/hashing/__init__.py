"""Hashing substrate: integer mixers, count hash tables, Bloom filters.

The paper replaces the prior work's sorted-array spectra (binary-search
lookups) with hash tables; :class:`CountHash` is that structure — an
open-addressing table over uint64 keys with uint32 counts, fully
numpy-backed so batch inserts/lookups run vectorized.  *Ownership* lives
in :mod:`repro.parallel.ownership` (a k-mer's or tile's owner is a range
of its hashed keys); the table buckets keys with its own mix of the whole
key, so that a rank's shard — keys sharing their top bits — still spreads
over all of its slots.
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
