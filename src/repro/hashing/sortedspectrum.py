"""Sealed spectra: sorted, width-narrow arrays probed by binary search.

The paper contrasts its hash tables with Shah/Jammula's design: "K-mer and
tile spectrums are stored as sorted lists with look-up operations involving
repeated binary searches over the spectrum.  A cache-aware layout ...
lowered the search time from the original O(log2 N) to O(log_{B+1} N)
where B represents the number of elements that can fit into a cache line."

That trade holds for whole-block batches, where a hash probe's couple of
dozen numpy passes are spread over tens of thousands of ids.  Step IV's
serving shards are probed in per-owner batches of about a dozen ids, and
there one binary search — a handful of numpy calls whatever the batch —
costs a fraction of a probe.  So each table's form is fixed by its role
when it is built (see ``docs/ALGORITHM.md``, "Count hash tables"):

* :class:`SortedSpectrum` — the **sealed** form: parallel sorted key and
  count arrays, ``np.searchsorted`` lookup.  The sharded read-only tables
  are sealed: the owned shards of a multi-rank world (for a kind that is
  not allgathered), replication-group tables and recovery ward replicas.
  Both arrays are as narrow as their contents — uint32 keys when the
  largest fits, else uint64; uint16 counts below 2**16, else uint32 — so
  a k = 12 shard costs exactly 6 B a k-mer and 10 B a tile, with no free
  slots.  It answers :class:`~repro.hashing.counthash.CountHash`'s read
  API (``lookup``, ``lookup_found``, ``contains``, ``items``, ``get``,
  ``len``, ``nbytes``) with the same semantics, so tiers and shard
  servers take either form.
* :class:`EytzingerSpectrum` — the prior work's cache-aware variant, keys
  permuted into the Eytzinger (BFS heap) order so each probe step touches
  a predictable cache line; the search is a vectorized level-by-level
  descent.  Only the layout ablation builds it.

Both are immutable after construction (the prior work sorted once after
the global exchange), which is exactly the operating regime of the
correction phase.
"""

from __future__ import annotations

import numpy as np

from repro.errors import HashTableError
from repro.hashing.counthash import narrow_pairs

_COUNT16_MAX = np.iinfo(np.uint16).max

#: A lookup of at least this many ids searches them in ascending order
#: (one argsort, then a scatter back): the searches then walk the table
#: front to back, which measured about 2-3x cheaper per id from 4k ids up;
#: below this the argsort costs more than it saves.  See
#: ``benchmarks/bench_ablation_spectrum_layout.py``'s batch-size sweep.
_SORT_CUTOVER = 1024


class SortedSpectrum:
    """Immutable key -> count map backed by parallel sorted arrays."""

    __slots__ = ("_keys", "_counts")

    def __init__(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Distinct ``keys`` in any order (sorted here) with their counts."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.shape != np.shape(counts):
            raise HashTableError("keys and counts must have equal shapes")
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if keys.size > 1 and (keys[1:] == keys[:-1]).any():
            raise HashTableError("duplicate keys in sorted spectrum")
        self._seal(keys, np.asarray(counts)[order])

    @classmethod
    def from_sorted(
        cls, keys: np.ndarray, counts: np.ndarray, min_count: int = 0
    ) -> "SortedSpectrum":
        """Table of distinct *ascending* ``keys`` whose count reaches
        ``min_count`` — count → threshold → seal, with no sort: the raw
        pairs a session merges (:func:`~repro.hashing.counthash.
        merge_pairs`) are already in this order."""
        if np.shape(keys) != np.shape(counts):
            raise HashTableError("keys and counts must have equal shapes")
        if min_count > 0:
            keep = counts >= min_count
            keys, counts = keys[keep], counts[keep]
        table = cls.__new__(cls)
        table._seal(keys, counts)
        return table

    @classmethod
    def from_counthash(cls, table) -> "SortedSpectrum":
        """Snapshot a :class:`~repro.hashing.counthash.CountHash`."""
        keys, counts = table.items()
        return cls(keys, counts)

    def _seal(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Hold ascending distinct ``keys`` and their counts at table
        width (:func:`~repro.hashing.counthash.narrow_pairs`), counts
        narrowed further to uint16 when they all fit."""
        keys, counts = narrow_pairs(keys, counts)
        self._keys = np.ascontiguousarray(keys)
        top = int(counts.max()) if counts.size else 0
        self._counts = np.ascontiguousarray(
            counts, dtype=np.uint16 if top <= _COUNT16_MAX else np.uint32
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._keys.shape[0]

    @property
    def nbytes(self) -> int:
        """Exactly ``len × (key width + count width)``."""
        return self._keys.nbytes + self._counts.nbytes

    def __contains__(self, key: int) -> bool:
        return bool(self.contains(np.array([key], dtype=np.uint64))[0])

    def get(self, key: int, default: int = 0) -> int:
        """Count stored for ``key`` (``default`` when absent)."""
        counts, found = self.lookup_found(np.array([key], dtype=np.uint64))
        return int(counts[0]) if found[0] else default

    # ------------------------------------------------------------------
    # batch queries
    # ------------------------------------------------------------------
    def lookup_found(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(counts, found)`` per key: one binary search each.

        The queries are narrowed to the table's key width first —
        otherwise numpy would widen the whole table on every call — and
        the match is checked at full width, so a query above 2**32 - 1
        never matches a uint32 key it was truncated onto.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        stored = self._keys
        if keys.size == 0 or stored.size == 0:
            return (
                np.zeros(keys.shape[0], dtype=np.uint32),
                np.zeros(keys.shape[0], dtype=bool),
            )
        narrow = keys.astype(stored.dtype, copy=False)
        # Searching all but the last key clips every position to the
        # table, and a key equal to the last one still lands on it.
        head = stored[:-1]
        if keys.size < _SORT_CUTOVER:
            pos = head.searchsorted(narrow)
        else:
            order = narrow.argsort()
            pos = np.empty(keys.shape[0], dtype=np.intp)
            pos[order] = head.searchsorted(narrow[order])
        found = stored.take(pos) == keys
        counts = self._counts.take(pos).astype(np.uint32)
        counts *= found
        return counts, found

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Counts per key (0 when absent); duplicates allowed."""
        return self.lookup_found(keys)[0]

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Boolean membership per key (a key sealed with count 0 is
        present, as in :meth:`CountHash.contains
        <repro.hashing.counthash.CountHash.contains>`)."""
        return self.lookup_found(keys)[1]

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of all (keys, counts) as uint64 / uint32, ascending."""
        return self._keys.astype(np.uint64), self._counts.astype(np.uint32)


class EytzingerSpectrum:
    """Cache-aware sorted spectrum: keys in Eytzinger (BFS) order.

    A binary search over a sorted array strides unpredictably through
    memory; laying the implicit search tree out breadth-first makes the
    first ~log(cache) levels permanently cache-resident, which is the
    effect the prior work's cache-aware layout exploited.  Lookup descends
    the implicit tree level by level, vectorized over the whole query
    batch (each level is one gather + compare).
    """

    __slots__ = ("_keys", "_counts", "_levels", "_n")

    def __init__(self, keys: np.ndarray, counts: np.ndarray) -> None:
        sorted_keys, sorted_counts = SortedSpectrum(keys, counts).items()
        n = sorted_keys.shape[0]
        self._n = n
        # Eytzinger permutation: index 1..n in BFS order of the implicit
        # search tree maps to in-order (sorted) positions.
        perm = np.zeros(n, dtype=np.int64)
        self._build_perm(perm, sorted_pos=iter(range(n)), k=1)
        # 1-based storage; slot 0 is a sentinel.
        self._keys = np.zeros(n + 1, dtype=np.uint64)
        self._counts = np.zeros(n + 1, dtype=np.uint32)
        idx = np.arange(1, n + 1)
        self._keys[idx] = sorted_keys[perm]
        self._counts[idx] = sorted_counts[perm]
        self._levels = int(np.ceil(np.log2(n + 1))) if n else 0

    def _build_perm(self, perm: np.ndarray, sorted_pos, k: int) -> None:
        """In-order traversal of the implicit tree assigns sorted ranks."""
        n = perm.shape[0]
        stack = [(k, False)]
        while stack:
            node, expanded = stack.pop()
            if node > n:
                continue
            if expanded:
                perm[node - 1] = next(sorted_pos)
                stack.append((2 * node + 1, False))
            else:
                stack.append((node, True))
                stack.append((2 * node, False))

    def __len__(self) -> int:
        return self._n

    @property
    def nbytes(self) -> int:
        return self._keys.nbytes + self._counts.nbytes

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Counts per key via vectorized Eytzinger descent."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        out = np.zeros(keys.shape[0], dtype=np.uint32)
        if self._n == 0 or keys.size == 0:
            return out
        pos = np.ones(keys.shape[0], dtype=np.int64)
        found = np.zeros(keys.shape[0], dtype=np.int64)
        for _ in range(self._levels + 1):
            active = pos <= self._n
            if not active.any():
                break
            node_keys = self._keys[np.where(active, pos, 0)]
            eq = active & (node_keys == keys)
            found[eq] = pos[eq]
            go_right = active & (node_keys < keys)
            pos = np.where(active, 2 * pos + go_right.astype(np.int64), pos)
        hit = found > 0
        out[hit] = self._counts[found[hit]]
        return out

    def get(self, key: int, default: int = 0) -> int:
        """Scalar lookup."""
        c = self.lookup(np.array([key], dtype=np.uint64))
        return int(c[0]) if c[0] else default
