"""Open-addressing count hash table over uint64 keys.

This is the paper's spectrum container: "we store the k-mer and tile spectrum
in hash tables instead of arrays; this prevents any need for sorting the
arrays or for repeated binary searches."  The table is numpy-backed — two
parallel 1-D arrays, ``keys`` and ``meta``, where ``meta`` packs an
occupancy flag (its top bit) above the count — so batch inserts and lookups
are vectorized across whole reads or whole incoming messages, one probing
round costs two narrow gathers per key, and the memory footprint is exactly
measurable (:attr:`CountHash.nbytes`), which the paper's per-rank memory
figures rely on.  Capacity is a power of two holding at most 0.60 load.

That holds where the paper meant it: every table probed in whole-block or
whole-share batches, or written to — serial spectra, allgather replicas, a
one-rank world's shard, read tables and the chunk cache — is a
``CountHash``.  The sharded read-only tables that Step IV serves in
per-owner batches of about a dozen ids are sealed instead
(:class:`~repro.hashing.sortedspectrum.SortedSpectrum`: one binary search
per batch, 6 / 10 B a key), which answers this class's read API
(``lookup``, ``lookup_found``, ``contains``, ``items``, ``get``, ``len``,
``nbytes``) with the same semantics.  Each table's form is fixed by its
role when it is built.

**Slots are as narrow as their contents.**  ``keys`` is uint32 or uint64
and ``meta`` uint16, uint32 or uint64 (15-, 31- and 32-bit count fields:
counts saturate at 2**32 - 1 whatever the width).  Every rebuild picks the
narrowest pair that holds its largest key and largest count; an incremental
add that meets a wider key or a larger running total widens that one array
before it writes, and nothing narrows except a rebuild.  A k = 12 k-mer
table is 6 bytes a slot, a tile table 10, against 16 for two uint64.  The
caller states nothing and sees nothing: keys go in and come out as uint64,
counts come out as uint32, and a stored narrow key is compared with the
64-bit query by promotion, never by truncating the query.

**The slot hash is not the owner hash.**  Ownership is
``splitmix64(key) % nranks`` (:func:`~repro.hashing.inthash.mix_to_rank`),
and a rank's shard holds exactly the keys of one residue.  A home slot taken
from the same mixer (``splitmix64(key) & (capacity - 1)``) would, for a
power-of-two rank count P, use one home slot in P: every owned key shares
its low ``log2 P`` hash bits, so clusters — and probes per lookup — grow
with the number of ranks, the opposite of what sharding is for.  The home
slot is therefore the *high* bits of an unrelated, shorter multiplicative
mix (:meth:`CountHash._home`, five numpy passes against splitmix64's ten).
Both functions are bijections of the key, so neither loses information; they
just share none.  :attr:`CountHash.mean_displacement` is the diagnostic the
regression test reads.

**Bulk placement.**  Probing is linear.  Whenever distinct keys enter an
*empty* table — the first :meth:`~CountHash.add_counts`, a growth rehash,
:meth:`~CountHash.filter_below`, :meth:`~CountHash.from_counts` — the
arrays are allocated for them and they are placed all at once: sort by home
slot, and the ``i``-th key of that order lands at
``i + max_{j <= i}(home_j - j)``, i.e. at its home or directly behind its
predecessor, whichever is later.  That is exactly the layout
inserting the keys one by one in home order would produce, so the linear-
probing invariant holds by construction: every slot from a key's home up to
its position is occupied.  The few keys pushed past the last slot wrap to
the front of the table through the incremental path.

**The incremental path** runs only for adds into a non-empty table (the
choice is ``len(self) == 0``, nothing else): keys probe round by round on
the shrinking unresolved subset; keys racing for one free slot all write
their claim and the one whose key the slot then holds has won, the others
advance.

**Lookups** probe the home slot of the whole batch unindexed — a key
gather, a meta gather and a dozen elementwise passes, where most keys
resolve at this load — and then only the survivors, a window of consecutive
slots at a time (a hit anywhere in the window stands, because no free slot
can lie between a key's home and its entry).  Either way the cost is
O(rounds) numpy passes, never O(n) Python iterations.
"""

from __future__ import annotations

import numpy as np

from repro.errors import HashTableError

_MIN_CAPACITY = 64
_MAX_LOAD = 0.60
#: Bulk placement packs (home slot, key index) into one uint64 to sort.
_MAX_CAPACITY = 1 << 32

_COUNT_MAX = np.uint64(np.iinfo(np.uint32).max)
_KEY32_MAX = np.iinfo(np.uint32).max
#: ``meta`` widths, narrowest first, with the largest count each holds: the
#: top bit flags an occupied slot, the count lives below it (the widest
#: keeps a 32-bit field, so saturation does not depend on the width).
_META_WIDTHS = (
    (np.uint16, (1 << 15) - 1),
    (np.uint32, (1 << 31) - 1),
    (np.uint64, int(_COUNT_MAX)),
)

#: Slot-hash multipliers (odd, so each step is a bijection of uint64).
_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xD6E8FEB86659FD93)
_S32 = np.uint64(32)

#: A lookup round after the first examines a window of consecutive slots
#: per unresolved key: as wide as possible while the round gathers at most
#: _WINDOW_ROWS table slots.  Small batches are bound by the number of numpy
#: passes, which a window divides; large ones by the slots gathered, which
#: it multiplies — so those step slot by slot.
_WINDOW_STEPS = np.arange(1, 9, dtype=np.int64)
_WINDOW_ROWS = 4096

#: Lookups probe at most this many keys at a time (see
#: :meth:`CountHash._probe_sliced`).
PROBE_SLICE = 1 << 15


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def _capacity_for(size: int) -> int:
    """Smallest legal capacity holding ``size`` entries at the load bound."""
    return _next_pow2(max(_MIN_CAPACITY, int(size / _MAX_LOAD) + 1))


def _per_key_counts(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``counts`` as a contiguous uint64 array aligned with ``keys``."""
    counts = np.ascontiguousarray(counts, dtype=np.uint64)
    if counts.shape != keys.shape:
        raise HashTableError(
            f"counts shape {counts.shape} != keys shape {keys.shape}"
        )
    return counts


def sum_by_key(
    keys: np.ndarray, counts: np.ndarray | int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys (ascending) and the uint64 sum of their counts.

    ``counts`` is per key or one scalar for every occurrence.  Keys that
    already are distinct and ascending — ``np.unique`` output, which is
    what caches and merges hand in — are returned as they came, unsorted
    input pays one sort.
    """
    scalar = np.ndim(counts) == 0
    if not scalar:
        counts = _per_key_counts(keys, counts)
    if (keys[1:] > keys[:-1]).all():
        if scalar:
            counts = np.full(keys.shape, int(counts), dtype=np.uint64)
        return keys, counts
    if scalar:
        uniq, occurrences = np.unique(keys, return_counts=True)
        return uniq, occurrences.astype(np.uint64) * np.uint64(int(counts))
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.concatenate(([True], keys[1:] != keys[:-1])).nonzero()[0]
    return keys[starts], np.add.reduceat(counts[order], starts)


def merge_pairs(
    runs: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Runs of ``(keys, counts)`` summed by key, at table width.

    The distinct keys come back ascending — uint32 when the largest fits,
    else uint64 — with their counts saturated into uint32: a table's slot
    widths without its free slots, 8 B a pair for a k = 12 k-mer and 12 B
    for a tile.  A single ascending run is only narrowed.
    """
    return narrow_pairs(*sum_by_key(
        np.concatenate([keys for keys, _ in runs]),
        np.concatenate([counts for _, counts in runs]),
    ))


def narrow_pairs(
    keys: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending distinct ``keys`` and their counts at table width.

    The one place the key width is decided: uint32 keys when the largest
    fits, else uint64.  Counts come back as uint32, saturated at its
    maximum.  Both table forms are built from pairs at this width.
    """
    wide = keys.size and int(keys[-1]) > _KEY32_MAX
    counts = np.asarray(counts)
    if counts.size and int(counts.max()) > _COUNT_MAX:
        counts = np.minimum(counts, int(_COUNT_MAX))
    return (
        keys.astype(np.uint64 if wide else np.uint32, copy=False),
        counts.astype(np.uint32, copy=False),
    )


class CountHash:
    """Mutable uint64 → uint32 count map with vectorized batch operations.

    Parameters
    ----------
    capacity:
        Initial number of slots (rounded up to a power of two).  The table
        grows automatically; pre-sizing only avoids rehashes.
    """

    __slots__ = (
        "_keys", "_meta", "_present", "_count_mask", "_size", "_mask", "_shift"
    )

    def __init__(self, capacity: int = _MIN_CAPACITY) -> None:
        cap = _next_pow2(max(int(capacity), _MIN_CAPACITY))
        self._alloc(cap)

    def _alloc(self, cap: int, top_key: int = 0, top_count: int = 0) -> None:
        """Empty ``cap``-slot table, as narrow as its largest key and count."""
        if cap > _MAX_CAPACITY:
            raise HashTableError(
                f"capacity {cap} exceeds the {_MAX_CAPACITY}-slot limit"
            )
        self._keys = np.zeros(
            cap, dtype=np.uint32 if top_key <= _KEY32_MAX else np.uint64
        )
        self._set_meta(cap, top_count)
        self._size = 0
        self._mask = cap - 1
        self._shift = np.uint64(64 - (cap.bit_length() - 1))

    def _set_meta(self, cap: int, top_count: int) -> None:
        """Zeroed ``meta`` of the narrowest width holding ``top_count``."""
        dtype, limit = next(w for w in _META_WIDTHS if top_count <= w[1])
        self._meta = np.zeros(cap, dtype=dtype)
        self._count_mask = dtype(limit)
        self._present = dtype(1 << (8 * self._meta.itemsize - 1))

    @classmethod
    def from_counts(
        cls, keys: np.ndarray, counts: np.ndarray, min_count: int = 0
    ) -> "CountHash":
        """Table of the *distinct* ``keys`` whose count reaches ``min_count``.

        Count → threshold → insert: entries below ``min_count`` never occupy
        a slot, and the table is sized for the survivors — the capacity a
        fresh table is left with after ``add_counts(keys, counts)`` and
        ``filter_below(min_count)``.  Counts saturate at the uint32 maximum.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        counts = _per_key_counts(keys, counts)
        if min_count > 0:
            keep = counts >= np.uint64(min_count)
            keys, counts = keys[keep], counts[keep]
        table = cls.__new__(cls)
        table._rebuild(
            _capacity_for(keys.shape[0]), keys, np.minimum(counts, _COUNT_MAX)
        )
        return table

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        """Current number of slots."""
        return self._keys.shape[0]

    @property
    def load_factor(self) -> float:
        """Fraction of slots occupied."""
        return self._size / self.capacity

    @property
    def nbytes(self) -> int:
        """Bytes held by the backing arrays (the rank memory-footprint unit)."""
        return self._keys.nbytes + self._meta.nbytes

    @property
    def mean_displacement(self) -> float:
        """Mean distance of an entry from its home slot (0.0 when empty).

        A successful lookup costs ``1 + displacement`` probes, so this is
        the table's clustering in one number — a diagnostic, not a setting.
        """
        if self._size == 0:
            return 0.0
        at = np.flatnonzero(self._meta >= self._present)
        home = self._home(self._keys[at].astype(np.uint64))
        return float(((at - home) & self._mask).mean())

    def __contains__(self, key: int) -> bool:
        return bool(self.contains(np.array([key], dtype=np.uint64))[0])

    def get(self, key: int, default: int = 0) -> int:
        """Count stored for ``key`` (``default`` when absent)."""
        counts, found = self.lookup_found(np.array([key], dtype=np.uint64))
        return int(counts[0]) if found[0] else default

    def _home(self, keys: np.ndarray) -> np.ndarray:
        """Home slot per key: the high bits of a two-multiply mix (int64)."""
        h = keys * _M1
        h ^= h >> _S32
        h *= _M2
        h >>= self._shift
        return h.view(np.int64)

    # ------------------------------------------------------------------
    # batch mutation
    # ------------------------------------------------------------------
    def add_counts(self, keys: np.ndarray, counts: np.ndarray | int = 1) -> None:
        """Add ``counts`` to each key (inserting absent keys).

        ``keys`` may contain duplicates; duplicate contributions are summed
        first so each unique key is probed once.  ``counts`` may be a scalar
        applied to every occurrence.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return
        uniq, add = sum_by_key(keys, counts)
        cap = max(self.capacity, _capacity_for(self._size + uniq.shape[0]))
        if self._size == 0:
            self._rebuild(cap, uniq, np.minimum(add, _COUNT_MAX))
            return
        if cap > self.capacity:
            self._rebuild(cap, *self.items())
        if uniq[-1] > _KEY32_MAX and self._keys.dtype != np.uint64:
            self._keys = self._keys.astype(np.uint64)
        slots = self._locate_for_insert(uniq)
        # Saturating add into the 32-bit count, widening a narrower field.
        total = (self._meta[slots] & self._count_mask) + add
        np.minimum(total, _COUNT_MAX, out=total)
        top = int(total.max())
        if top > self._count_mask:
            # The flag is the top bit, so it moves when the field widens.
            occupied = self._meta >= self._present
            narrow = self._meta & self._count_mask
            self._set_meta(self.capacity, top)
            self._meta[:] = narrow
            self._meta[occupied] |= self._present
        self._meta[slots] = total | self._present

    def increment(self, keys: np.ndarray) -> None:
        """Shorthand for ``add_counts(keys, 1)``."""
        self.add_counts(keys, 1)

    def _rebuild(self, cap: int, keys: np.ndarray, counts: np.ndarray) -> None:
        """Become a ``cap``-slot table of exactly these distinct uint64 keys
        (counts <= uint32 max), in the narrowest slots that hold them.

        Bulk placement: one sort by home slot; see the module docstring for
        the invariant.
        """
        n = keys.shape[0]
        if n == 0:
            self._alloc(cap)
            return
        self._alloc(cap, int(keys.max()), int(counts.max()))
        index_bits = np.uint64(n.bit_length())
        packed = self._home(keys).view(np.uint64)
        packed <<= index_bits
        packed |= np.arange(n, dtype=np.uint64)
        packed.sort()
        order = (packed & ((np.uint64(1) << index_bits) - np.uint64(1))).view(np.int64)
        packed >>= index_bits
        pos = packed.view(np.int64)  # home slots, ascending
        ramp = np.arange(n, dtype=np.int64)
        pos -= ramp
        np.maximum.accumulate(pos, out=pos)
        pos += ramp
        # pos is strictly increasing: the keys that fit are a prefix.
        fit = int(np.searchsorted(pos, self.capacity))
        keys = keys[order]
        meta = counts.astype(self._meta.dtype)[order]
        meta |= self._present
        self._keys[pos[:fit]] = keys[:fit]
        self._meta[pos[:fit]] = meta[:fit]
        self._size = fit
        if fit < n:
            # Every slot from these keys' homes to the end is now taken;
            # they wrap to the front like any later insert would.
            slots = self._locate_for_insert(keys[fit:])
            self._meta[slots] = meta[fit:]

    def _locate_for_insert(self, uniq: np.ndarray) -> np.ndarray:
        """Slot for each distinct key, claiming free slots for new keys.

        Per probing round every key at a free slot writes its claim; the
        slot keeps one of them (the keys are distinct, so reading it back
        names the winner) and the rest advance with the keys that met a
        foreign entry.  New slots are left with a zero count.  The key
        array must already be wide enough for ``uniq``.
        """
        stored, meta, present = self._keys, self._meta, self._present
        mask = self._mask
        result = self._home(uniq)
        slots, keys, pending = result, uniq, None
        rounds = 0
        while True:
            rounds += 1
            if rounds > self.capacity + 1:
                raise HashTableError("probe loop exceeded capacity (table full)")
            free = meta[slots] < present
            if free.any():
                claimed = slots[free]
                stored[claimed] = keys[free]
                meta[claimed] = present
                self._size += int(
                    np.count_nonzero(stored[claimed] == keys[free])
                )
            # Every probed slot is occupied now; it is ours iff it holds us.
            lost = (stored[slots] != keys).nonzero()[0]
            if lost.size == 0:
                return result
            slots = (slots[lost] + 1) & mask
            keys = keys[lost]
            pending = lost if pending is None else pending[lost]
            result[pending] = slots

    # ------------------------------------------------------------------
    # batch queries
    # ------------------------------------------------------------------
    def _probe(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shared probe core: ``(counts, found)`` per key.

        Round 1 reads every key's home slot, unindexed over the whole
        batch — two gathers plus elementwise compares; subsequent
        rounds read a window of slots per key of the unresolved remainder.
        A narrow stored key is promoted to the query's width to compare.
        """
        stored, table, present = self._keys, self._meta, self._present
        count_mask = self._count_mask
        slots = self._home(keys)
        meta = table.take(slots)
        occ = meta >= present
        found = stored.take(slots) == keys
        found &= occ
        # Masking off the flag leaves the count; multiplying by the match
        # mask zeroes the foreign entries in one pass.
        meta &= count_mask
        out = meta.astype(np.uint32)
        out *= found
        # found is a subset of occ, so xor is the unresolved remainder.
        occ ^= found
        pending = occ.nonzero()[0]
        if pending.size == 0:
            return out, found
        mask = self._mask
        slots = slots[pending]
        keys = keys[pending]
        probed = 1
        while pending.size:
            steps = _WINDOW_STEPS[: max(1, _WINDOW_ROWS // pending.size)]
            probed += steps.size
            if probed > self.capacity + steps.size:
                raise HashTableError("lookup probe loop exceeded capacity")
            # One row of `at` per step, so the reductions below run along
            # contiguous memory.
            at = slots + steps[:, None]
            at &= mask
            meta = table.take(at)
            occ = meta >= present
            hit = stored.take(at) == keys
            hit &= occ
            # No free slot lies between a key's home and its entry, so a
            # hit anywhere in the window stands (and there is at most
            # one: summing picks it); only a fully occupied window
            # without a hit leaves its key unresolved.
            got = hit.any(axis=0)
            counts = (meta * hit).sum(axis=0)
            counts &= count_mask
            out[pending] = counts
            found[pending] = got
            more = occ.all(axis=0)
            more &= ~got
            pending = pending[more]
            slots = slots[more]
            slots += steps.size
            keys = keys[more]
        return out, found

    def _probe_sliced(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_probe` over slices of at most :data:`PROBE_SLICE` keys.

        A probe's temporaries are a dozen arrays as long as its batch;
        slicing bounds them, so looking up a whole block's tiles in one
        call needs no more probe memory than one slice of them.
        """
        n = keys.shape[0]
        if n <= PROBE_SLICE:
            return self._probe(keys)
        counts = np.empty(n, dtype=np.uint32)
        found = np.empty(n, dtype=bool)
        for lo in range(0, n, PROBE_SLICE):
            hi = lo + PROBE_SLICE
            counts[lo:hi], found[lo:hi] = self._probe(keys[lo:hi])
        return counts, found

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Counts for each key (0 for absent keys); duplicates allowed.

        This is the operation the error-correction phase performs millions of
        times — locally for owned keys, over the wire otherwise.
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if keys.size == 0 or self._size == 0:
            return np.zeros(keys.shape[0], dtype=np.uint32)
        return self._probe_sliced(keys)[0]

    def lookup_found(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(counts, found)`` for each key in a single probe sequence.

        Unlike :meth:`lookup`, distinguishes an explicit zero entry (count 0,
        found True) from an absent key (count 0, found False) — the
        distinction the prefetch cache relies on to tell "known globally
        absent" apart from "never fetched".
        """
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if keys.size == 0 or self._size == 0:
            return (
                np.zeros(keys.shape[0], dtype=np.uint32),
                np.zeros(keys.shape[0], dtype=bool),
            )
        return self._probe_sliced(keys)

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Boolean membership per key (a key inserted with count 0 is
        present — the read tables and the chunk cache store "globally
        absent" that way)."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if keys.size == 0 or self._size == 0:
            return np.zeros(keys.shape[0], dtype=bool)
        return self._probe_sliced(keys)[1]

    # ------------------------------------------------------------------
    # bulk access / maintenance
    # ------------------------------------------------------------------
    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of all (keys, counts), in unspecified order."""
        used = self._meta >= self._present
        return (
            self._keys[used].astype(np.uint64, copy=False),
            (self._meta[used] & self._count_mask).astype(np.uint32, copy=False),
        )

    def filter_below(self, threshold: int) -> int:
        """Drop every entry with count < ``threshold``; returns #removed.

        This is the paper's spectrum thresholding step ("k-mers and tiles
        below a threshold are subsequently removed").  The table is rebuilt
        compactly, shrinking the footprint.
        """
        keys, counts = self.items()
        keep = counts >= np.uint32(threshold)
        removed = keys.shape[0] - int(np.count_nonzero(keep))
        if removed:
            keys = keys[keep]
            self._rebuild(_capacity_for(keys.shape[0]), keys, counts[keep])
        return removed

    def clear(self) -> None:
        """Remove all entries, shrinking back to the minimum capacity."""
        self._alloc(_MIN_CAPACITY)

    def merge_from(self, other: "CountHash") -> None:
        """Add every (key, count) of ``other`` into this table."""
        keys, counts = other.items()
        self.add_counts(keys, counts.astype(np.uint64))

    def copy(self) -> "CountHash":
        """Deep copy preserving layout."""
        dup = CountHash.__new__(CountHash)
        for name in self.__slots__:
            setattr(dup, name, getattr(self, name))
        dup._keys, dup._meta = self._keys.copy(), self._meta.copy()
        return dup
