"""Tests for the sorted-array spectrum layouts: the sealed serving form
and the prior work's cache-aware variant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HashTableError
from repro.hashing.counthash import CountHash
from repro.hashing.sortedspectrum import (
    _SORT_CUTOVER,
    EytzingerSpectrum,
    SortedSpectrum,
)


def _sample(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    keys = np.unique(rng.integers(0, 2**62, n, dtype=np.uint64))
    counts = rng.integers(1, 100, keys.shape[0]).astype(np.uint32)
    return keys, counts


@pytest.mark.parametrize("cls", [SortedSpectrum, EytzingerSpectrum],
                         ids=["sorted", "eytzinger"])
class TestLayouts:
    def test_lookup_present_keys(self, cls):
        keys, counts = _sample()
        sp = cls(keys, counts)
        assert len(sp) == keys.shape[0]
        assert np.array_equal(sp.lookup(keys), counts)

    def test_lookup_absent_keys_zero(self, cls):
        keys, counts = _sample()
        sp = cls(keys, counts)
        absent = np.setdiff1d(
            np.arange(1000, dtype=np.uint64), keys[keys < 1000]
        )
        assert (sp.lookup(absent) == 0).all()

    def test_unsorted_input_accepted(self, cls):
        keys = np.array([50, 10, 30], dtype=np.uint64)
        counts = np.array([5, 1, 3], dtype=np.uint32)
        sp = cls(keys, counts)
        assert sp.lookup(np.array([10, 30, 50], np.uint64)).tolist() == [1, 3, 5]

    def test_empty(self, cls):
        sp = cls(np.empty(0, np.uint64), np.empty(0, np.uint32))
        assert len(sp) == 0
        assert (sp.lookup(np.array([1, 2], np.uint64)) == 0).all()

    def test_duplicate_keys_rejected(self, cls):
        with pytest.raises(HashTableError):
            cls(np.array([5, 5], np.uint64), np.array([1, 2], np.uint32))

    def test_shape_mismatch_rejected(self, cls):
        with pytest.raises(HashTableError):
            cls(np.array([5], np.uint64), np.array([1, 2], np.uint32))

    def test_single_element(self, cls):
        sp = cls(np.array([42], np.uint64), np.array([7], np.uint32))
        assert sp.lookup(np.array([42, 43], np.uint64)).tolist() == [7, 0]

    def test_extreme_keys(self, cls):
        keys = np.array([0, 2**64 - 1], dtype=np.uint64)
        sp = cls(keys, np.array([3, 9], np.uint32))
        assert sp.lookup(keys).tolist() == [3, 9]

    def test_nbytes(self, cls):
        keys, counts = _sample(100)
        assert cls(keys, counts).nbytes > 0

    @given(st.sets(st.integers(0, 2**62), min_size=1, max_size=200),
           st.integers(0, 2**62))
    @settings(max_examples=40, deadline=None)
    def test_property_agrees_with_dict(self, cls, key_set, probe):
        keys = np.array(sorted(key_set), dtype=np.uint64)
        counts = (np.arange(keys.shape[0]) % 97 + 1).astype(np.uint32)
        ref = dict(zip(keys.tolist(), counts.tolist()))
        sp = cls(keys, counts)
        got = sp.lookup(np.array([probe], np.uint64))[0]
        assert got == ref.get(probe, 0)


class TestAgreementAcrossLayouts:
    def test_all_three_structures_agree(self):
        """CountHash, SortedSpectrum and EytzingerSpectrum answer every
        query identically — they are interchangeable spectrum backends."""
        keys, counts = _sample(5000, seed=3)
        table = CountHash()
        table.add_counts(keys, counts.astype(np.uint64))
        sorted_sp = SortedSpectrum.from_counthash(table)
        eytz = EytzingerSpectrum(keys, counts)
        rng = np.random.default_rng(4)
        queries = np.concatenate([
            rng.choice(keys, 2000),
            rng.integers(0, 2**62, 2000, dtype=np.uint64),
        ])
        a = table.lookup(queries)
        b = sorted_sp.lookup(queries)
        c = eytz.lookup(queries)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_get_scalar(self):
        keys, counts = _sample(50)
        sp = SortedSpectrum(keys, counts)
        assert sp.get(int(keys[0])) == int(counts[0])
        ey = EytzingerSpectrum(keys, counts)
        assert ey.get(int(keys[0])) == int(counts[0])


_KEY_EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1)
_COUNT_EDGES = (0, 1, 2**16 - 1, 2**16, 2**32 - 1)
#: Batch sizes on both sides of the sort cut-over (1,024 ids), kept as
#: literals so that moving the cut-over cannot move what is covered.
_BATCHES = (1, 12, 1023, 1024, 3079)


def _widths(keys, counts):
    """(key bytes, sealed count bytes) the contents call for."""
    top_key = max(keys, default=0)
    top_count = max(counts, default=0)
    return 4 if top_key < 2**32 else 8, 2 if top_count < 2**16 else 4


@st.composite
def _tables(draw):
    """A key -> count dict: uint32-wide or not, counts at the width
    edges, possibly empty."""
    narrow = draw(st.booleans())
    top = 2**32 - 1 if narrow else 2**64 - 1
    key = st.one_of(
        st.sampled_from([k for k in _KEY_EDGES if k <= top]),
        st.integers(0, top),
    )
    count = st.one_of(st.sampled_from(_COUNT_EDGES), st.integers(0, 2**32 - 1))
    return draw(st.dictionaries(key, count, max_size=60))


class TestSealedEqualsHashEqualsDict:
    """``SortedSpectrum`` answers ``CountHash``'s read API exactly as the
    hash does, and both as a dict does."""

    @given(
        ref=_tables(),
        extra=st.lists(st.integers(0, 2**64 - 1), max_size=20),
        batch=st.sampled_from(_BATCHES),
        seed=st.integers(0, 2**16),
        ascending=st.booleans(),
        absent_only=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_read_api(self, ref, extra, batch, seed, ascending, absent_only):
        keys = np.array(sorted(ref), dtype=np.uint64)
        counts = np.array([ref[k] for k in sorted(ref)], dtype=np.uint32)
        sealed = SortedSpectrum.from_sorted(keys, counts)
        hashed = CountHash.from_counts(keys, counts)
        # Present keys, 64-bit edges (above a uint32 table's range) and
        # random ids, repeated up to the batch size, shuffled or
        # ascending (as a lookup round's own share arrives); or only ids
        # the table does not hold.
        pool = [*ref, *_KEY_EDGES, *extra]
        if absent_only:
            pool = [q for q in pool if q not in ref] or [
                next(i for i in range(len(ref) + 1) if i not in ref)
            ]
        queries = np.resize(np.array(pool, dtype=np.uint64), batch)
        np.random.default_rng(seed).shuffle(queries)
        if ascending:
            queries.sort()
        want = np.array([ref.get(int(q), 0) for q in queries], np.uint32)
        present = np.array([int(q) in ref for q in queries], dtype=bool)
        for table in (sealed, hashed):
            assert len(table) == len(ref)
            assert np.array_equal(table.lookup(queries), want)
            got, found = table.lookup_found(queries)
            assert got.dtype == np.uint32 and found.dtype == bool
            assert np.array_equal(got, want)
            assert np.array_equal(found, present)
            assert np.array_equal(table.contains(queries), present)
            k, c = table.items()
            assert k.dtype == np.uint64 and c.dtype == np.uint32
            assert dict(zip(k.tolist(), c.tolist())) == ref
        assert np.array_equal(sealed.items()[0], keys)  # ascending
        key_bytes, count_bytes = _widths(ref, ref.values())
        assert sealed.nbytes == len(ref) * (key_bytes + count_bytes)
        meta_bytes = next(
            width for width, limit in ((2, 2**15), (4, 2**31), (8, 2**64))
            if max(ref.values(), default=0) < limit
        )
        assert hashed.nbytes == hashed.capacity * (key_bytes + meta_bytes)

    def test_wide_query_never_matches_a_truncated_key(self):
        sealed = SortedSpectrum.from_sorted(
            np.array([5, 2**32 - 1], np.uint32), np.array([7, 9], np.uint32)
        )
        queries = np.array(
            [2**32 + 5, 2**33 + 2**32 - 1, 5, 2**32 - 1], np.uint64
        )
        want = {2**32 + 5: 0, 2**33 + 2**32 - 1: 0, 5: 7, 2**32 - 1: 9}
        long = np.resize(queries, 4 * _SORT_CUTOVER)
        # Short and long, shuffled and ascending (a wide query truncated
        # to the table's width need not ascend with the rest).
        for batch in (queries, long, np.sort(queries), np.sort(long)):
            got, found = sealed.lookup_found(batch)
            assert got.tolist() == [want[int(q)] for q in batch]
            assert found.tolist() == [want[int(q)] > 0 for q in batch]

    def test_from_sorted_thresholds(self):
        keys = np.arange(10, dtype=np.uint32)
        counts = np.arange(10, dtype=np.uint32)
        sealed = SortedSpectrum.from_sorted(keys, counts, min_count=4)
        assert sealed.items()[0].tolist() == list(range(4, 10))
        assert sealed.lookup(keys).tolist() == [0] * 4 + list(range(4, 10))
        assert sealed.nbytes == 6 * 6

    def test_widths_follow_the_contents(self):
        for keys, counts, width in (
            ([1, 2], [3, 4], 6),
            ([1, 2**32], [3, 4], 10),
            ([1, 2], [3, 2**16], 8),
            ([1, 2**40], [3, 2**16], 12),
        ):
            sealed = SortedSpectrum.from_sorted(
                np.array(keys, np.uint64), np.array(counts, np.uint64)
            )
            assert sealed.nbytes == width * 2

    def test_counts_saturate_at_uint32(self):
        sealed = SortedSpectrum.from_sorted(
            np.array([1], np.uint64), np.array([2**40], np.uint64)
        )
        assert sealed.get(1) == 2**32 - 1

    def test_get_answers_an_explicit_zero(self):
        sealed = SortedSpectrum.from_sorted(
            np.array([3, 8], np.uint64), np.array([0, 2], np.uint32)
        )
        assert sealed.get(3, default=-1) == 0
        assert sealed.get(4, default=-1) == -1
        assert sealed.get(8) == 2
        assert 3 in sealed and 4 not in sealed

    def test_empty_table(self):
        sealed = SortedSpectrum.from_sorted(
            np.empty(0, np.uint64), np.empty(0, np.uint32)
        )
        assert len(sealed) == 0 and sealed.nbytes == 0
        got, found = sealed.lookup_found(np.array([0, 2**64 - 1], np.uint64))
        assert got.tolist() == [0, 0] and not found.any()
        assert sealed.get(0, default=5) == 5
