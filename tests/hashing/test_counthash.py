"""Unit and property tests for the open-addressing count hash."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HashTableError
from repro.hashing.counthash import CountHash

keys_strategy = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=0, max_size=300
)


class TestBasicOperations:
    def test_empty_table(self):
        h = CountHash()
        assert len(h) == 0
        assert h.get(42) == 0
        assert 42 not in h
        assert h.lookup(np.array([1, 2, 3], dtype=np.uint64)).tolist() == [0, 0, 0]

    def test_single_insert(self):
        h = CountHash()
        h.add_counts(np.array([7], dtype=np.uint64))
        assert len(h) == 1
        assert h.get(7) == 1
        assert 7 in h

    def test_duplicate_keys_in_batch_summed(self):
        h = CountHash()
        h.add_counts(np.array([5, 5, 5, 9], dtype=np.uint64))
        assert h.get(5) == 3
        assert h.get(9) == 1

    def test_scalar_count_multiplier(self):
        h = CountHash()
        h.add_counts(np.array([5, 5], dtype=np.uint64), 10)
        assert h.get(5) == 20

    def test_per_key_counts(self):
        h = CountHash()
        h.add_counts(
            np.array([1, 2, 1], dtype=np.uint64),
            np.array([3, 4, 5], dtype=np.uint64),
        )
        assert h.get(1) == 8
        assert h.get(2) == 4

    def test_count_shape_mismatch(self):
        h = CountHash()
        with pytest.raises(HashTableError):
            h.add_counts(np.array([1, 2], np.uint64), np.array([1], np.uint64))

    def test_empty_batch_noop(self):
        h = CountHash()
        h.add_counts(np.empty(0, dtype=np.uint64))
        assert len(h) == 0

    def test_increment(self):
        h = CountHash()
        h.increment(np.array([3, 3], dtype=np.uint64))
        assert h.get(3) == 2

    def test_extreme_keys(self):
        h = CountHash()
        keys = np.array([0, 2**64 - 1, 2**63], dtype=np.uint64)
        h.add_counts(keys)
        assert h.lookup(keys).tolist() == [1, 1, 1]

    def test_saturating_counts(self):
        h = CountHash()
        h.add_counts(np.array([1], np.uint64), np.iinfo(np.uint32).max)
        h.add_counts(np.array([1], np.uint64), 10)
        assert h.get(1) == np.iinfo(np.uint32).max


class TestGrowth:
    def test_grows_past_initial_capacity(self):
        h = CountHash(capacity=64)
        keys = np.arange(10_000, dtype=np.uint64)
        h.add_counts(keys)
        assert len(h) == 10_000
        assert h.capacity >= 10_000
        assert (h.lookup(keys) == 1).all()

    def test_load_factor_bounded(self):
        h = CountHash()
        h.add_counts(np.arange(5000, dtype=np.uint64))
        assert h.load_factor <= 0.60 + 1e-9

    def test_counts_survive_growth(self):
        h = CountHash(capacity=64)
        first = np.arange(30, dtype=np.uint64)
        h.add_counts(first, 7)
        h.add_counts(np.arange(30, 5000, dtype=np.uint64))
        assert (h.lookup(first) == 7).all()


class TestLookupAndContains:
    def test_lookup_with_duplicates(self):
        h = CountHash()
        h.add_counts(np.array([4], dtype=np.uint64), 9)
        out = h.lookup(np.array([4, 4, 5], dtype=np.uint64))
        assert out.tolist() == [9, 9, 0]

    def test_contains_distinguishes_zero_count(self):
        """A key inserted with count 0 is present — the reads-table cache
        stores 'globally absent' this way."""
        h = CountHash()
        h.add_counts(np.array([11], dtype=np.uint64), 0)
        assert h.contains(np.array([11, 12], dtype=np.uint64)).tolist() == [True, False]
        assert h.lookup(np.array([11], dtype=np.uint64)).tolist() == [0]

    def test_lookup_empty_input(self):
        h = CountHash()
        h.add_counts(np.array([1], np.uint64))
        assert h.lookup(np.empty(0, np.uint64)).shape == (0,)


class TestMaintenance:
    def test_items_roundtrip(self):
        h = CountHash()
        keys = np.array([10, 20, 30], dtype=np.uint64)
        h.add_counts(keys, np.array([1, 2, 3], dtype=np.uint64))
        got_k, got_c = h.items()
        order = np.argsort(got_k)
        assert got_k[order].tolist() == [10, 20, 30]
        assert got_c[order].tolist() == [1, 2, 3]

    def test_filter_below(self):
        h = CountHash()
        h.add_counts(np.array([1, 1, 1, 2, 2, 3], dtype=np.uint64))
        removed = h.filter_below(2)
        assert removed == 1
        assert len(h) == 2
        assert h.get(3) == 0
        assert h.get(1) == 3

    def test_filter_below_noop(self):
        h = CountHash()
        h.add_counts(np.array([1, 1], dtype=np.uint64))
        assert h.filter_below(1) == 0
        assert len(h) == 1

    def test_filter_below_shrinks_capacity(self):
        h = CountHash()
        h.add_counts(np.arange(10_000, dtype=np.uint64))
        big = h.capacity
        h.add_counts(np.array([42], np.uint64), 100)
        h.filter_below(50)
        assert len(h) == 1
        assert h.capacity < big

    def test_clear(self):
        h = CountHash()
        h.add_counts(np.arange(1000, dtype=np.uint64))
        h.clear()
        assert len(h) == 0
        assert h.get(5) == 0

    def test_merge_from(self):
        a, b = CountHash(), CountHash()
        a.add_counts(np.array([1, 2], dtype=np.uint64), np.array([5, 5], np.uint64))
        b.add_counts(np.array([2, 3], dtype=np.uint64), np.array([1, 7], np.uint64))
        a.merge_from(b)
        assert a.get(1) == 5
        assert a.get(2) == 6
        assert a.get(3) == 7

    def test_copy_independent(self):
        a = CountHash()
        a.add_counts(np.array([1], np.uint64))
        b = a.copy()
        b.add_counts(np.array([1], np.uint64))
        assert a.get(1) == 1
        assert b.get(1) == 2

    def test_nbytes_positive_and_grows(self):
        h = CountHash()
        before = h.nbytes
        h.add_counts(np.arange(100_000, dtype=np.uint64))
        assert h.nbytes > before


class TestAgainstDictReference:
    @given(keys_strategy, keys_strategy)
    @settings(max_examples=60, deadline=None)
    def test_matches_python_dict(self, batch1, batch2):
        """The table must agree with a plain dict on any insert sequence."""
        h = CountHash()
        ref: dict[int, int] = {}
        for batch in (batch1, batch2):
            arr = np.array(batch, dtype=np.uint64)
            h.add_counts(arr)
            for k in batch:
                ref[k] = ref.get(k, 0) + 1
        assert len(h) == len(ref)
        if ref:
            query = np.array(list(ref), dtype=np.uint64)
            assert h.lookup(query).tolist() == [ref[k] for k in ref]
        # Absent keys answer 0.
        absent = np.array(
            [k for k in range(50) if k not in ref], dtype=np.uint64
        )
        assert (h.lookup(absent) == 0).all()

    @given(keys_strategy, st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_filter_matches_dict(self, batch, threshold):
        h = CountHash()
        arr = np.array(batch, dtype=np.uint64)
        h.add_counts(arr)
        ref: dict[int, int] = {}
        for k in batch:
            ref[k] = ref.get(k, 0) + 1
        kept = {k: c for k, c in ref.items() if c >= threshold}
        removed = h.filter_below(threshold)
        assert removed == len(ref) - len(kept)
        assert len(h) == len(kept)
        for k, c in kept.items():
            assert h.get(k) == c


def _as_dict(table: CountHash) -> dict[int, int]:
    keys, counts = table.items()
    return dict(zip(keys.tolist(), counts.tolist()))


def _keys_homed_at_the_end(capacity: int, last: int, want: int) -> list[int]:
    """Keys whose home slot is one of the ``last`` slots of a table."""
    candidates = np.random.default_rng(5).integers(
        0, 2**63, 200_000, dtype=np.uint64
    )
    homes = CountHash(capacity)._home(candidates)
    return candidates[homes >= capacity - last][:want].tolist()


#: Enough keys homed in the last 3 of 64 slots that placement must wrap.
TAIL_KEYS = _keys_homed_at_the_end(64, 3, 30)

entries_strategy = st.dictionaries(
    st.one_of(
        st.sampled_from([0, 2**64 - 1, 2**63] + TAIL_KEYS),
        st.integers(min_value=0, max_value=2**64 - 1),
    ),
    # Counts reach past the uint32 maximum, where the table saturates.
    st.one_of(st.integers(0, 6), st.integers(2**32 - 3, 2**33)),
    max_size=120,
)


class TestBulkPlacementAgainstIncremental:
    """One kernel, two ways in: distinct keys placed at once by the sort,
    or arriving in batches through the claim loop.  Both must be the dict."""

    @given(entries_strategy, st.integers(1, 7), st.lists(
        st.integers(0, 2**64 - 1), max_size=30))
    @settings(max_examples=120, deadline=None)
    def test_bulk_incremental_and_dict_agree(self, entries, batches, absent):
        keys = np.array(list(entries), dtype=np.uint64)
        counts = np.array(list(entries.values()), dtype=np.uint64)
        ref = {k: min(c, 2**32 - 1) for k, c in entries.items()}

        bulk = CountHash.from_counts(keys, counts)
        one_add = CountHash()
        one_add.add_counts(keys, counts)
        incremental = CountHash()
        for part in np.array_split(np.arange(keys.size), batches):
            incremental.add_counts(keys[part], counts[part])

        query = np.array(
            list(entries) + absent + [0, 2**64 - 1] + TAIL_KEYS,
            dtype=np.uint64,
        )
        want_counts = [ref.get(k, 0) for k in query.tolist()]
        want_found = [k in ref for k in query.tolist()]
        for table in (bulk, one_add, incremental):
            assert len(table) == len(ref)
            assert table.load_factor <= 0.60 + 1e-9
            assert _as_dict(table) == ref
            assert table.lookup(query).tolist() == want_counts
            got_counts, got_found = table.lookup_found(query)
            assert got_counts.tolist() == want_counts
            assert got_found.tolist() == want_found
            assert table.contains(query).tolist() == want_found

    def test_placement_wraps_past_the_last_slot(self):
        """Ten keys homed in the last three slots cannot all sit there."""
        keys = np.array(TAIL_KEYS[:10], dtype=np.uint64)
        table = CountHash.from_counts(keys, np.arange(1, 11, dtype=np.uint64))
        assert table.capacity == 64
        assert table.lookup(keys).tolist() == list(range(1, 11))
        # Wrapped entries sit at the front, a long way round from home.
        assert table.mean_displacement > 1.0
        assert not table.contains(
            np.array(TAIL_KEYS[10:], dtype=np.uint64)
        ).any()

    def test_saturation_is_the_same_both_ways(self):
        top = np.iinfo(np.uint32).max
        keys = np.array([3, 4], dtype=np.uint64)
        bulk = CountHash.from_counts(keys, np.array([2**40, 1], np.uint64))
        grown = CountHash()
        grown.add_counts(keys[:1], top - 1)
        grown.add_counts(keys, np.array([5, 1], dtype=np.uint64))
        assert bulk.lookup(keys).tolist() == [top, 1]
        assert grown.lookup(keys).tolist() == [top, 1]


class TestFromCounts:
    @given(
        st.dictionaries(
            st.integers(0, 2**64 - 1), st.integers(1, 9), max_size=400
        ),
        st.integers(0, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_add_then_filter(self, entries, min_count):
        """Count → threshold → insert leaves what insert → filter leaves,
        capacity included — also when the threshold removes nothing."""
        keys = np.array(list(entries), dtype=np.uint64)
        counts = np.array(list(entries.values()), dtype=np.uint64)
        direct = CountHash.from_counts(keys, counts, min_count=min_count)
        filtered = CountHash()
        filtered.add_counts(keys, counts)
        filtered.filter_below(min_count)
        assert _as_dict(direct) == _as_dict(filtered)
        assert len(direct) == len(filtered)
        assert direct.capacity == filtered.capacity
        assert direct.nbytes == filtered.nbytes

    def test_nothing_removed_keeps_the_add_capacity(self):
        keys = np.arange(1000, dtype=np.uint64)
        counts = np.full(1000, 7, dtype=np.uint64)
        direct = CountHash.from_counts(keys, counts, min_count=7)
        added = CountHash()
        added.add_counts(keys, counts)
        assert added.filter_below(7) == 0
        assert len(direct) == 1000
        assert direct.capacity == added.capacity

    def test_shape_mismatch(self):
        with pytest.raises(HashTableError):
            CountHash.from_counts(
                np.array([1, 2], np.uint64), np.array([1], np.uint64)
            )


class TestSlotHashIndependentOfOwnerHash:
    """A rank's shard holds one residue of ``mix_to_rank``.  If the home
    slot shared bits with that hash, a shard would use one home slot in P
    and cluster; it must probe like any table of its size."""

    @pytest.mark.parametrize("nranks", [2, 8, 64])
    def test_shard_displacement_matches_unsharded(self, nranks):
        from repro.hashing.inthash import mix_to_rank

        rng = np.random.default_rng(17)
        pool = np.unique(
            rng.integers(0, 2**40, 9_000 * nranks, dtype=np.uint64)
        )
        shard_keys = pool[mix_to_rank(pool, nranks) == nranks - 1]
        plain_keys = rng.choice(pool, shard_keys.size, replace=False)
        shard, plain = CountHash(), CountHash()
        shard.add_counts(shard_keys)
        plain.add_counts(plain_keys)
        assert shard.capacity == plain.capacity  # equal load
        assert plain.mean_displacement > 0.0
        assert shard.mean_displacement <= 1.25 * plain.mean_displacement

    def test_displacement_of_an_empty_table(self):
        assert CountHash().mean_displacement == 0.0
