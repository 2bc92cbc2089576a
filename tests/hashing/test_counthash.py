"""Unit and property tests for the open-addressing count hash."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import HashTableError
from repro.hashing.counthash import CountHash, merge_pairs, narrow_pairs

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


def _probe_fixture(n_queries):
    """A table of 2,858 keys (one stored with count 0) and a query batch
    mixing hits, the zero-count key and misses."""
    table = CountHash()
    keys = np.arange(0, 20_000, 7, dtype=np.uint64) * np.uint64(2_654_435_761)
    table.add_counts(keys, np.arange(keys.size, dtype=np.uint64) % 5)
    rng = np.random.default_rng(3)
    queries = rng.integers(0, 2**40, n_queries, dtype=np.uint64)
    queries[::3] = keys[rng.integers(0, keys.size, queries[::3].size)]
    return table, queries


class TestSlicedProbe:
    """Lookups probe in slices of at most PROBE_SLICE keys."""

    def test_results_identical_across_slice_boundaries(self, monkeypatch):
        import repro.hashing.counthash as counthash

        table, queries = _probe_fixture(1_000)
        whole = (
            table.lookup(queries), *table.lookup_found(queries),
            table.contains(queries),
        )
        # 7 divides nothing here: every slice boundary falls mid-batch.
        monkeypatch.setattr(counthash, "PROBE_SLICE", 7)
        sliced = (
            table.lookup(queries), *table.lookup_found(queries),
            table.contains(queries),
        )
        for a, b in zip(whole, sliced):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert whole[2].any() and not whole[2].all()
        assert (whole[0][whole[2]] == 0).any()  # the zero-count key

    def test_peak_memory_of_a_million_key_lookup_is_bounded(self):
        """A probe's temporaries are a dozen arrays as long as its batch
        (about 20 MiB at a million keys); sliced, the peak is the output
        plus one slice's worth."""
        import tracemalloc

        from repro.hashing.counthash import PROBE_SLICE

        n = 10**6
        assert n > 4 * PROBE_SLICE
        table, queries = _probe_fixture(n)
        for probe in (table.lookup, table.lookup_found, table.contains):
            tracemalloc.start()
            try:
                probe(queries)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # Counts (4 B) and found flags (1 B) per key, plus 2 MiB.
            assert peak < 5 * n + 2 * 2**20, probe.__name__


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
    """A shard holds one residue of a hash (``mix_to_rank``) or one
    range of keys (:mod:`repro.parallel.ownership`).  If the home slot
    shared bits with the owner, a shard would use one home slot in P and
    cluster; it must probe like any table of its size."""

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

    @pytest.mark.parametrize("nranks", [2, 8, 64])
    def test_range_shard_displacement_matches_unsharded(self, nranks):
        """An owner is a key range, so a shard's keys share their top
        bits; the home slot reads the mixed high bits of the whole key,
        and such a shard must probe like any table of its size."""
        from repro.parallel.ownership import KeySpace

        space = KeySpace(40)
        rng = np.random.default_rng(17)
        pool = np.unique(
            rng.integers(0, 2**40, 9_000 * nranks, dtype=np.uint64)
        )
        shard_keys = pool[space.owners(pool, nranks) == nranks - 1]
        assert (shard_keys >> np.uint64(40 - 1)).min() == 1  # top bit set
        plain_keys = rng.choice(pool, shard_keys.size, replace=False)
        shard, plain = CountHash(), CountHash()
        shard.add_counts(shard_keys)
        plain.add_counts(plain_keys)
        assert shard.capacity == plain.capacity  # equal load
        assert plain.mean_displacement > 0.0
        assert shard.mean_displacement <= 1.25 * plain.mean_displacement

    def test_displacement_of_an_empty_table(self):
        assert CountHash().mean_displacement == 0.0

    @pytest.mark.parametrize(
        "nranks, shard_mean, plain_mean",
        [
            (2, 0.5895663805595809, 0.6374986066213354),
            (8, 0.6054631567353232, 0.581561846018284),
            (64, 0.6335078534031413, 0.6269633507853403),
        ],
    )
    def test_displacement_is_what_two_uint64_slots_gave(
        self, nranks, shard_mean, plain_mean
    ):
        """What a slot is made of does not move a key: the means measured
        on the ``(capacity, 2)`` uint64 layout, same keys, same order."""
        from repro.hashing.inthash import mix_to_rank

        rng = np.random.default_rng(17)
        pool = np.unique(
            rng.integers(0, 2**40, 9_000 * nranks, dtype=np.uint64)
        )
        shard_keys = pool[mix_to_rank(pool, nranks) == nranks - 1]
        plain_keys = rng.choice(pool, shard_keys.size, replace=False)
        for keys, mean in ((shard_keys, shard_mean), (plain_keys, plain_mean)):
            table = CountHash()
            table.add_counts(keys)
            assert table.mean_displacement == pytest.approx(mean, rel=1e-12)


# ----------------------------------------------------------------------
# slot widths
# ----------------------------------------------------------------------
TOP = 2**32 - 1  # counts saturate here whatever the slot width


def _widths(table: CountHash) -> tuple[int, int]:
    """(key bytes, meta bytes) per slot."""
    return table._keys.itemsize, table._meta.itemsize


def _narrowest(top_key: int, top_count: int) -> tuple[int, int]:
    """The widths the largest key and largest (saturated) count need: the
    top bit of ``meta`` is the occupancy flag, so 15 / 31 / 32 count bits."""
    return (
        4 if top_key < 2**32 else 8,
        2 if top_count < 2**15 else 4 if top_count < 2**31 else 8,
    )


def _footprint_is_slots_times_widths(table: CountHash) -> bool:
    return table.nbytes == table.capacity * sum(_widths(table))


#: Below, at and above the first key uint32 cannot hold.
BOUNDARY_KEYS = [2**32 - 1, 2**32, 2**32 + 1]
#: Both sides of every count-field boundary, and past saturation.
BOUNDARY_COUNTS = [2**15 - 1, 2**15, 2**31 - 1, 2**31, TOP, TOP + 10]


class TestSlotWidths:
    def test_a_fresh_table_is_the_narrowest(self):
        table = CountHash()
        assert _widths(table) == (4, 2)
        assert table.nbytes == 64 * 6

    @pytest.mark.parametrize("count", BOUNDARY_COUNTS)
    @pytest.mark.parametrize("key", BOUNDARY_KEYS)
    def test_bulk_placement_picks_the_narrowest_pair(self, key, count):
        keys = np.array([7, key], dtype=np.uint64)
        counts = np.array([1, count], dtype=np.uint64)
        added = CountHash()
        added.add_counts(keys, counts)
        for table in (CountHash.from_counts(keys, counts), added):
            assert _widths(table) == _narrowest(key, min(count, TOP))
            assert _footprint_is_slots_times_widths(table)
            assert table.lookup(keys).tolist() == [1, min(count, TOP)]

    @pytest.mark.parametrize("count", BOUNDARY_COUNTS)
    @pytest.mark.parametrize("key", BOUNDARY_KEYS)
    def test_an_incremental_add_widens_only_what_it_must(self, key, count):
        table = CountHash()
        table.add_counts(np.array([7], dtype=np.uint64), 1)
        assert _widths(table) == (4, 2)
        # The new key alone widens the key array, the count array stays.
        table.add_counts(np.array([key], dtype=np.uint64), 1)
        assert _widths(table) == _narrowest(key, 1)
        # The running total crosses the boundary, not any single add.
        table.add_counts(np.array([key], dtype=np.uint64), count - 2)
        assert _widths(table) == _narrowest(key, count - 1)
        table.add_counts(np.array([key], dtype=np.uint64), 1)
        assert _widths(table) == _narrowest(key, min(count, TOP))
        assert _footprint_is_slots_times_widths(table)
        assert table.get(key) == min(count, TOP)
        assert table.get(7) == 1
        assert len(table) == 2

    def test_only_a_rebuild_narrows(self):
        table = CountHash()
        table.add_counts(np.array([7, 8], dtype=np.uint64), 2**31)
        table.add_counts(np.array([2**40], dtype=np.uint64), 1)
        assert _widths(table) == (8, 8)
        assert table.filter_below(1) == 0  # nothing removed, nothing rebuilt
        assert _widths(table) == (8, 8)
        assert _widths(table.copy()) == (8, 8)
        # A growth rehash reads the widths off what it holds: still wide.
        table.add_counts(np.arange(100, 300, dtype=np.uint64))
        assert table.capacity > 64
        assert _widths(table) == (8, 8)
        # The wide key goes, the wide counts stay.
        assert table.filter_below(2) == 201
        assert _widths(table) == (4, 8)
        table.clear()
        assert _widths(table) == (4, 2)
        assert table.nbytes == 64 * 6

    def test_widening_keeps_every_entry_and_every_flag(self):
        """Entries with count 0 are present; the flag must move with the
        width or they vanish (and free slots must stay free)."""
        keys = np.arange(1, 31, dtype=np.uint64)
        table = CountHash()
        table.add_counts(keys, np.arange(30, dtype=np.uint64))  # key 1 -> 0
        before = _as_dict(table)
        table.add_counts(np.array([30], dtype=np.uint64), 2**15)
        assert _widths(table) == (4, 4)
        table.add_counts(np.array([2**33], dtype=np.uint64), 2**31)
        assert _widths(table) == (8, 8)
        before[30] += 2**15
        before[2**33] = 2**31
        assert _as_dict(table) == before
        assert len(table) == 31
        assert 1 in table and table.get(1) == 0
        absent = np.arange(31, 200, dtype=np.uint64)
        assert not table.contains(absent).any()


def _narrow_keys_homed_at_the_end(capacity: int, last: int, want: int) -> list[int]:
    """Keys below 2**32 whose home is one of the ``last`` slots of a table."""
    candidates = np.arange(1, 50_000, dtype=np.uint64)
    homes = CountHash(capacity)._home(candidates)
    return candidates[homes >= capacity - last][:want].tolist()


#: Small keys crowded into the last 3 of 64 slots: placement must wrap.
NARROW_TAIL_KEYS = _narrow_keys_homed_at_the_end(64, 3, 11)


class TestPairWidths:
    """The one width rule for a pair: uint16 counts while the largest
    fits, else uint32 saturated at 2**32 - 1; keys uint32 while the
    largest fits, else uint64."""

    @pytest.mark.parametrize(
        "top, dtype", [(2**16 - 1, np.uint16), (2**16, np.uint32)]
    )
    def test_count_width_follows_the_largest_count(self, top, dtype):
        keys = np.array([3, 9], dtype=np.uint64)
        counts = np.array([1, top], dtype=np.uint64)
        for _, got in (narrow_pairs(keys, counts), merge_pairs([(keys, counts)])):
            assert got.dtype == dtype
            assert got.tolist() == [1, top]

    def test_key_width_follows_the_largest_key(self):
        for top, dtype in ((2**32 - 1, np.uint32), (2**32, np.uint64)):
            keys, _ = narrow_pairs(
                np.array([0, top], dtype=np.uint64), np.ones(2, np.uint64)
            )
            assert keys.dtype == dtype and keys.tolist() == [0, top]

    def test_narrow_runs_sum_without_wrapping(self):
        keys = np.array([5, 7], dtype=np.uint32)
        run = (keys, np.array([40_000, 1], dtype=np.uint16))
        got_keys, got_counts = merge_pairs([run, run])
        assert got_keys.tolist() == [5, 7]
        assert got_counts.dtype == np.uint32
        assert got_counts.tolist() == [80_000, 2]

    def test_sums_saturate_at_the_uint32_maximum(self):
        keys = np.array([5], dtype=np.uint32)
        run = (keys, np.array([TOP - 1], dtype=np.uint32))
        _, counts = merge_pairs([run, run, (keys, np.array([7], np.uint16))])
        assert counts.dtype == np.uint32 and counts.tolist() == [TOP]

    def test_no_pairs(self):
        keys, counts = narrow_pairs(np.empty(0, np.uint64), np.empty(0, np.uint64))
        assert keys.dtype == np.uint32 and counts.dtype == np.uint16


class TestNarrowKeysDoNotAlias:
    """A uint32 slot holding k must never answer for 2**32 + k: stored keys
    are promoted to the query's width, the query is never truncated."""

    def _narrow_table(self):
        small = np.array([0] + NARROW_TAIL_KEYS, dtype=np.uint64)
        table = CountHash.from_counts(
            small, np.arange(1, small.size + 1, dtype=np.uint64)
        )
        assert table.capacity == 64
        assert _widths(table) == (4, 2)
        assert table.mean_displacement > 1.0  # wrapped round to the front
        return table, small, small + np.uint64(2**32)

    def test_the_wide_twin_is_a_miss(self):
        table, small, twins = self._narrow_table()
        assert table.lookup(twins).tolist() == [0] * twins.size
        counts, found = table.lookup_found(twins)
        assert not found.any() and not counts.any()
        assert not table.contains(twins).any()
        for k in small.tolist():
            assert k in table
            assert k + 2**32 not in table
            assert table.get(k + 2**32, -1) == -1

    def test_inserting_the_wide_twin_does_not_touch_the_narrow_key(self):
        table, small, twins = self._narrow_table()
        table.add_counts(twins, 100)
        assert table.capacity == 64  # the incremental path, not a rehash
        assert _widths(table) == (8, 2)
        assert len(table) == 2 * small.size
        assert table.lookup(small).tolist() == list(range(1, small.size + 1))
        assert table.lookup(twins).tolist() == [100] * twins.size
        for k in twins.tolist():
            assert k in table

    def test_twins_in_one_bulk_placement(self):
        _, small, twins = self._narrow_table()
        both = np.concatenate([small, twins])
        table = CountHash.from_counts(
            both, np.arange(both.size, dtype=np.uint64)
        )
        assert _widths(table) == (8, 2)
        assert table.lookup(both).tolist() == list(range(both.size))


_ALIASED = [k + high for k in [0, 1, 2] + NARROW_TAIL_KEYS for high in (0, 2**32)]
width_keys = st.one_of(
    st.sampled_from(_ALIASED + BOUNDARY_KEYS + [2**64 - 1]),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
)
width_counts = st.sampled_from(
    [0, 1, 2, 5] + [c + d for c in (2**15, 2**31, 2**32) for d in (-2, -1, 0)]
    + [2**33]
)
width_entries = st.lists(st.tuples(width_keys, width_counts), max_size=25)


class SlotWidthMachine(RuleBasedStateMachine):
    """Every mutation, with keys from both sides of 2**32 and running
    totals crossing every count boundary, against a dict — in contents and
    in slot widths: never narrower than the entries need, never wider than
    the entries seen since the last rebuild needed, and exactly what
    ``from_counts`` picks right after a rebuild."""

    def __init__(self):
        super().__init__()
        self.table = CountHash()
        self.model: dict[int, int] = {}
        self.seen = (0, 0)  # largest key / count since the last rebuild
        self.rebuilt = True

    def _needed(self) -> tuple[int, int]:
        return max(self.model, default=0), max(self.model.values(), default=0)

    def _absorb(self, entries) -> None:
        for key, count in entries:
            self.model[key] = min(self.model.get(key, 0) + count, TOP)
            self.seen = (
                max(self.seen[0], key), max(self.seen[1], self.model[key])
            )
        self.rebuilt = False

    @staticmethod
    def _arrays(entries) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.array([k for k, _ in entries], dtype=np.uint64),
            np.array([c for _, c in entries], dtype=np.uint64),
        )

    @rule(entries=width_entries)
    def add(self, entries):
        self.table.add_counts(*self._arrays(entries))
        if entries:
            self._absorb(entries)

    @rule(entries=width_entries)
    def merge(self, entries):
        other = CountHash()
        other.add_counts(*self._arrays(entries))
        self.table.merge_from(other)
        if entries:
            # merge_from adds each key's saturated total in `other`.
            merged: dict[int, int] = {}
            for key, count in entries:
                merged[key] = min(merged.get(key, 0) + count, TOP)
            self._absorb(merged.items())

    @rule(threshold=st.sampled_from([1, 2, 2**15, 2**31, TOP]))
    def filter_below(self, threshold):
        kept = {k: c for k, c in self.model.items() if c >= threshold}
        removed = len(self.model) - len(kept)
        assert self.table.filter_below(threshold) == removed
        self.model = kept
        if removed:
            self.seen, self.rebuilt = self._needed(), True

    @rule()
    def clear(self):
        self.table.clear()
        self.model = {}
        self.seen, self.rebuilt = (0, 0), True

    @rule()
    def continue_on_a_copy(self):
        original, self.table = self.table, self.table.copy()
        assert _widths(self.table) == _widths(original)
        assert self.table.nbytes == original.nbytes
        original.add_counts(np.array([2**50], dtype=np.uint64), TOP)

    @invariant()
    def contents_match_the_model(self):
        assert len(self.table) == len(self.model)
        assert _as_dict(self.table) == self.model
        probes = list(self.model) + [k ^ 2**32 for k in self.model] + _ALIASED
        query = np.array(probes, dtype=np.uint64)
        want_counts = [self.model.get(k, 0) for k in probes]
        want_found = [k in self.model for k in probes]
        assert self.table.lookup(query).tolist() == want_counts
        counts, found = self.table.lookup_found(query)
        assert counts.tolist() == want_counts
        assert found.tolist() == want_found
        assert self.table.contains(query).tolist() == want_found

    @invariant()
    def widths_are_bounded_by_the_entries(self):
        widths = _widths(self.table)
        assert _footprint_is_slots_times_widths(self.table)
        assert self.table.load_factor <= 0.60 + 1e-9
        for got, need, most in zip(
            widths, _narrowest(*self._needed()), _narrowest(*self.seen)
        ):
            assert need <= got <= most
        if self.rebuilt:
            keys = np.array(list(self.model), dtype=np.uint64)
            counts = np.array(list(self.model.values()), dtype=np.uint64)
            assert widths == _widths(CountHash.from_counts(keys, counts))


TestSlotWidthsStateful = SlotWidthMachine.TestCase
TestSlotWidthsStateful.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
