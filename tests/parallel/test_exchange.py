"""Tests for owner-directed exchanges (Step III machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.counthash import CountHash, merge_pairs
from repro.parallel.exchange import (
    bucket_by_owner,
    exchange_deltas,
    fetch_global_counts,
    pack_pairs,
    unpack_pairs,
)
from repro.parallel.ownership import KeySpace
from repro.simmpi import run_spmd

COUNT_MAX = 2**32 - 1
#: Keys of up to 40 bits, as a tile's are.
SPACE = KeySpace(40)


def owners(keys, nranks):
    return SPACE.owners(np.asarray(keys, dtype=np.uint64), nranks)


class TestBucketing:
    def test_pack_unpack_roundtrip(self):
        keys = np.sort(SPACE.keys(np.arange(100, dtype=np.uint64)))
        counts = (keys * 2 + 1).astype(np.uint64)
        buckets = bucket_by_owner(SPACE, keys, counts, 4)
        assert len(buckets) == 4
        seen = {}
        for d, bucket in enumerate(buckets):
            k, c = unpack_pairs(pack_pairs(*bucket))
            assert np.array_equal(owners(k, 4), np.full(k.shape, d))
            assert (k[1:] > k[:-1]).all()  # each bucket is a slice
            seen.update(zip(k.tolist(), c.tolist()))
        assert seen == {int(k): int(k) * 2 + 1 for k in keys}

    def test_empty(self):
        buckets = bucket_by_owner(
            SPACE, np.empty(0, np.uint64), np.empty(0, np.uint64), 3
        )
        assert all(k.shape == c.shape == (0,) for k, c in buckets)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bucket_by_owner(
                SPACE, np.zeros(2, np.uint64), np.zeros(3, np.uint64), 2
            )


class TestExchangeCounts:
    def test_counts_land_on_owners(self):
        """After the exchange every key lives on its owner with the summed
        global count."""
        nranks = 4

        def prog(comm):
            # Every rank contributes count=rank+1 for the same 50 keys.
            keys = np.sort(SPACE.keys(np.arange(50, dtype=np.uint64)))
            runs = exchange_deltas(
                comm, SPACE, keys, np.full(50, comm.rank + 1, dtype=np.uint32)
            )
            got_keys, got_counts = merge_pairs(runs)
            assert (owners(got_keys, comm.size) == comm.rank).all()
            expected = sum(r + 1 for r in range(comm.size))
            assert (got_counts == expected).all()
            return len(got_keys), comm.stats.get("session_delta_bytes")

        res = run_spmd(prog, nranks, engine="cooperative")
        assert sum(n for n, _ in res.results) == 50
        # A rank's own bucket never travels: 16 B for each foreign pair.
        assert sum(b for _, b in res.results) == 16 * (nranks - 1) * 50

    def test_disjoint_contributions(self):
        def prog(comm):
            keys = np.arange(comm.rank * 20, (comm.rank + 1) * 20, dtype=np.uint64)
            return merge_pairs(
                exchange_deltas(comm, SPACE, keys, np.ones(20, dtype=np.uint32))
            )

        res = run_spmd(prog, 3, engine="cooperative")
        all_keys = np.concatenate([k for k, _ in res.results])
        all_counts = np.concatenate([c for _, c in res.results])
        assert sorted(all_keys.tolist()) == list(range(60))
        assert (all_counts == 1).all()


class TestSaturatingMerge:
    """Held pairs plus every rank's contributions, summed by the owner,
    saturate at the uint32 maximum exactly where a dict of Python ints
    crosses it."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_owner_sums_saturate(self, data):
        nranks = data.draw(st.sampled_from([1, 2, 3, 8]), label="P")
        keys = st.integers(0, 2**40 - 1)  # a 40-bit key space
        counts = st.sampled_from([1, 7, 2**31, COUNT_MAX - 1, COUNT_MAX])
        sent = [
            data.draw(st.dictionaries(keys, counts, max_size=20))
            for _ in range(nranks)
        ]
        held = [
            data.draw(st.dictionaries(keys, counts, max_size=10))
            for _ in range(nranks)
        ]

        def pairs(entries):
            ks = np.array(sorted(entries), dtype=np.uint64)
            cs = np.array([entries[k] for k in sorted(entries)], np.uint32)
            return ks, cs

        def prog(comm):
            mine = {
                k: c for k, c in held[comm.rank].items()
                if owners(k, comm.size) == comm.rank
            }
            raw = merge_pairs([pairs(mine)])
            return merge_pairs(
                [raw, *exchange_deltas(comm, SPACE, *pairs(sent[comm.rank]))]
            )

        results = run_spmd(prog, nranks, engine="cooperative").results
        expected: dict[int, int] = {}
        for rank, entries in enumerate(held):
            for k, c in entries.items():
                if owners(k, nranks) == rank:
                    expected[k] = expected.get(k, 0) + c
        for entries in sent:
            for k, c in entries.items():
                expected[k] = expected.get(k, 0) + c
        for rank, (ks, cs) in enumerate(results):
            assert cs.dtype == np.uint32
            assert (ks[1:] > ks[:-1]).all()
            assert (owners(ks, nranks) == rank).all()
            for k, c in zip(ks.tolist(), cs.tolist()):
                assert c == min(expected.pop(k), COUNT_MAX)
        assert not expected


class TestFetchGlobalCounts:
    def test_returns_global_counts(self):
        def prog(comm):
            owned = CountHash()
            # Rank owns keys assigned to it; global count = key index.
            keys = SPACE.keys(np.arange(200, dtype=np.uint64))
            mine = owners(keys, comm.size) == comm.rank
            owned.add_counts(keys[mine], np.arange(200, dtype=np.uint64)[mine])
            wanted = keys[[5, 17, 100, 199, 5]]
            got_keys, got_counts = fetch_global_counts(
                comm, SPACE, wanted, owned
            )
            lookup = dict(zip(got_keys.tolist(), got_counts.tolist()))
            assert lookup == {int(keys[i]): i for i in (5, 17, 100, 199)}

        run_spmd(prog, 4, engine="cooperative")

    def test_absent_keys_zero(self):
        def prog(comm):
            owned = CountHash()
            got_keys, got_counts = fetch_global_counts(
                comm, SPACE, np.array([42, 77], dtype=np.uint64), owned
            )
            assert (got_counts == 0).all()
            assert sorted(got_keys.tolist()) == [42, 77]

        run_spmd(prog, 3, engine="cooperative")

    def test_empty_request_still_collective(self):
        def prog(comm):
            owned = CountHash()
            wanted = (
                np.array([1, 2], dtype=np.uint64)
                if comm.rank == 0
                else np.empty(0, np.uint64)
            )
            keys, counts = fetch_global_counts(comm, SPACE, wanted, owned)
            return keys.shape[0]

        res = run_spmd(prog, 3, engine="cooperative")
        assert res.results == [2, 0, 0]
