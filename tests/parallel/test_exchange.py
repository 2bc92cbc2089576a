"""Tests for owner-directed exchanges (Step III machinery)."""

import numpy as np
import pytest

from repro.hashing.counthash import CountHash
from repro.hashing.inthash import mix_to_rank
from repro.parallel.exchange import (
    bucket_by_owner,
    exchange_deltas,
    fetch_global_counts,
    unpack_pairs,
)
from repro.simmpi import run_spmd


class TestBucketing:
    def test_pack_unpack_roundtrip(self):
        keys = np.arange(100, dtype=np.uint64)
        counts = (keys * 2 + 1).astype(np.uint64)
        bufs = bucket_by_owner(keys, counts, 4)
        assert len(bufs) == 4
        seen = {}
        for d, buf in enumerate(bufs):
            k, c = unpack_pairs(buf)
            assert np.array_equal(mix_to_rank(k, 4), np.full(k.shape, d))
            for kk, cc in zip(k.tolist(), c.tolist()):
                seen[kk] = cc
        assert seen == {int(k): int(k) * 2 + 1 for k in keys}

    def test_empty(self):
        bufs = bucket_by_owner(
            np.empty(0, np.uint64), np.empty(0, np.uint64), 3
        )
        assert all(b.shape == (0,) for b in bufs)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bucket_by_owner(
                np.zeros(2, np.uint64), np.zeros(3, np.uint64), 2
            )


class TestExchangeCounts:
    def test_counts_land_on_owners(self):
        """After the exchange every key lives on its owner with the summed
        global count."""
        nranks = 4

        def prog(comm):
            local = CountHash()
            # Every rank contributes count=rank+1 for the same 50 keys.
            keys = np.arange(50, dtype=np.uint64)
            local.add_counts(keys, np.full(50, comm.rank + 1, dtype=np.uint64))
            owned = CountHash()
            received = exchange_deltas(comm, local, owned)
            got_keys, got_counts = owned.items()
            assert (mix_to_rank(got_keys, comm.size) == comm.rank).all()
            expected = sum(r + 1 for r in range(comm.size))
            assert (got_counts == expected).all()
            return len(owned), received

        res = run_spmd(prog, nranks, engine="cooperative")
        assert sum(n for n, _ in res.results) == 50

    def test_disjoint_contributions(self):
        def prog(comm):
            local = CountHash()
            keys = np.arange(comm.rank * 20, (comm.rank + 1) * 20, dtype=np.uint64)
            local.add_counts(keys)
            owned = CountHash()
            exchange_deltas(comm, local, owned)
            return owned.items()

        res = run_spmd(prog, 3, engine="cooperative")
        all_keys = np.concatenate([k for k, _ in res.results])
        all_counts = np.concatenate([c for _, c in res.results])
        assert sorted(all_keys.tolist()) == list(range(60))
        assert (all_counts == 1).all()


class TestFetchGlobalCounts:
    def test_returns_global_counts(self):
        def prog(comm):
            owned = CountHash()
            # Rank owns keys assigned to it; global count = key value.
            keys = np.arange(200, dtype=np.uint64)
            mine = keys[mix_to_rank(keys, comm.size) == comm.rank]
            owned.add_counts(mine, mine)
            wanted = np.array([5, 17, 100, 199, 5], dtype=np.uint64)
            got_keys, got_counts = fetch_global_counts(comm, wanted, owned)
            lookup = dict(zip(got_keys.tolist(), got_counts.tolist()))
            assert lookup == {5: 5, 17: 17, 100: 100, 199: 199}

        run_spmd(prog, 4, engine="cooperative")

    def test_absent_keys_zero(self):
        def prog(comm):
            owned = CountHash()
            got_keys, got_counts = fetch_global_counts(
                comm, np.array([42, 77], dtype=np.uint64), owned
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
            keys, counts = fetch_global_counts(comm, wanted, owned)
            return keys.shape[0]

        res = run_spmd(prog, 3, engine="cooperative")
        assert res.results == [2, 0, 0]
