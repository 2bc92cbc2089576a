"""Tests for owner-directed exchanges (Step III machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.counthash import CountHash, merge_pairs
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.kmer.tiles import TileShape
from repro.parallel.build import RankSpectra, apply_replication
from repro.parallel.exchange import (
    bucket_by_owner,
    exchange_deltas,
    fetch_global_counts,
)
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.ownership import KeySpace
from repro.simmpi import run_spmd

COUNT_MAX = 2**32 - 1
#: Keys of up to 40 bits, as a tile's are.
SPACE = KeySpace(40)


def owners(keys, nranks):
    return SPACE.owners(np.asarray(keys, dtype=np.uint64), nranks)


class TestBucketing:
    def test_buckets_are_owner_slices(self):
        keys = np.sort(SPACE.keys(np.arange(100, dtype=np.uint64)))
        counts = (keys * 2 + 1).astype(np.uint64)
        buckets = bucket_by_owner(SPACE, keys, counts, 4)
        assert len(buckets) == 4
        seen = {}
        for d, (k, c) in enumerate(buckets):
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


def deltas(comm, space, keys, counts):
    """One kind's runs from a one-kind exchange."""
    (runs,) = exchange_deltas(comm, [(space, (keys, counts))])
    return runs


class TestExchangeCounts:
    def test_counts_land_on_owners(self):
        """After the exchange every key lives on its owner with the summed
        global count."""
        nranks = 4

        def prog(comm):
            # Every rank contributes count=rank+1 for the same 50 keys.
            keys = np.sort(SPACE.keys(np.arange(50, dtype=np.uint64)))
            pairs = merge_pairs(
                [(keys, np.full(50, comm.rank + 1, dtype=np.uint32))]
            )
            got_keys, got_counts = merge_pairs(deltas(comm, SPACE, *pairs))
            assert (owners(got_keys, comm.size) == comm.rank).all()
            expected = sum(r + 1 for r in range(comm.size))
            assert (got_counts == expected).all()
            return len(got_keys), comm.stats.get("session_delta_bytes")

        res = run_spmd(prog, nranks, engine="cooperative")
        assert sum(n for n, _ in res.results) == 50
        # A rank's own bucket never travels; every other pair travels at
        # table width: a 40-bit key and a 16-bit count, 10 B.
        assert sum(b for _, b in res.results) == 10 * (nranks - 1) * 50

    def test_disjoint_contributions(self):
        def prog(comm):
            keys = np.arange(comm.rank * 20, (comm.rank + 1) * 20, dtype=np.uint64)
            return merge_pairs(
                deltas(comm, SPACE, keys, np.ones(20, dtype=np.uint32))
            )

        res = run_spmd(prog, 3, engine="cooperative")
        all_keys = np.concatenate([k for k, _ in res.results])
        all_counts = np.concatenate([c for _, c in res.results])
        assert sorted(all_keys.tolist()) == list(range(60))
        assert (all_counts == 1).all()


#: The k-mer and tile key spaces of a k = 12, 20-base-tile shape.
KSPACE, TSPACE = KeySpace(24), KeySpace(40)


def table_width(counts):
    """The count width the one width rule picks for these counts."""
    return np.uint16 if max(counts, default=0) <= 2**16 - 1 else np.uint32


class TestOneDeltaExchange:
    """Both kinds in one ``alltoallv`` a round, at table width: every pair
    lands on its owner with its summed count, each rank sends one frame
    to each other rank, and the ledger charges the foreign pairs' bytes
    at the width they travel."""

    @staticmethod
    def _contributions(nranks, seed):
        """Per rank: ``{key: count}`` of k-mers and of tiles.  Rank 1
        sends k-mers but no tiles; the last of three or more ranks has no
        reads at all."""
        rng = np.random.default_rng(seed)
        out = []
        for rank in range(nranks):
            kmers = dict(zip(
                KSPACE.keys(rng.integers(0, 300, 120)).tolist(),
                rng.integers(1, 40_000, 120).tolist(),
            ))
            tiles = dict(zip(
                TSPACE.keys(rng.integers(0, 2**40, 60, dtype=np.uint64)).tolist(),
                rng.integers(1, 9, 60).tolist(),
            ))
            if rank == 1:
                tiles = {}
            if nranks >= 3 and rank == nranks - 1:
                kmers, tiles = {}, {}
            out.append((kmers, tiles))
        return out

    @pytest.mark.parametrize("nranks", [1, 2, 3, 8])
    def test_every_pair_lands_summed_on_its_owner(self, nranks):
        sent = self._contributions(nranks, seed=nranks)

        def pairs(entries, space):
            ks = np.array(sorted(entries), dtype=space.dtype)
            cs = np.array([entries[k] for k in sorted(entries)], np.uint32)
            return merge_pairs([(ks, cs)])

        def prog(comm):
            kmers, tiles = sent[comm.rank]
            kinds = [(KSPACE, pairs(kmers, KSPACE)), (TSPACE, pairs(tiles, TSPACE))]
            kmer_runs, tile_runs = exchange_deltas(comm, kinds)
            foreign = sum(
                (k.itemsize + c.itemsize) * int((
                    space.owners(k, comm.size) != comm.rank
                ).sum())
                for space, (k, c) in kinds
            )
            stats = comm.stats
            return (
                merge_pairs(kmer_runs), merge_pairs(tile_runs),
                stats.messages_sent, stats.get("session_delta_exchanges"),
                stats.get("session_delta_bytes"), foreign,
            )

        results = run_spmd(prog, nranks, engine="cooperative").results
        for which, space in ((0, KSPACE), (1, TSPACE)):
            expected: dict[int, int] = {}
            for entries in sent:
                for k, c in entries[which].items():
                    expected[k] = expected.get(k, 0) + c
            for rank, result in enumerate(results):
                ks, cs = result[which]
                assert ks.dtype == space.dtype
                assert cs.dtype == table_width(
                    [expected[k] for k in ks.tolist()]
                )
                assert (ks[1:] > ks[:-1]).all()
                assert (space.owners(ks, nranks) == rank).all()
                for k, c in zip(ks.tolist(), cs.tolist()):
                    assert c == expected.pop(k)
            assert not expected
        for *_, frames, exchanges, charged, foreign in results:
            assert frames == nranks - 1  # one alltoallv, both kinds
            assert exchanges == 1
            assert charged == foreign


class TestReplicaWireForm:
    """Replication ships the same table-width pairs as Step III, and the
    replicas it builds hold every shard's keys with their counts."""

    def test_allgather_and_group_replicas_hold_every_shard(self):
        nranks = 4
        rng = np.random.default_rng(5)
        kmers = dict(zip(
            KSPACE.keys(rng.integers(0, 2**24, 400)).tolist(),
            rng.integers(1, 300, 400).tolist(),
        ))
        tiles = dict(zip(
            TSPACE.keys(rng.integers(0, 2**40, 300, dtype=np.uint64)).tolist(),
            rng.integers(1, 300, 300).tolist(),
        ))
        # One count past 16 bits: a uint32 run meets uint16 runs.
        tiles[max(tiles)] = 70_000

        def shard(entries, space, rank):
            ks = np.array(sorted(entries), dtype=space.dtype)
            cs = np.array([entries[k] for k in sorted(entries)], np.uint32)
            mine = space.owners(ks, nranks) == rank
            return merge_pairs([(ks[mine], cs[mine])])

        def prog(comm):
            spectra = RankSpectra(
                shape=TileShape(12, 4), rank=comm.rank, nranks=comm.size,
                kmers=CountHash.from_counts(*shard(kmers, KSPACE, comm.rank)),
                tiles=SortedSpectrum.from_sorted(
                    *shard(tiles, TSPACE, comm.rank)
                ),
            )
            apply_replication(
                comm, HeuristicConfig(allgather_kmers=True, replication_group=2),
                spectra,
            )
            return spectra.kmers.items(), spectra.group_tiles.items()

        results = run_spmd(prog, nranks, engine="cooperative").results
        tile_keys = np.array(sorted(tiles), np.uint64)
        group_of = dict(zip(
            tile_keys.tolist(), (TSPACE.owners(tile_keys, nranks) // 2).tolist()
        ))
        for rank, ((kk, kc), (tk, tc)) in enumerate(results):
            assert dict(zip(kk.tolist(), kc.tolist())) == kmers
            want = {k: c for k, c in tiles.items() if group_of[k] == rank // 2}
            assert dict(zip(tk.tolist(), tc.tolist())) == want


class TestSaturatingMerge:
    """Held pairs plus every rank's contributions, summed by the owner,
    saturate at the uint32 maximum exactly where a dict of Python ints
    crosses it, and come out at the count width the sum needs."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_owner_sums_saturate(self, data):
        nranks = data.draw(st.sampled_from([1, 2, 3, 8]), label="P")
        keys = st.integers(0, 2**40 - 1)  # a 40-bit key space
        counts = st.sampled_from(
            [1, 7, 40_000, 2**16 - 1, 2**31, COUNT_MAX - 1, COUNT_MAX]
        )
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
            return merge_pairs([(ks, cs)])

        def prog(comm):
            mine = {
                k: c for k, c in held[comm.rank].items()
                if owners(k, comm.size) == comm.rank
            }
            return merge_pairs(
                [pairs(mine), *deltas(comm, SPACE, *pairs(sent[comm.rank]))]
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
            want = [min(expected[k], COUNT_MAX) for k in ks.tolist()]
            assert cs.dtype == table_width(want)
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
