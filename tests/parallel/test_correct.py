"""Tests for the distributed spectrum view's lookup ladder."""

import numpy as np
import pytest

from repro.config import ReptileConfig
from repro.errors import SpectrumError
from repro.hashing.counthash import CountHash
from repro.hashing.inthash import mix_to_rank
from repro.io.records import ReadBlock
from repro.kmer.tiles import TileShape
from repro.parallel.build import RankSpectra
from repro.parallel.correct import correct_distributed
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.lookup.stack import compile_stacks
from repro.parallel.server import CorrectionProtocol
from repro.simmpi import run_spmd


def _spectra_for(rank, nranks, universe=300):
    """Owned tables where count(key) = key + 1 for owned keys."""
    shape = TileShape(12, 4)
    keys = np.arange(universe, dtype=np.uint64)
    mine = keys[mix_to_rank(keys, nranks) == rank]
    sp = RankSpectra(shape=shape, rank=rank, nranks=nranks)
    sp.kmers.add_counts(mine, mine + np.uint64(1))
    sp.tiles.add_counts(mine, mine + np.uint64(1))
    return sp


def _view(comm, heuristics, spectra=None):
    sp = spectra or _spectra_for(comm.rank, comm.size)
    proto = CorrectionProtocol(
        comm, sp.kmers, sp.tiles, universal=heuristics.universal
    )
    return compile_stacks(comm, sp, heuristics, protocol=proto), proto


class TestLookupLadder:
    def test_owned_plus_remote_equals_global(self):
        def prog(comm):
            view, proto = _view(comm, HeuristicConfig())
            keys = np.arange(300, dtype=np.uint64)
            counts = view.kmer_counts(keys)
            proto.finish()
            assert np.array_equal(counts, (keys + 1).astype(np.uint32))
            # Some lookups were local, the rest remote.
            assert comm.stats.get("lookup_owned_hits") > 0
            assert comm.stats.get("remote_kmer_lookups") > 0
            return True

        assert run_spmd(prog, 4, engine="cooperative").results == [True] * 4

    def test_replicated_short_circuits_messaging(self):
        def prog(comm):
            sp = _spectra_for(comm.rank, comm.size)
            # Fake full replication: merge everyone's keys locally.
            keys = np.arange(300, dtype=np.uint64)
            sp.kmers = CountHash()
            sp.kmers.add_counts(keys, keys + np.uint64(1))
            sp.kmers_replicated = True
            view, proto = _view(
                comm, HeuristicConfig(allgather_kmers=True), spectra=sp
            )
            counts = view.kmer_counts(keys)
            proto.finish()
            assert np.array_equal(counts, (keys + 1).astype(np.uint32))
            assert comm.stats.get("remote_kmer_lookups") == 0
            return True

        run_spmd(prog, 3, engine="cooperative")

    def test_reads_table_cache_hits(self):
        def prog(comm):
            sp = _spectra_for(comm.rank, comm.size)
            cached = np.arange(0, 100, dtype=np.uint64)
            foreign = cached[mix_to_rank(cached, comm.size) != comm.rank]
            sp.reads_kmers = CountHash()
            sp.reads_kmers.add_counts(foreign, foreign + np.uint64(1))
            h = HeuristicConfig(read_kmers=True)
            view, proto = _view(comm, h, spectra=sp)
            counts = view.kmer_counts(cached)
            proto.finish()
            assert np.array_equal(counts, (cached + 1).astype(np.uint32))
            assert comm.stats.get("reads_table_kmer_hits") == foreign.size
            assert comm.stats.get("remote_kmer_lookups") == 0
            return True

        run_spmd(prog, 4, engine="cooperative")

    def test_add_remote_caches_fetches(self):
        def prog(comm):
            sp = _spectra_for(comm.rank, comm.size)
            sp.reads_kmers = CountHash()
            sp.reads_tiles = CountHash()
            h = HeuristicConfig(
                read_kmers=True, read_tiles=True, add_remote_lookups=True
            )
            view, proto = _view(comm, h, spectra=sp)
            keys = np.arange(200, dtype=np.uint64)
            first = view.kmer_counts(keys)
            remote_after_first = comm.stats.get("remote_kmer_lookups")
            second = view.kmer_counts(keys)
            proto.finish()
            assert np.array_equal(first, second)
            # Second pass answered entirely from the cache.
            assert comm.stats.get("remote_kmer_lookups") == remote_after_first
            return True

        run_spmd(prog, 3, engine="cooperative")

    def test_group_table_consulted(self):
        def prog(comm):
            g = 2
            base = (comm.rank // g) * g
            sp = _spectra_for(comm.rank, comm.size)
            sp.group_ranks = tuple(range(base, base + g))
            merged = CountHash()
            keys = np.arange(300, dtype=np.uint64)
            for r in sp.group_ranks:
                rk = keys[mix_to_rank(keys, comm.size) == r]
                merged.add_counts(rk, rk + np.uint64(1))
            # Both kinds, as apply_replication builds them: the compiled
            # order has a group tier per kind.
            sp.group_kmers = sp.group_tiles = merged
            view, proto = _view(comm, HeuristicConfig(replication_group=g),
                                spectra=sp)
            counts = view.kmer_counts(keys)
            proto.finish()
            assert np.array_equal(counts, (keys + 1).astype(np.uint32))
            assert comm.stats.get("lookup_group_hits") > 0
            return True

        run_spmd(prog, 4, engine="cooperative")

    def test_stack_counts_refuses_ids_owned_elsewhere(self):
        """A stack alone runs only its local tiers: asked for k-mers
        another rank owns it raises, where it used to answer 0; the
        pair's round answers them."""
        def prog(comm):
            view, proto = _view(comm, HeuristicConfig(universal=True))
            keys = np.arange(300, dtype=np.uint64)
            foreign = keys[mix_to_rank(keys, comm.size) != comm.rank][:50]
            assert foreign.size == 50
            with pytest.raises(SpectrumError, match="50 kmer ids"):
                view.kmers.counts(foreign)
            counts = view.kmer_counts(foreign)
            proto.finish()
            assert np.array_equal(counts, (foreign + 1).astype(np.uint32))
            return True

        assert run_spmd(prog, 3, engine="cooperative").results == [True] * 3

    def test_empty_lookup(self):
        def prog(comm):
            view, proto = _view(comm, HeuristicConfig())
            out = view.kmer_counts(np.empty(0, np.uint64))
            proto.finish()
            assert out.shape == (0,)
            return True

        run_spmd(prog, 2, engine="cooperative")


class TestCorrectDistributedEmpty:
    def test_rank_with_no_reads(self):
        cfg = ReptileConfig(kmer_length=12, tile_overlap=4)

        def prog(comm):
            sp = _spectra_for(comm.rank, comm.size)
            block = (
                ReadBlock.from_strings(["ACGTACGTACGTACGTACGTACGT"])
                if comm.rank == 0
                else ReadBlock.empty(24)
            )
            result = correct_distributed(
                comm, block, cfg, HeuristicConfig(), sp
            )
            return len(result.block)

        res = run_spmd(prog, 3, engine="cooperative")
        assert res.results == [1, 0, 0]
