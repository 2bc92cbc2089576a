"""Tests for the two-thread (worker + communication thread) Step IV mode."""

import numpy as np
import pytest

from repro.core.corrector import ReptileCorrector
from repro.core.spectrum import LocalSpectrumView, build_spectra
from repro.hashing.counthash import CountHash
from repro.hashing.inthash import mix_to_rank
from repro.parallel import HeuristicConfig, ParallelReptile
from repro.parallel.commthread import CommThreadProtocol
from repro.simmpi import run_spmd


def _owned_tables(rank, nranks, universe=400):
    keys = np.arange(universe, dtype=np.uint64)
    mine = keys[mix_to_rank(keys, nranks) == rank]
    kmers, tiles = CountHash(), CountHash()
    kmers.add_counts(mine, mine + np.uint64(1))
    tiles.add_counts(mine, mine + np.uint64(2))
    return kmers, tiles


class TestProtocol:
    @pytest.mark.parametrize("universal", [False, True])
    def test_cross_rank_lookup(self, universal):
        def prog(comm):
            kmers, tiles = _owned_tables(comm.rank, comm.size)
            proto = CommThreadProtocol(comm, kmers, tiles, universal=universal)
            keys = np.arange(200, dtype=np.uint64)
            owners = np.asarray(mix_to_rank(keys, comm.size))
            sel = owners != comm.rank
            counts, tcounts = proto.request_counts(
                keys[sel], owners[sel], keys[sel], owners[sel]
            )
            assert np.array_equal(counts, (keys[sel] + 1).astype(np.uint32))
            assert np.array_equal(tcounts, (keys[sel] + 2).astype(np.uint32))
            proto.finish()
            return comm.stats.get("requests_served")

        res = run_spmd(prog, 4, engine="threaded")
        assert sum(res.results) > 0

    def test_finish_idempotent(self):
        def prog(comm):
            proto = CommThreadProtocol(comm, CountHash(), CountHash())
            proto.finish()
            proto.finish()
            return True

        assert run_spmd(prog, 3, engine="threaded").results == [True] * 3

    def test_repeated_requests(self):
        def prog(comm):
            kmers, tiles = _owned_tables(comm.rank, comm.size)
            proto = CommThreadProtocol(comm, kmers, tiles, universal=True)
            keys = np.arange(100, dtype=np.uint64)
            owners = np.asarray(mix_to_rank(keys, comm.size))
            sel = owners != comm.rank
            for _ in range(10):
                counts, _ = proto.request_counts(
                    keys[sel], owners[sel], keys[:0], owners[:0]
                )
                assert np.array_equal(
                    counts, (keys[sel] + 1).astype(np.uint32)
                )
            proto.finish()
            return True

        assert run_spmd(prog, 3, engine="threaded").results == [True] * 3


class TestDriverIntegration:
    @pytest.fixture(scope="class")
    def scale(self):
        from repro.bench.harness import small_scale

        return small_scale(genome_size=6_000, chunk_size=150)

    @pytest.fixture(scope="class")
    def serial_codes(self, scale):
        spectra = build_spectra(scale.dataset.block, scale.config)
        res = ReptileCorrector(
            scale.config, LocalSpectrumView(spectra)
        ).correct_block(scale.dataset.block)
        return res.block.codes[np.argsort(res.block.ids)]

    def test_comm_thread_matches_serial(self, scale, serial_codes):
        result = ParallelReptile(
            scale.config, HeuristicConfig(universal=True), nranks=4,
            engine="threaded", comm_thread=True,
        ).run(scale.dataset.block)
        assert np.array_equal(result.corrected_block.codes, serial_codes)

    def test_comm_thread_matches_pump_mode(self, scale):
        pump = ParallelReptile(
            scale.config, HeuristicConfig(), nranks=3, engine="threaded"
        ).run(scale.dataset.block)
        twothread = ParallelReptile(
            scale.config, HeuristicConfig(), nranks=3,
            engine="threaded", comm_thread=True,
        ).run(scale.dataset.block)
        assert np.array_equal(
            pump.corrected_block.codes, twothread.corrected_block.codes
        )

    def test_requires_threaded_engine(self, scale):
        with pytest.raises(ValueError, match="threaded or process engine"):
            ParallelReptile(
                scale.config, HeuristicConfig(), nranks=2,
                engine="cooperative", comm_thread=True,
            )
