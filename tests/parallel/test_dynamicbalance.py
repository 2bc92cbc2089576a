"""Tests for the dynamic master-worker allocation (prior-work ablation)."""

from collections import Counter

import numpy as np
import pytest

from repro.core.corrector import ReptileCorrector
from repro.core.spectrum import LocalSpectrumView, build_spectra
from repro.parallel import HeuristicConfig, ParallelReptile


@pytest.fixture(scope="module")
def scale():
    from repro.bench.harness import small_scale

    return small_scale(genome_size=7_000, localized_errors=True, chunk_size=100)


@pytest.fixture(scope="module")
def serial_codes(scale):
    spectra = build_spectra(scale.dataset.block, scale.config)
    res = ReptileCorrector(
        scale.config, LocalSpectrumView(spectra)
    ).correct_block(scale.dataset.block)
    return res.block.codes[np.argsort(res.block.ids)]


class TestDynamicCorrectness:
    def test_matches_serial(self, scale, serial_codes):
        res = ParallelReptile(
            scale.config, HeuristicConfig(load_balance=False), nranks=5,
            engine="cooperative",
        ).run_dynamic(scale.dataset.block)
        assert np.array_equal(res.corrected_block.codes, serial_codes)

    def test_prefetch_plan_matches_serial(self, scale, serial_codes):
        """A prefetch plan runs the blocking lookahead, so the ablation
        runs it like any other plan: the same reads and frames as
        prefetch off."""
        runs = [
            ParallelReptile(
                scale.config, HeuristicConfig(prefetch=prefetch), nranks=4,
                engine="cooperative",
            ).run_dynamic(scale.dataset.block)
            for prefetch in (True, False)
        ]
        assert np.array_equal(runs[0].corrected_block.codes, serial_codes)
        frames = [Counter(), Counter()]
        for total, run in zip(frames, runs):
            for stats in run.stats:
                total.update(stats.messages_by_tag)
        assert frames[0] == frames[1]

    def test_master_corrects_nothing(self, scale):
        res = ParallelReptile(
            scale.config, HeuristicConfig(load_balance=False), nranks=4,
            engine="cooperative",
        ).run_dynamic(scale.dataset.block)
        per_rank = res.reads_per_rank()
        assert per_rank[0] == 0
        assert per_rank.sum() == len(scale.dataset.block)

    def test_chunks_distributed_across_workers(self, scale):
        res = ParallelReptile(
            scale.config, HeuristicConfig(load_balance=False), nranks=5,
            engine="cooperative",
        ).run_dynamic(scale.dataset.block)
        corrected = res.counter_per_rank("chunks_corrected")
        assert corrected[0] == 0
        assert (corrected[1:] > 0).all()
        assigned = res.counter_per_rank("chunks_assigned")
        assert assigned[0] == corrected[1:].sum()

    def test_flattens_bursty_load(self, scale):
        """Dynamic allocation spreads error bursts like static hashing
        does — workers that hit heavy chunks simply fetch fewer."""
        res = ParallelReptile(
            scale.config, HeuristicConfig(load_balance=False), nranks=5,
            engine="cooperative",
        ).run_dynamic(scale.dataset.block)
        worker_chunks = res.counter_per_rank("chunks_corrected")[1:]
        # Chunk assignments per worker stay within a factor ~2.
        assert worker_chunks.max() <= 2 * max(1, worker_chunks.min())

    def test_single_rank_degenerates_gracefully(self, scale, serial_codes):
        res = ParallelReptile(
            scale.config, HeuristicConfig(load_balance=False), nranks=1,
            engine="cooperative",
        ).run_dynamic(scale.dataset.block)
        assert np.array_equal(res.corrected_block.codes, serial_codes)

    def test_threaded_engine(self, scale, serial_codes):
        res = ParallelReptile(
            scale.config, HeuristicConfig(load_balance=False), nranks=4,
            engine="threaded",
        ).run_dynamic(scale.dataset.block)
        assert np.array_equal(res.corrected_block.codes, serial_codes)

    def test_workers_book_their_lookup_wait(self, scale, serial_codes):
        """The round runs on the session's endpoint, so a worker's remote
        lookups book their wait in comm_kmer / comm_tile as a static
        run's do."""
        res = ParallelReptile(
            scale.config, HeuristicConfig(universal=True), nranks=4,
            engine="cooperative",
        ).run_dynamic(scale.dataset.block)
        remote = res.counter_per_rank("remote_tile_lookups")
        comm = res.timing_per_rank("comm_kmer") + res.timing_per_rank("comm_tile")
        assert (remote[1:] > 0).all()
        assert (comm[remote > 0] > 0).all(), comm
        assert np.array_equal(res.corrected_block.codes, serial_codes)


class TestUnsupportedCombinations:
    def test_a_lossy_fault_plan_is_rejected_up_front(self, scale):
        """The work queue (tags 16/17) and the ablation's lookups run
        outside the retry protocol: a dropped frame used to end the run
        in the engine's DeadlockError."""
        from repro.errors import ConfigError
        from repro.faults import FaultPlan, StallFault

        with pytest.raises(ConfigError, match="FaultPlan"):
            ParallelReptile(
                scale.config, HeuristicConfig(), nranks=4,
                faults=FaultPlan(seed=3, drop_rate=0.05),
            ).run_dynamic(scale.dataset.block)
        # A plan that only slows a rank down loses nothing: still runs.
        stalled = ParallelReptile(
            scale.config, HeuristicConfig(), nranks=4,
            faults=FaultPlan(stalls=(StallFault(rank=1, seconds=0.01),)),
        ).run_dynamic(scale.dataset.block)
        assert stalled.total_corrections > 0
