"""Driver-level tests: the distributed pipeline end to end."""

import numpy as np
import pytest

from repro.core.corrector import ReptileCorrector
from repro.core.spectrum import LocalSpectrumView, build_spectra
from repro.errors import ConfigError
from repro.parallel.driver import ParallelReptile, ParallelSession
from repro.parallel.heuristics import HeuristicConfig
from repro.service import SpectrumService


def _service(config, heuristics, nranks):
    """SpectrumService with the drivers' positional order (constructing
    one starts no fleet: that waits for the first submission)."""
    return SpectrumService(config, nranks, heuristics=heuristics)


@pytest.fixture(scope="module")
def serial_reference(dataset_mod, config_mod):
    spectra = build_spectra(dataset_mod.block, config_mod)
    result = ReptileCorrector(config_mod, LocalSpectrumView(spectra)).correct_block(
        dataset_mod.block
    )
    order = np.argsort(result.block.ids)
    return result.block.codes[order]


@pytest.fixture(scope="module")
def dataset_mod():
    from repro.datasets.genome import random_genome
    from repro.datasets.reads import ErrorModel, ReadSimulator

    sim = ReadSimulator(
        genome=random_genome(5_000, seed=17), read_length=102,
        error_model=ErrorModel(base_rate=0.01), seed=18,
    )
    return sim.simulate(coverage=25)


@pytest.fixture(scope="module")
def config_mod(dataset_mod):
    from repro.config import ReptileConfig
    from repro.core.policy import derive_thresholds

    kt, tt = derive_thresholds(
        dataset_mod.coverage, 102, 12, 20, tile_step=8, error_rate=0.01
    )
    return ReptileConfig(
        kmer_length=12, tile_overlap=4, kmer_threshold=kt,
        tile_threshold=tt, chunk_size=200,
    )


ALL_MODES = {
    "base": HeuristicConfig(),
    "no_load_balance": HeuristicConfig(load_balance=False),
    "universal": HeuristicConfig(universal=True),
    "read_tables": HeuristicConfig(read_kmers=True, read_tiles=True),
    "add_remote": HeuristicConfig(
        read_kmers=True, read_tiles=True, add_remote_lookups=True
    ),
    "allgather_kmers": HeuristicConfig(allgather_kmers=True),
    "allgather_tiles": HeuristicConfig(allgather_tiles=True),
    "allgather_both": HeuristicConfig(allgather_kmers=True, allgather_tiles=True),
    "batch_reads": HeuristicConfig(batch_reads=True),
    "partial_replication": HeuristicConfig(replication_group=3),
    "paper_preferred": HeuristicConfig(universal=True, batch_reads=True),
}


@pytest.mark.parametrize("mode", list(ALL_MODES), ids=list(ALL_MODES))
def test_every_heuristic_matches_serial(mode, dataset_mod, config_mod,
                                        serial_reference):
    """The paper's heuristics change performance, never the corrections."""
    runner = ParallelReptile(
        config_mod, ALL_MODES[mode], nranks=6, engine="cooperative"
    )
    result = runner.run(dataset_mod.block)
    assert np.array_equal(result.corrected_block.codes, serial_reference)


class TestRankCounts:
    @pytest.mark.parametrize("nranks", [1, 2, 5, 9])
    def test_any_rank_count_matches_serial(
        self, nranks, dataset_mod, config_mod, serial_reference
    ):
        runner = ParallelReptile(
            config_mod, HeuristicConfig(), nranks=nranks, engine="cooperative"
        )
        result = runner.run(dataset_mod.block)
        assert np.array_equal(result.corrected_block.codes, serial_reference)

    def test_one_rank_is_serial(
        self, dataset_mod, config_mod, serial_reference
    ):
        """P = 1 is the degenerate world: serial's corrections, and a
        run that places nothing and sends nothing."""
        result = ParallelReptile(
            config_mod, HeuristicConfig(universal=True), nranks=1,
            engine="cooperative",
        ).run(dataset_mod.block)
        assert np.array_equal(result.corrected_block.codes, serial_reference)
        assert result.counter_per_rank("reads_received_in_balance").tolist() == [0]
        assert sum(s.messages_sent for s in result.stats) == 0

    @pytest.mark.parametrize(
        "make", [ParallelReptile, ParallelSession, _service],
        ids=["reptile", "session", "service"],
    )
    def test_rejects_bad_nranks(self, make, config_mod):
        """A world with no ranks is a configuration error, refused at
        construction (the CLI prints it instead of a traceback)."""
        with pytest.raises(ConfigError, match="nranks must be >= 1"):
            make(config_mod, HeuristicConfig(), 0)

    @pytest.mark.parametrize(
        "make", [ParallelReptile, ParallelSession, _service],
        ids=["reptile", "session", "service"],
    )
    def test_replication_group_must_divide_nranks(self, make, config_mod):
        """A group that does not divide the rank count is refused at
        construction, before any rank starts."""
        group2 = HeuristicConfig(replication_group=2)
        with pytest.raises(ConfigError, match="must divide"):
            make(config_mod, group2, 3)
        make(config_mod, group2, 4)


def test_session_driver_is_a_plain_service_loop():
    """``ParallelSession`` keeps no fleet of its own between calls and
    hands back the service's record type: no second run record, no
    fleet-leak guard."""
    import repro.parallel
    from repro.service import ServiceRunResult

    for name in ("close", "__enter__", "__exit__"):
        assert not hasattr(ParallelSession, name)
    assert not hasattr(repro.parallel, "SessionRunResult")
    assert ParallelSession.run.__annotations__["return"] in (
        ServiceRunResult, "ServiceRunResult"
    )


class TestResultAccessors:
    @pytest.fixture(scope="class")
    def result(self, dataset_mod, config_mod):
        return ParallelReptile(
            config_mod, HeuristicConfig(), nranks=4, engine="cooperative"
        ).run(dataset_mod.block)

    def test_reads_conserved(self, result, dataset_mod):
        assert result.reads_per_rank().sum() == len(dataset_mod.block)
        assert result.corrected_block.ids.tolist() == sorted(
            dataset_mod.block.ids.tolist()
        )

    def test_counters(self, result):
        assert result.counter_per_rank("remote_tile_lookups").sum() > 0
        assert result.counter_per_rank("tile_lookups").sum() > 0
        assert result.counter_per_rank("lookup_owned_hits").sum() > 0

    def test_table_sizes(self, result):
        assert result.table_sizes_per_rank("kmers").sum() > 0
        assert result.table_sizes_per_rank("tiles").sum() > 0

    def test_memory(self, result):
        mem = result.memory_per_rank()
        assert (mem > 0).all()

    def test_timings(self, result):
        assert (result.timing_per_rank("error_correction") >= 0).all()
        assert (result.timing_per_rank("kmer_construction") >= 0).all()

    def test_accuracy(self, result, dataset_mod):
        report = result.accuracy(dataset_mod)
        assert report.gain > 0.5
        assert result.total_corrections == report.bases_changed

    def test_corrections_per_rank_sums(self, result):
        assert result.corrections_per_rank().sum() == result.total_corrections


class TestThreadedEngine:
    def test_threaded_matches_serial(self, dataset_mod, config_mod,
                                     serial_reference):
        runner = ParallelReptile(
            config_mod, HeuristicConfig(universal=True),
            nranks=4, engine="threaded",
        )
        result = runner.run(dataset_mod.block)
        assert np.array_equal(result.corrected_block.codes, serial_reference)


class TestBuildOnly:
    def test_build_only_tables(self, dataset_mod, config_mod):
        result = ParallelReptile(
            config_mod, HeuristicConfig(), nranks=4, engine="cooperative"
        ).build_only(dataset_mod.block)
        assert result.table_sizes_per_rank("kmers").sum() > 0
        assert result.total_corrections == 0
        # All reads present (redistributed but conserved).
        assert result.reads_per_rank().sum() == len(dataset_mod.block)
