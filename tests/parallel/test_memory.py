"""Tests for per-rank memory accounting."""

import numpy as np
import pytest

from repro.bench.harness import small_scale
from repro.core.spectrum import block_kmer_ids, block_tile_ids
from repro.hashing.counthash import CountHash, _capacity_for
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.kmer.tiles import TileShape
from repro.parallel import HeuristicConfig, ParallelReptile
from repro.parallel.build import RankSpectra
from repro.parallel.lookup.stack import add_fresh
from repro.parallel.memory import RankMemoryReport
from repro.parallel.session import CorrectionSession
from repro.simmpi import run_spmd


def _spectra(n_keys=100):
    sp = RankSpectra(shape=TileShape(12, 4), rank=0, nranks=4)
    sp.kmers.add_counts(np.arange(n_keys, dtype=np.uint64))
    sp.tiles.add_counts(np.arange(n_keys // 2, dtype=np.uint64))
    return sp


class TestCapture:
    def test_construction_phase(self):
        sp = _spectra()
        sp.peak_construction_bytes = 999_999
        report = RankMemoryReport.capture(0, sp, phase="construction")
        assert report.after_construction == sp.nbytes
        assert report.construction_peak == 999_999
        assert report.table_sizes["kmers"] == 100

    def test_correction_phase_into_existing(self):
        sp = _spectra()
        report = RankMemoryReport.capture(0, sp, phase="construction")
        sp.kmers.add_counts(np.arange(100, 20_000, dtype=np.uint64))
        RankMemoryReport.capture(0, sp, phase="correction", into=report)
        assert report.after_correction > report.after_construction
        assert report.table_sizes["kmers"] == 20_000

    def test_peak(self):
        sp = _spectra()
        report = RankMemoryReport.capture(0, sp, phase="construction")
        report.after_correction = report.after_construction // 2
        assert report.peak == max(
            report.after_construction, report.construction_peak
        )

    def test_reads_bytes(self):
        from repro.io.records import ReadBlock

        block = ReadBlock.from_strings(["ACGT"] * 10)
        report = RankMemoryReport.capture(
            0, _spectra(), block=block, phase="construction"
        )
        assert report.reads_bytes == block.nbytes

    def test_unknown_phase(self):
        with pytest.raises(ValueError):
            RankMemoryReport.capture(0, _spectra(), phase="warmup")


class TestSpectraNbytes:
    def test_includes_optional_tables(self):
        sp = _spectra()
        base = sp.nbytes
        sp.reads_kmers = CountHash()
        sp.reads_kmers.add_counts(np.arange(10_000, dtype=np.uint64))
        assert sp.nbytes > base
        sizes = sp.table_sizes
        assert sizes["reads_kmers"] == 10_000


class TestSlotWidthsPerRank:
    """The paper's claim is a per-rank footprint.  With k = 12 a k-mer id
    fits 24 bits, a tile id 40, and no count of the small E.Coli profile
    comes near 2**15: every table of every rank must be 6 bytes a slot
    (sealed: a key) for k-mers and 10 for tiles.  Sealed tables — owned
    and group shards of a sharded kind — hold no free slots; hash tables
    — read tables, allgather replicas, the chunk cache — pay their
    capacity."""

    KMER_SLOT, TILE_SLOT = 6, 10
    NRANKS = 8

    @pytest.fixture(scope="class")
    def scale(self):
        return small_scale("E.Coli", genome_size=6_000)

    def _rank_spectra(self, scale, heuristics):
        block, n = scale.dataset.block, len(scale.dataset.block)
        bounds = [n * r // self.NRANKS for r in range(self.NRANKS + 1)]

        def prog(comm):
            mine = block.slice(bounds[comm.rank], bounds[comm.rank + 1])
            session = CorrectionSession(
                comm, scale.config, heuristics, retain_raw=False
            )
            session.ingest(mine)
            session.finalize()
            return session.spectra

        return run_spmd(prog, self.NRANKS, engine="cooperative").results

    @pytest.mark.parametrize(
        "heuristics, extra",
        [
            ({}, ()),
            ({"batch_reads": True}, ()),
            ({"read_kmers": True, "read_tiles": True},
             ("reads_kmers", "reads_tiles")),
            ({"allgather_kmers": True, "allgather_tiles": True}, ()),
            ({"replication_group": 2}, ("group_kmers", "group_tiles")),
        ],
        ids=["owned", "batch", "read-tables", "allgather", "group-replica"],
    )
    def test_every_table_of_every_rank(self, scale, heuristics, extra):
        sealed = {"kmers", "tiles", "group_kmers", "group_tiles"}
        if heuristics.get("allgather_kmers"):
            sealed -= {"kmers", "tiles"}
        for sp in self._rank_spectra(scale, HeuristicConfig(**heuristics)):
            assert len(sp.kmers) and len(sp.tiles)
            total = 0
            for name in ("kmers", "tiles") + extra:
                table = getattr(sp, name)
                slot = self.TILE_SLOT if "tiles" in name else self.KMER_SLOT
                if name in sealed:
                    assert isinstance(table, SortedSpectrum), (sp.rank, name)
                    assert table.nbytes == slot * len(table), (sp.rank, name)
                else:
                    assert isinstance(table, CountHash), (sp.rank, name)
                    assert table.nbytes == slot * table.capacity, (
                        sp.rank, name
                    )
                if name.startswith("reads_"):  # one add sizes and places it
                    assert table.capacity == _capacity_for(len(table))
                total += table.nbytes
            assert sp.nbytes == total

    def test_write_back_grows_at_slot_width(self, scale):
        """A reads table that *add remote lookups* writes answers back
        into grows batch by batch and stays at its slot width."""
        block, shape = scale.dataset.block, scale.config.tile_shape
        kmers, tiles = CountHash(), CountHash()
        for chunk in list(block.chunks(250))[:4]:  # grows incrementally
            for ids_of, table in (
                (block_kmer_ids, kmers), (block_tile_ids, tiles),
            ):
                ids, valid = ids_of(chunk, shape)
                ids = ids[valid]
                add_fresh(table, ids, (ids % np.uint64(40)).astype(np.uint32))
        assert kmers.nbytes == self.KMER_SLOT * kmers.capacity
        assert tiles.nbytes == self.TILE_SLOT * tiles.capacity

    def _build_only(self, scale, nranks):
        return ParallelReptile(
            scale.config, HeuristicConfig(), nranks=nranks,
            engine="cooperative",
        ).build_only(scale.dataset.block)

    #: A pair at table width: a uint32 k-mer key or a uint64 tile key,
    #: and a uint16 count.
    KMER_PAIR, TILE_PAIR = 6, 10

    def test_reported_peak_is_the_sum_the_session_noted(
        self, scale, monkeypatch
    ):
        """The peak is reached in Step II: a round's counted pairs beside
        the raw pairs, 6 B a k-mer pair and 10 B a tile pair with no load
        factor — a table slot's width (nothing else is held before the
        serving shard)."""
        noted: dict[int, int] = {}
        note_peak = CorrectionSession._note_peak

        def spy(session, *transient):
            if not any(isinstance(t, CountHash) for t in transient):
                kmer_keys = [session.raw_kmers[0], *transient[:1]]
                tile_keys = [session.raw_tiles[0], *transient[2:3]]
                by_width = self.KMER_PAIR * sum(map(len, kmer_keys)) + (
                    self.TILE_PAIR * sum(map(len, tile_keys))
                )
                rank = session.comm.rank
                noted[rank] = max(noted.get(rank, 0), by_width)
            note_peak(session, *transient)

        monkeypatch.setattr(CorrectionSession, "_note_peak", spy)
        result = self._build_only(scale, self.NRANKS)
        assert sorted(noted) == list(range(self.NRANKS))
        for report in result.reports:
            memory = report.memory
            assert memory.peak == memory.construction_peak == noted[report.rank]
            assert memory.after_construction < memory.peak

    def test_every_ingest_lands_in_the_reported_peak(
        self, scale, monkeypatch
    ):
        """A session's report carries the peak over all its ingests, not
        the one its first finalize saw: here the second, larger ingest
        sets it."""
        from repro.parallel.driver import ParallelSession
        from repro.parallel.session import IngestOp

        noted: dict[int, int] = {}
        note_peak = CorrectionSession._note_peak

        def spy(session, *transient):
            note_peak(session, *transient)
            noted[session.comm.rank] = session._peak

        monkeypatch.setattr(CorrectionSession, "_note_peak", spy)
        block = scale.dataset.block
        small = block.slice(0, len(block) // 4)

        def peaks(ops):
            out = ParallelSession(
                scale.config, HeuristicConfig(), nranks=self.NRANKS,
                engine="cooperative",
            ).run(ops)
            return {r.rank: r.memory.construction_peak for r in out.rank_reports}

        first = peaks([IngestOp(small)])
        both = peaks([IngestOp(small), IngestOp(block)])
        for rank in range(self.NRANKS):
            assert both[rank] == noted[rank] > first[rank]

    def test_peak_falls_as_ranks_are_added(self, scale):
        peaks = [
            int(self._build_only(scale, nranks).memory_per_rank().max())
            for nranks in (2, 4, 8)
        ]
        assert peaks[0] > peaks[1] > peaks[2]
