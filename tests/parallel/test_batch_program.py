"""The batch rank program: one-shot runs are an op list on the same
:class:`SessionOpRunner` the service drives."""

import pickle

import numpy as np
import pytest

from repro.bench.harness import small_scale
from repro.errors import SessionError
from repro.io.fasta import write_fasta
from repro.io.quality import write_quality
from repro.io.records import ReadBlock
from repro.parallel.driver import BatchProgram, ParallelReptile, ParallelSession
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.ownership import sequence_owner
from repro.parallel.session import (
    CorrectionSession,
    CorrectOp,
    IngestOp,
    SessionOpRunner,
)
from repro.simmpi.engine import run_spmd

P = 3


@pytest.fixture(scope="module")
def scale():
    return small_scale("E.Coli", genome_size=2_500, chunk_size=100)


@pytest.fixture(scope="module")
def files(scale, tmp_path_factory):
    block = scale.dataset.block
    tmp = tmp_path_factory.mktemp("reads")
    fasta, quality = str(tmp / "r.fa"), str(tmp / "r.qual")
    write_fasta(fasta, block.to_strings())
    write_quality(
        quality,
        [block.quals[i, : block.lengths[i]].tolist() for i in range(len(block))],
    )
    return fasta, quality


@pytest.fixture
def ops_seen(monkeypatch):
    """Every op any rank's runner executes, as ``(rank, op type)``."""
    seen = []
    run_op = SessionOpRunner.run_op

    def recording(self, op, *args):
        seen.append((self.comm.rank, type(op).__name__))
        return run_op(self, op, *args)

    monkeypatch.setattr(SessionOpRunner, "run_op", recording)
    return seen


def per_rank(seen):
    return [[kind for rank, kind in seen if rank == r] for r in range(P)]


class TestEveryDriverRunsThroughTheRunner:
    @pytest.fixture
    def driver(self, scale):
        return ParallelReptile(scale.config, HeuristicConfig(), nranks=P)

    def test_run(self, driver, scale, ops_seen):
        driver.run(scale.dataset.block)
        assert per_rank(ops_seen) == [["IngestOp", "CorrectOp"]] * P

    def test_run_files(self, driver, files, ops_seen):
        driver.run_files(*files)
        assert per_rank(ops_seen) == [["IngestOp", "CorrectOp"]] * P

    def test_build_only(self, driver, scale, ops_seen):
        driver.build_only(scale.dataset.block)
        assert per_rank(ops_seen) == [["IngestOp"]] * P

    def test_run_dynamic(self, driver, scale, ops_seen):
        driver.run_dynamic(scale.dataset.block)
        assert per_rank(ops_seen) == [["IngestOp", "DynamicCorrectOp"]] * P

    def test_session_driver(self, scale, ops_seen):
        block = scale.dataset.block
        ParallelSession(scale.config, HeuristicConfig(), nranks=P).run(
            [IngestOp(block), CorrectOp(block)]
        )
        assert per_rank(ops_seen) == [["IngestOp", "CorrectOp"]] * P


class TestPickle:
    """The process engine ships the program to spawned interpreters."""

    def shipped(self, program):
        copy = pickle.loads(pickle.dumps(program))
        assert (copy.config, copy.heuristics) == (
            program.config, program.heuristics
        )
        assert copy.correction == program.correction
        return copy

    def test_in_memory_source(self, scale):
        block = scale.dataset.block
        program = BatchProgram(scale.config, HeuristicConfig(), block)
        copy = self.shipped(program)
        for mine, theirs in zip(block.to_wire(), copy.source.to_wire()):
            assert np.array_equal(mine, theirs)
        reference = ParallelReptile(
            scale.config, HeuristicConfig(), nranks=2
        ).run(block)
        for report, expected in zip(run_spmd(copy, 2).results, reference.reports):
            assert np.array_equal(report.block.codes, expected.block.codes)

    def test_file_source(self, scale, files):
        program = BatchProgram(scale.config, HeuristicConfig(), files, None)
        copy = self.shipped(program)
        assert copy.source == files
        reports = run_spmd(copy, 2).results
        assert sum(len(r.block) for r in reports) == len(scale.dataset.block)


def test_a_rank_that_raises_mid_correction_still_closes_its_session(
    scale, monkeypatch
):
    sessions = {}
    correct = CorrectionSession.correct

    def failing(self, block, **kwargs):
        sessions[self.comm.rank] = self
        if self.comm.rank == 1:
            raise RuntimeError("rank 1 fails in Step IV")
        return correct(self, block, **kwargs)

    monkeypatch.setattr(CorrectionSession, "correct", failing)
    with pytest.raises(RuntimeError, match="rank 1 fails"):
        ParallelReptile(scale.config, HeuristicConfig(), nranks=P).run(
            scale.dataset.block
        )
    with pytest.raises(SessionError, match="closed session"):
        sessions[1].ingest(ReadBlock.empty())


def test_build_only_returns_the_placed_reads_uncorrected(scale):
    block = scale.dataset.block
    result = ParallelReptile(
        scale.config, HeuristicConfig(), nranks=P
    ).build_only(block)
    owners = sequence_owner(block, P)
    by_id = {int(i): row for row, i in enumerate(block.ids)}
    for rank, report in enumerate(result.reports):
        assert sorted(report.block.ids.tolist()) == \
            block.ids[owners == rank].tolist()
        rows = [by_id[int(i)] for i in report.block.ids]
        assert np.array_equal(report.block.codes, block.codes[rows])
        assert report.corrections_per_read.tolist() == [0] * len(report.block)
        assert (report.reads_reverted, report.tiles_examined,
                report.tiles_below_threshold) == (0, 0, 0)
        assert "error_correction" not in report.timings
        assert report.memory.after_correction == 0
        assert report.table_sizes["kmers"] > 0


def test_rank_timings_are_whole_run_totals(scale):
    """A batch report carries every phase of the run, not the correct
    op's delta (which has no input, placement or construction in it)."""
    result = ParallelReptile(scale.config, HeuristicConfig(), nranks=P).run(
        scale.dataset.block
    )
    for report in result.reports:
        assert {"read_input", "load_balance", "kmer_construction",
                "error_correction"} <= set(report.timings)
