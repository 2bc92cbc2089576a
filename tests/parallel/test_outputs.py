"""Tests for writing corrected outputs back to files."""

import numpy as np
import pytest

from repro.io.fasta import read_fasta
from repro.io.quality import read_quality
from repro.parallel import HeuristicConfig, ParallelReptile


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    from repro.bench.harness import small_scale

    scale = small_scale(genome_size=5_000, chunk_size=200)
    result = ParallelReptile(
        scale.config, HeuristicConfig(), nranks=3, engine="cooperative"
    ).run(scale.dataset.block)
    return scale, result


class TestWriteOutputs:
    def test_fasta_roundtrip(self, run, tmp_path):
        scale, result = run
        out = tmp_path / "corrected.fa"
        n = result.write_outputs(str(out))
        assert n == len(scale.dataset.block)
        records = list(read_fasta(out))
        block = result.corrected_block
        assert [rid for rid, _ in records] == block.ids.tolist()
        assert [seq for _, seq in records] == block.to_strings()

    def test_quality_preserved(self, run, tmp_path):
        scale, result = run
        fa = tmp_path / "c.fa"
        qual = tmp_path / "c.qual"
        result.write_outputs(str(fa), str(qual))
        block = result.corrected_block
        for i, (rid, scores) in enumerate(read_quality(qual)):
            assert rid == int(block.ids[i])
            L = int(block.lengths[i])
            assert scores.tolist() == block.quals[i, :L].tolist()

    def test_sequence_numbers_align_with_input(self, run, tmp_path):
        """Output record k corresponds to input record k — the property
        downstream tools depend on."""
        scale, result = run
        out = tmp_path / "aligned.fa"
        result.write_outputs(str(out))
        in_ids = sorted(scale.dataset.block.ids.tolist())
        out_ids = [rid for rid, _ in read_fasta(out)]
        assert out_ids == in_ids

    def test_accepts_pathlib_paths(self, run, tmp_path):
        """Regression: write_outputs takes pathlib.Path, not just str."""
        scale, result = run
        fa = tmp_path / "path.fa"
        qual = tmp_path / "path.qual"
        n = result.write_outputs(fa, qual)
        assert n == len(scale.dataset.block)
        str_fa = tmp_path / "str.fa"
        result.write_outputs(str(str_fa))
        assert fa.read_text() == str_fa.read_text()
        assert qual.stat().st_size > 0


def _gapped_inputs(block, tmp_path):
    """``block`` as a fasta + quality pair named 10, 20, 30, ... — names
    need only be distinct."""
    names = [10 * (i + 1) for i in range(len(block))]
    rows = [
        " ".join(map(str, block.quals[i, :length].tolist()))
        for i, length in enumerate(block.lengths)
    ]
    fa, qual = tmp_path / "gapped.fa", tmp_path / "gapped.qual"
    fa.write_text("".join(
        f">{name}\n{seq}\n" for name, seq in zip(names, block.to_strings())
    ))
    qual.write_text("".join(
        f">{name}\n{row}\n" for name, row in zip(names, rows)
    ))
    return names, fa, qual


class TestGappedNames:
    """Output records keep their input names, even when those skip
    numbers: renaming them ``first, first + 1, ...`` would misalign the
    output with its input."""

    def test_write_outputs_round_trip(self, run, tmp_path):
        scale, _ = run
        names, fa, qual = _gapped_inputs(scale.dataset.block, tmp_path)
        result = ParallelReptile(
            scale.config, HeuristicConfig(), nranks=3, engine="cooperative"
        ).run_files(str(fa), str(qual))
        out_fa, out_qual = tmp_path / "out.fa", tmp_path / "out.qual"
        assert result.write_outputs(out_fa, out_qual) == len(names)
        records = list(read_fasta(out_fa))
        assert [rid for rid, _ in records] == names
        assert [seq for _, seq in records] == (
            result.corrected_block.to_strings()
        )
        written, given = list(read_quality(out_qual)), list(read_quality(qual))
        assert [rid for rid, _ in written] == names
        for (_, got), (_, want) in zip(written, given, strict=True):
            assert got.tolist() == want.tolist()

    def test_correct_files_round_trip(self, run, tmp_path):
        from repro.core.pipeline import correct_files

        scale, _ = run
        names, fa, qual = _gapped_inputs(scale.dataset.block, tmp_path)
        out = tmp_path / "serial.fa"
        outcome = correct_files(
            str(fa), str(qual), str(out), scale.config, auto_thresholds=False
        )
        records = list(read_fasta(out))
        assert [rid for rid, _ in records] == names
        assert [seq for _, seq in records] == outcome.block.to_strings()
