"""Tests for Step I: byte partitioning and per-rank loading."""

import numpy as np
import pytest

from repro.io.fasta import write_fasta
from repro.io.partition import (
    align_to_record,
    byte_partition,
    load_rank_block,
    partition_fasta,
)
from repro.io.quality import write_quality


class TestBytePartition:
    def test_covers_file(self):
        parts = [byte_partition(100, 4, r) for r in range(4)]
        assert parts[0][0] == 0
        assert parts[-1][1] == 100
        for (a, b), (c, _) in zip(parts, parts[1:]):
            assert b == c

    def test_single_rank(self):
        assert byte_partition(100, 1, 0) == (0, 100)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            byte_partition(100, 0, 0)
        with pytest.raises(ValueError):
            byte_partition(100, 4, 4)


class TestAlignToRecord:
    def test_zero_is_aligned(self, tmp_path):
        path = tmp_path / "a.fa"
        write_fasta(path, ["ACGT"])
        assert align_to_record(path, 0) == 0

    def test_aligns_to_next_header(self, tmp_path):
        path = tmp_path / "a.fa"
        write_fasta(path, ["ACGT", "TTTT"])
        # Offset 1 is inside record 1; next header is ">2" at byte 8.
        data = path.read_bytes()
        expect = data.index(b">2")
        assert align_to_record(path, 1) == expect

    def test_offset_exactly_at_header(self, tmp_path):
        path = tmp_path / "a.fa"
        write_fasta(path, ["ACGT", "TTTT"])
        pos = path.read_bytes().index(b">2")
        assert align_to_record(path, pos) == pos

    def test_past_last_header_returns_size(self, tmp_path):
        path = tmp_path / "a.fa"
        write_fasta(path, ["ACGT"])
        size = path.stat().st_size
        assert align_to_record(path, size - 2) == size
        assert align_to_record(path, size + 10) == size


class TestPartitionFasta:
    def test_disjoint_cover(self, tmp_path):
        path = tmp_path / "many.fa"
        write_fasta(path, ["ACGT" * (i % 4 + 1) for i in range(100)])
        ranges = partition_fasta(path, 8)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == path.stat().st_size
        for (a, b), (c, _) in zip(ranges, ranges[1:]):
            assert b == c

    def test_more_ranks_than_records(self, tmp_path):
        path = tmp_path / "two.fa"
        write_fasta(path, ["ACGT", "TTTT"])
        ranges = partition_fasta(path, 8)
        # Some ranks get empty ranges; totals still cover the file.
        assert sum(hi - lo for lo, hi in ranges) == path.stat().st_size


class TestLoadRankBlock:
    @pytest.fixture
    def file_pair(self, tmp_path):
        rng = np.random.default_rng(0)
        seqs = ["".join("ACGT"[c] for c in rng.integers(0, 4, 30))
                for _ in range(60)]
        quals = [rng.integers(2, 41, 30).tolist() for _ in range(60)]
        fa, qual = tmp_path / "r.fa", tmp_path / "r.qual"
        write_fasta(fa, seqs)
        write_quality(qual, quals)
        return fa, qual, seqs, quals

    def test_every_read_loaded_once(self, file_pair):
        fa, qual, seqs, _ = file_pair
        all_ids = []
        for rank in range(5):
            block = load_rank_block(fa, qual, 5, rank)
            all_ids.extend(block.ids.tolist())
        assert sorted(all_ids) == list(range(1, 61))

    def test_sequences_and_qualities_line_up(self, file_pair):
        fa, qual, seqs, quals = file_pair
        for rank in range(3):
            block = load_rank_block(fa, qual, 3, rank)
            for i, rid in enumerate(block.ids.tolist()):
                L = int(block.lengths[i])
                assert block.to_strings()[i] == seqs[rid - 1]
                assert block.quals[i, :L].tolist() == quals[rid - 1]

    def test_without_quality_file(self, file_pair):
        fa, _, seqs, _ = file_pair
        block = load_rank_block(fa, None, 2, 0)
        assert len(block) > 0
        assert (block.quals[0, : block.lengths[0]] > 0).all()

    def test_single_rank_gets_everything(self, file_pair):
        fa, qual, seqs, _ = file_pair
        block = load_rank_block(fa, qual, 1, 0)
        assert len(block) == 60


class TestQualityScannedOnce:
    """Step I lines the two files up by sequence number; however far the
    quality window has to widen, one rank parses no quality byte twice."""

    N_READS = 240

    @pytest.fixture
    def skewed_pair(self, tmp_path):
        """Uniform fasta records, quality records short–long–short, so a
        rank's quality byte range starts late in the first part of the
        file (low straddle) and ends early in the last (high straddle)."""
        n = self.N_READS
        seqs = ["ACGT" * 10] * n
        quals = [
            [40 if n // 3 <= i < 2 * n // 3 else 7] * 40 for i in range(n)
        ]
        fa, qual = tmp_path / "r.fa", tmp_path / "r.qual"
        write_fasta(fa, seqs)
        write_quality(qual, quals)
        return fa, qual, quals

    @pytest.fixture
    def parsed(self, monkeypatch):
        """The quality byte ranges ``load_rank_block`` hands the scanner
        (which reads exactly those bytes, each once), in order."""
        from repro.io import partition

        seen: list[tuple[int, int]] = []
        real = partition.scan_records

        def recording(fh, lo, hi, kind):
            if kind == "quality":
                seen.append((lo, hi))
            return real(fh, lo, hi, kind)

        monkeypatch.setattr(partition, "scan_records", recording)
        return seen

    @staticmethod
    def assert_disjoint(ranges):
        ranges = sorted(ranges)
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi <= lo, ranges

    @pytest.mark.parametrize("nranks", [1, 2, 8, 17])
    def test_no_record_parsed_twice(self, skewed_pair, parsed, nranks):
        from repro.io.quality import read_quality_range

        fa, qual, quals = skewed_pair
        low = high = 0
        loaded = []
        for rank in range(nranks):
            del parsed[:]
            block = load_rank_block(fa, qual, nranks, rank)
            self.assert_disjoint(parsed)
            ids = block.ids.tolist()
            loaded.extend(ids)
            for i, rid in enumerate(ids):
                assert block.quals[i, :40].tolist() == quals[rid - 1]
            # Which boundaries did this rank's reads straddle?
            start, end = partition_fasta(qual, nranks)[rank]
            own = [rid for rid, _ in read_quality_range(qual, start, end)]
            if ids and own:
                low += ids[0] < own[0]
                high += ids[-1] > own[-1]
        assert loaded == list(range(1, self.N_READS + 1))
        # Two ranks share one boundary, which is off in one direction.
        if nranks == 2:
            assert low or high
        if nranks > 2:
            assert low and high

    def test_missing_sequence_number_still_raises(self, skewed_pair, parsed):
        from repro.errors import FileFormatError

        fa, qual, quals = skewed_pair
        lines = qual.read_text().splitlines(keepends=True)
        gone = 2 * 100  # record 101: header + row
        qual.write_text("".join(lines[:gone] + lines[gone + 2:]))
        raised = 0
        for rank in range(8):
            del parsed[:]
            try:
                block = load_rank_block(fa, qual, 8, rank)
            except FileFormatError as exc:
                assert "lacks sequence numbers [101]" in str(exc)
                raised += 1
            else:
                assert 101 not in block.ids.tolist()
            self.assert_disjoint(parsed)
        assert raised == 1
