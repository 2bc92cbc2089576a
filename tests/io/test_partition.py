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
    quality window has to widen, one rank parses no quality byte twice,
    and it parses the records it lacks, not its neighbours' ranges."""

    N_READS = 240

    @staticmethod
    def write_skewed(tmp_path, n):
        """Uniform fasta records, quality records short–long–short, so a
        rank's quality byte range starts late in the first part of the
        file (low straddle) and ends early in the last (high straddle)."""
        seqs = ["ACGT" * 10] * n
        quals = [
            [40 if n // 3 <= i < 2 * n // 3 else 7] * 40 for i in range(n)
        ]
        fa, qual = tmp_path / "r.fa", tmp_path / "r.qual"
        write_fasta(fa, seqs)
        write_quality(qual, quals)
        return fa, qual, quals

    @pytest.fixture
    def skewed_pair(self, tmp_path):
        return self.write_skewed(tmp_path, self.N_READS)

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

    @pytest.fixture
    def parsed_bytes(self, monkeypatch):
        """Per call of ``load_rank_block``, the quality bytes the scanner
        turns into records: a scan stops early, so the ``(lo, hi)`` ranges
        it is handed overstate this."""
        from repro.io import scan

        total = [0]
        real = scan._parse

        def counting(fh, base, kind, buf, final):
            piece, used = real(fh, base, kind, buf, final)
            if kind == "quality":
                total[0] += used
            return piece, used

        monkeypatch.setattr(scan, "_parse", counting)

        def load(fa, qual, nranks, rank):
            total[0] = 0
            block = load_rank_block(fa, qual, nranks, rank)
            return block, total[0]

        return load

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

    def test_widening_parses_what_a_rank_lacks(self, tmp_path,
                                               parsed_bytes):
        """Scaled until a neighbour's quality range is several pieces:
        each rank parses its own range, at most twice the bytes of the
        records it lacks and one first step — not a neighbour's range."""
        from repro.io.partition import FIRST_STEP
        from repro.io.scan import PIECE_BYTES

        fa, qual, _ = self.write_skewed(tmp_path, 24_000)
        data = qual.read_bytes()
        heads = np.flatnonzero(np.frombuffer(data, np.uint8) == ord(">"))
        spans = np.diff(np.append(heads, len(data)))
        nranks = 8
        assert len(data) // nranks > 4 * PIECE_BYTES
        lacked_any = 0
        for rank in range(nranks):
            block, parsed = parsed_bytes(fa, qual, nranks, rank)
            start, end = partition_fasta(qual, nranks)[rank]
            # The ids are 1..n in file order: record `id` is spans[id - 1].
            at = heads[block.ids - 1]
            outside = (at < start) | (at >= end)
            lacked = int(spans[block.ids - 1][outside].sum())
            lacked_any += lacked > 0
            assert parsed <= (end - start) + 2 * lacked + FIRST_STEP, rank
        assert lacked_any >= 2

    def test_uniform_pair_parses_the_file_once(self, tmp_path, parsed_bytes):
        """100-base reads with one- and two-digit scores, as Step I reads
        them in the benchmark: the ranges do not line up, yet the fleet
        parses the file plus at most one first step a rank."""
        from repro.io.partition import FIRST_STEP

        rng = np.random.default_rng(3)
        n, nranks = 2_000, 8
        fa, qual = tmp_path / "r.fa", tmp_path / "r.qual"
        write_fasta(fa, ["ACGT" * 25] * n)
        write_quality(qual, rng.integers(2, 41, (n, 100)))
        total = loaded = 0
        for rank in range(nranks):
            block, parsed = parsed_bytes(fa, qual, nranks, rank)
            total += parsed
            loaded += len(block)
        assert loaded == n
        assert total <= qual.stat().st_size + nranks * FIRST_STEP
