"""Tests for the ReadBlock structure-of-arrays."""

import numpy as np
import pytest

from repro.io.records import DEFAULT_QUALITY, ReadBlock
from repro.kmer.codec import INVALID_CODE, decode_sequence


class TestFromStrings:
    def test_basic(self):
        b = ReadBlock.from_strings(["ACGT", "TTAA"])
        assert len(b) == 2
        assert b.ids.tolist() == [1, 2]
        assert b.lengths.tolist() == [4, 4]
        assert b.to_strings() == ["ACGT", "TTAA"]

    def test_explicit_ids(self):
        b = ReadBlock.from_strings(["AC"], ids=[42])
        assert b.ids.tolist() == [42]

    def test_variable_lengths_padded(self):
        b = ReadBlock.from_strings(["ACGTACGT", "AC"])
        assert b.max_length == 8
        assert (b.codes[1, 2:] == INVALID_CODE).all()
        assert (b.quals[1, 2:] == 0).all()
        assert b.to_strings() == ["ACGTACGT", "AC"]

    def test_default_quality(self):
        b = ReadBlock.from_strings(["ACG"])
        assert (b.quals[0, :3] == DEFAULT_QUALITY).all()

    def test_explicit_quality(self):
        b = ReadBlock.from_strings(["ACG"], quals=[[1, 2, 3]])
        assert b.quals[0, :3].tolist() == [1, 2, 3]

    def test_quality_length_mismatch(self):
        with pytest.raises(ValueError):
            ReadBlock.from_strings(["ACG"], quals=[[1, 2]])

    def test_ambiguous_bases(self):
        b = ReadBlock.from_strings(["ACNGT"])
        assert b.codes[0, 2] == INVALID_CODE
        assert b.to_strings() == ["ACNGT"]


class TestToStrings:
    """The block is decoded by one table lookup; the reference is
    ``decode_sequence`` read by read."""

    @staticmethod
    def _per_read(block: ReadBlock) -> list[str]:
        return [
            decode_sequence(block.codes[i, : int(block.lengths[i])])
            for i in range(len(block))
        ]

    def test_ragged_lengths_and_ambiguous_codes(self):
        rng = np.random.default_rng(3)
        n, width = 200, 37
        codes = rng.integers(0, 4, (n, width)).astype(np.uint8)
        # Every non-ACGT byte reads 'N', not only INVALID_CODE.
        codes[rng.random((n, width)) < 0.1] = INVALID_CODE
        codes[rng.random((n, width)) < 0.05] = 4
        lengths = rng.integers(0, width + 1, n)
        lengths[:3] = [0, width, 1]
        block = ReadBlock(
            ids=np.arange(n), codes=codes, lengths=lengths,
            quals=np.zeros((n, width), np.uint8),
        )
        got = block.to_strings()
        assert got == self._per_read(block)
        assert [len(s) for s in got] == lengths.tolist()
        assert "N" in "".join(got)

    def test_zero_reads(self):
        assert ReadBlock.empty(width=12).to_strings() == []

    def test_zero_width(self):
        block = ReadBlock(
            ids=np.arange(3), codes=np.empty((3, 0), np.uint8),
            lengths=np.zeros(3, np.int32), quals=np.empty((3, 0), np.uint8),
        )
        assert block.to_strings() == self._per_read(block) == ["", "", ""]


class TestValidation:
    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            ReadBlock(
                ids=np.array([1, 2]),
                codes=np.zeros((1, 4), np.uint8),
                lengths=np.array([4]),
                quals=np.zeros((1, 4), np.uint8),
            )

    def test_codes_quals_shape_mismatch(self):
        with pytest.raises(ValueError):
            ReadBlock(
                ids=np.array([1]),
                codes=np.zeros((1, 4), np.uint8),
                lengths=np.array([4]),
                quals=np.zeros((1, 5), np.uint8),
            )


class TestOperations:
    def test_empty(self):
        b = ReadBlock.empty()
        assert len(b) == 0
        assert b.nbytes >= 0

    def test_select(self):
        b = ReadBlock.from_strings(["AAAA", "CCCC", "GGGG"])
        sel = b.select(np.array([2, 0]))
        assert sel.to_strings() == ["GGGG", "AAAA"]
        assert sel.ids.tolist() == [3, 1]

    def test_slice_is_view(self):
        b = ReadBlock.from_strings(["AAAA", "CCCC", "GGGG"])
        s = b.slice(1, 3)
        assert s.to_strings() == ["CCCC", "GGGG"]
        assert np.shares_memory(s.codes, b.codes)

    def test_concat(self):
        a = ReadBlock.from_strings(["AAAA"], ids=[1])
        b = ReadBlock.from_strings(["CCCCCC"], ids=[2])
        merged = ReadBlock.concat([a, b])
        assert len(merged) == 2
        assert merged.max_length == 6
        assert merged.to_strings() == ["AAAA", "CCCCCC"]

    def test_concat_empty_list(self):
        assert len(ReadBlock.concat([])) == 0

    def test_concat_skips_empty_blocks(self):
        a = ReadBlock.from_strings(["ACGT"])
        merged = ReadBlock.concat([ReadBlock.empty(), a])
        assert len(merged) == 1

    def test_chunks(self):
        b = ReadBlock.from_strings(["AAAA"] * 7)
        chunks = list(b.chunks(3))
        assert [len(c) for c in chunks] == [3, 3, 1]
        assert chunks[2].ids.tolist() == [7]

    def test_chunks_rejects_nonpositive(self):
        b = ReadBlock.from_strings(["AAAA"])
        with pytest.raises(ValueError):
            list(b.chunks(0))

    def test_nbytes(self):
        b = ReadBlock.from_strings(["ACGT"] * 10)
        assert b.nbytes == (
            b.ids.nbytes + b.codes.nbytes + b.lengths.nbytes + b.quals.nbytes
        )
