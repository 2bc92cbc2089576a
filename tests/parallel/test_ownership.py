"""Tests for owning-rank assignment."""

import numpy as np
import pytest

from repro.io.records import ReadBlock
from repro.parallel.ownership import (
    kmer_owner,
    sequence_hash,
    sequence_owner,
    tile_owner,
)


class TestKeyOwnership:
    def test_range(self):
        ids = np.arange(1000, dtype=np.uint64)
        owners = kmer_owner(ids, 7)
        assert owners.min() >= 0
        assert owners.max() < 7

    def test_kmer_and_tile_share_rule(self):
        ids = np.arange(100, dtype=np.uint64)
        assert np.array_equal(kmer_owner(ids, 5), tile_owner(ids, 5))

    def test_deterministic(self):
        ids = np.array([1, 2, 3], dtype=np.uint64)
        assert np.array_equal(kmer_owner(ids, 4), kmer_owner(ids, 4))

    def test_scalar(self):
        assert isinstance(kmer_owner(7, 3), int)


class TestSequenceHash:
    def test_equal_reads_hash_equal(self):
        a = ReadBlock.from_strings(["ACGTACGT", "TTTTAAAA"])
        b = ReadBlock.from_strings(["ACGTACGT", "TTTTAAAA"])
        assert np.array_equal(sequence_hash(a), sequence_hash(b))

    def test_different_reads_hash_differently(self):
        block = ReadBlock.from_strings(["ACGTACGT", "ACGTACGA"])
        h = sequence_hash(block)
        assert h[0] != h[1]

    def test_padding_invariance(self):
        """The same read hashes identically whatever the block width."""
        narrow = ReadBlock.from_strings(["ACGT"])
        wide = ReadBlock.from_strings(["ACGT", "AAAAAAAAAA"])
        assert sequence_hash(narrow)[0] == sequence_hash(wide)[0]

    def test_ids_do_not_affect_hash(self):
        a = ReadBlock.from_strings(["ACGT"], ids=[1])
        b = ReadBlock.from_strings(["ACGT"], ids=[999])
        assert sequence_hash(a)[0] == sequence_hash(b)[0]

    @pytest.mark.parametrize("length", [31, 32, 33, 64, 65])
    def test_word_boundaries_width_invariant(self, length):
        """A read ending just before, at or after a 32-base word edge
        hashes the same in a block of its own width or a wider one."""
        rng = np.random.default_rng(length)
        read = "".join("ACGT"[c] for c in rng.integers(0, 4, length))
        alone = sequence_hash(ReadBlock.from_strings([read]))[0]
        for extra in (1, 31, 32, 100):
            wide = ReadBlock.from_strings([read, "C" * (length + extra)])
            assert sequence_hash(wide)[0] == alone, extra

    def test_same_hash_alone_in_block_and_selected(self):
        rng = np.random.default_rng(3)
        seqs = [
            "".join("ACGTN"[c] for c in rng.integers(0, 5, n))
            for n in (5, 32, 40, 64, 90, 100, 33)
        ]
        block = ReadBlock.from_strings(seqs)
        whole = sequence_hash(block)
        for i, seq in enumerate(seqs):
            assert sequence_hash(ReadBlock.from_strings([seq]))[0] == whole[i]
        rows = np.array([6, 0, 3])
        assert np.array_equal(sequence_hash(block.select(rows)), whole[rows])

    def test_ambiguous_reads_hash_deterministically(self):
        seqs = ["ACGNNTTA", "NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN", "ACGTN" * 20]
        first = sequence_hash(ReadBlock.from_strings(seqs))
        again = sequence_hash(ReadBlock.from_strings(list(reversed(seqs))))
        assert np.array_equal(first, again[::-1])

    def test_golden_hashes(self):
        """Pinned: a change to placement must be deliberate (and re-pin
        the benchmark ledger, whose load-balance counts follow it)."""
        block = ReadBlock.from_strings([
            "ACGTACGTAC", "A" * 33, "ACGTNACGTTGCA", "GATTACA" * 10, "T" * 64,
        ])
        assert [hex(int(h)) for h in sequence_hash(block)] == [
            "0xd92b27174c214662",
            "0xa042f468d393290c",
            "0xc2be921752457057",
            "0x661114849b04b237",
            "0xd29f20ab4f558fb1",
        ]


class TestSequenceOwner:
    def test_equal_reads_same_owner(self):
        rng = np.random.default_rng(2)
        seqs = ["".join("ACGT"[c] for c in rng.integers(0, 4, 70))
                for _ in range(50)]
        block = ReadBlock.from_strings(seqs + ["ACGT"] + seqs[::-1])
        owners = sequence_owner(block, 7)
        assert np.array_equal(owners[:50], owners[51:][::-1])

    def test_spreads_reads(self):
        rng = np.random.default_rng(0)
        seqs = ["".join("ACGT"[c] for c in rng.integers(0, 4, 50))
                for _ in range(2000)]
        block = ReadBlock.from_strings(seqs)
        owners = sequence_owner(block, 8)
        counts = np.bincount(owners, minlength=8)
        assert counts.min() > 150  # roughly even

    def test_contiguous_bursts_dispersed(self):
        """Reads adjacent in the file land on unrelated ranks."""
        rng = np.random.default_rng(1)
        seqs = ["".join("ACGT"[c] for c in rng.integers(0, 4, 30))
                for _ in range(64)]
        owners = sequence_owner(ReadBlock.from_strings(seqs), 8)
        # A contiguous run of 16 reads should hit many distinct ranks.
        assert len(set(owners[:16].tolist())) >= 4

    def test_rejects_bad_nranks(self):
        with pytest.raises(ValueError):
            sequence_owner(ReadBlock.from_strings(["AC"]), 0)
