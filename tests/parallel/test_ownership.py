"""Tests for owning-rank assignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.records import ReadBlock
from repro.kmer.tiles import TileShape
from repro.parallel.ownership import (
    KeySpace,
    key_spaces,
    sequence_hash,
    sequence_owner,
)

RANKS = [1, 2, 3, 5, 7, 8, 64]


class TestKeyOwnership:
    def test_range(self):
        space = KeySpace(24)
        owners = space.owners(space.keys(np.arange(1000, dtype=np.uint64)), 7)
        assert owners.min() >= 0
        assert owners.max() < 7

    def test_kmer_and_tile_share_rule(self):
        """Both kinds own by one rule at their own width: an owner reads
        only where a key lies in its space."""
        kmers, tiles = key_spaces(TileShape(12, 4))
        assert (kmers.bits, tiles.bits) == (24, 40)
        assert (kmers.dtype, tiles.dtype) == (np.uint32, np.uint64)
        keys = np.arange(0, 1 << 24, 997, dtype=np.uint64)
        for nranks in RANKS:
            assert np.array_equal(
                kmers.owners(keys, nranks),
                tiles.owners(keys << np.uint64(16), nranks),
            )

    def test_deterministic(self):
        ids = np.array([1, 2, 3], dtype=np.uint64)
        space = KeySpace(40)
        assert np.array_equal(
            space.owners(space.keys(ids), 4), space.owners(space.keys(ids), 4)
        )

    def test_scalar(self):
        """A single id keys and owns as a one-element array does."""
        space = KeySpace(24)
        key = space.keys(7)
        assert key == space.keys(np.array([7], np.uint64))[0]
        assert space.owners(key, 3) == space.owners(np.array([key]), 3)[0]

    def test_rejects_bad_width_and_ranks(self):
        with pytest.raises(ValueError):
            KeySpace(0)
        with pytest.raises(ValueError):
            KeySpace(65)
        with pytest.raises(ValueError):
            KeySpace(24).owners(np.zeros(1, np.uint32), 0)


class TestKeyRule:
    """The rule's three promises: the mix is a bijection of its width,
    owners are monotone in the key and lie in [0, P), and the cuts of an
    ascending key array agree with the per-key owner."""

    def test_mix_is_a_bijection_at_12_bits(self):
        space = KeySpace(12)
        keys = space.keys(np.arange(1 << 12, dtype=np.uint64))
        assert keys.dtype == np.uint32
        assert np.array_equal(np.sort(keys), np.arange(1 << 12))

    @settings(max_examples=30, deadline=None)
    @given(
        bits=st.sampled_from([24, 40]),
        ids=st.lists(st.integers(0, 2**40 - 1), min_size=1, max_size=300),
    )
    def test_mix_is_injective_on_samples(self, bits, ids):
        space = KeySpace(bits)
        ids = np.unique(np.array(ids, dtype=np.uint64) >> np.uint64(40 - bits))
        keys = space.keys(ids)
        assert np.unique(keys).shape == ids.shape
        assert int(keys.max()) < 1 << bits

    @settings(max_examples=60, deadline=None)
    @given(
        bits=st.sampled_from([12, 24, 40, 64]),
        nranks=st.sampled_from(RANKS),
        raw=st.lists(st.integers(0, 2**64 - 1), max_size=300),
    )
    def test_owners_monotone_and_cuts_agree(self, bits, nranks, raw):
        space = KeySpace(bits)
        keys = np.sort(
            (np.array(raw, dtype=np.uint64) >> np.uint64(64 - bits))
            .astype(space.dtype)
        )
        owners = space.owners(keys, nranks)
        assert ((owners >= 0) & (owners < nranks)).all()
        assert (np.diff(owners) >= 0).all()
        cuts = space.cuts(keys, nranks)
        assert cuts.shape == (nranks + 1,)
        np.testing.assert_array_equal(
            cuts, np.searchsorted(owners, np.arange(nranks + 1))
        )

    @pytest.mark.parametrize("nranks", RANKS)
    def test_every_rank_owns_an_equal_range(self, nranks):
        space = KeySpace(12)
        sizes = np.diff(space.cuts(np.arange(1 << 12, dtype=np.uint32), nranks))
        assert sizes.max() - sizes.min() <= 1

    def test_a_narrow_array_in_a_wide_space(self):
        """uint32 keys of a 40-bit space: the owners past 2**32 get none."""
        space = KeySpace(40)
        keys = np.array([0, 2**31, 2**32 - 1], dtype=np.uint32)
        np.testing.assert_array_equal(
            space.cuts(keys, 4), np.searchsorted(space.owners(keys, 4), range(5))
        )


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
