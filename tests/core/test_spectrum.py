"""Tests for spectrum construction and the lookup views."""

import numpy as np
import pytest

from repro.config import ReptileConfig
from repro.core.spectrum import (
    LocalSpectrumView,
    SpectrumPair,
    SpectrumView,
    block_kmer_ids,
    block_tile_ids,
    build_spectra,
    window_counts,
)
from repro.io.records import ReadBlock
from repro.kmer.codec import (
    block_window_ids,
    encode_sequence,
    reverse_complement_id,
    window_ids,
)


@pytest.fixture
def small_cfg():
    return ReptileConfig(
        kmer_length=4, tile_overlap=2, kmer_threshold=2, tile_threshold=2
    )


class TestBlockExtraction:
    def test_kmer_ids_every_position(self, small_cfg):
        block = ReadBlock.from_strings(["ACGTACGT"])
        ids, valid = block_kmer_ids(block, small_cfg.tile_shape)
        ref, _ = window_ids(encode_sequence("ACGTACGT"), 4)
        assert np.array_equal(ids[0], ref)
        assert valid.all()

    def test_tile_ids_at_stride(self, small_cfg):
        block = ReadBlock.from_strings(["ACGTACGTACGT"])
        ids, valid = block_tile_ids(block, small_cfg.tile_shape)
        ref, _ = window_ids(encode_sequence("ACGTACGTACGT"), 6)
        assert np.array_equal(ids[0], ref[::2])


class TestWindowCounts:
    """Step II's counts against ``np.unique`` of the reference ids."""

    @staticmethod
    def _reference(blocks, w, step, reverse_complement):
        flat = []
        for block in blocks:
            ids, valid = block_window_ids(block.codes, block.lengths, w, step)
            flat.append(ids[valid])
            if reverse_complement:
                flat.append(reverse_complement_id(ids[valid], w))
        return np.unique(np.concatenate(flat), return_counts=True)

    @pytest.mark.parametrize("reverse_complement", [False, True])
    def test_counts_equal_the_reference(self, reverse_complement):
        rng = np.random.default_rng(3)
        seqs = [
            "".join(rng.choice(list("ACGTN"), int(n), p=[0.245] * 4 + [0.02]))
            for n in rng.integers(10, 60, 40)
        ]
        blocks = [ReadBlock.from_strings(seqs[:25]), ReadBlock.from_strings(seqs[25:])]
        shape = ReptileConfig(kmer_length=12, tile_overlap=4).tile_shape
        kmers, tiles = window_counts(blocks, shape, reverse_complement)
        for (keys, counts), (w, step) in (
            (kmers, (shape.k, 1)), (tiles, (shape.length, shape.step))
        ):
            ref_keys, ref_counts = self._reference(
                blocks, w, step, reverse_complement
            )
            assert np.array_equal(keys, ref_keys)
            assert np.array_equal(counts, ref_counts)
        assert kmers[0].dtype == np.uint32

    def test_no_blocks(self, small_cfg):
        kmers, tiles = window_counts([], small_cfg.tile_shape, True)
        assert kmers[0].size == kmers[1].size == tiles[0].size == 0


class TestBuildSpectra:
    def test_counts_match_bruteforce(self, small_cfg):
        seqs = ["ACGTACGT", "ACGTTTTT", "GGGGACGT"]
        block = ReadBlock.from_strings(seqs)
        spectra = build_spectra(block, small_cfg, apply_threshold=False)
        # Brute force k-mer counting.
        ref: dict[int, int] = {}
        for s in seqs:
            ids, valid = window_ids(encode_sequence(s), 4)
            for kid, ok in zip(ids.tolist(), valid.tolist()):
                if ok:
                    ref[kid] = ref.get(kid, 0) + 1
        assert len(spectra.kmers) == len(ref)
        for kid, count in ref.items():
            assert spectra.kmers.get(kid) == count

    def test_threshold_applied(self, small_cfg):
        block = ReadBlock.from_strings(["ACGTACGT", "ACGTACGT", "TTTTTTTA"])
        spectra = build_spectra(block, small_cfg)
        # k-mers unique to the singleton read are gone.
        kid, _ = window_ids(encode_sequence("TTTA"), 4)
        assert spectra.kmers.get(int(kid[0])) == 0

    def test_multiple_blocks(self, small_cfg):
        b1 = ReadBlock.from_strings(["ACGTACGT"])
        b2 = ReadBlock.from_strings(["ACGTACGT"])
        spectra = build_spectra([b1, b2], small_cfg, apply_threshold=False)
        kid, _ = window_ids(encode_sequence("ACGT"), 4)
        assert spectra.kmers.get(int(kid[0])) == 4  # 2 per read x 2 reads

    def test_ambiguous_bases_skipped(self, small_cfg):
        block = ReadBlock.from_strings(["ACGNACGT"])
        spectra = build_spectra(block, small_cfg, apply_threshold=False)
        keys, _ = spectra.kmers.items()
        # Only windows not touching N: positions 4..4 -> 1 valid k-mer.
        assert len(keys) == 1

    def test_accumulate_block_incremental(self, small_cfg):
        """A list of blocks counts as their concatenation."""
        block = ReadBlock.from_strings(["ACGTAC"])
        spectra = build_spectra([block, block], small_cfg, apply_threshold=False)
        kid, _ = window_ids(encode_sequence("ACGT"), 4)
        assert spectra.kmers.get(int(kid[0])) == 2

    def test_nbytes(self, small_cfg):
        spectra = build_spectra(
            ReadBlock.from_strings(["ACGTACGT"]), small_cfg, apply_threshold=False
        )
        assert spectra.nbytes == spectra.kmers.nbytes + spectra.tiles.nbytes


class TestFootprint:
    """Slots are as narrow as what they hold: a k-mer id is ``2k`` bits, a
    tile id ``2(2k - overlap)``, and the flag-and-count field is 2 bytes
    until a count reaches 2**15."""

    @staticmethod
    def _slot_bytes(table):
        assert table.nbytes % table.capacity == 0
        return table.nbytes // table.capacity

    def test_small_ecoli_profile_is_6_and_10_bytes_a_slot(self):
        from repro.bench.harness import small_scale

        scale = small_scale("E.Coli", genome_size=6_000)
        block, config = scale.dataset.block, scale.config
        grown = build_spectra(
            list(block.chunks(500)), config, apply_threshold=False
        )
        for spectra in (
            build_spectra(block, config),
            build_spectra(block, config, apply_threshold=False),
            grown,
        ):
            assert len(spectra.kmers) and len(spectra.tiles)
            assert self._slot_bytes(spectra.kmers) == 6  # 24-bit ids
            assert self._slot_bytes(spectra.tiles) == 10  # 40-bit ids
            assert spectra.nbytes == (
                6 * spectra.kmers.capacity + 10 * spectra.tiles.capacity
            )

    @pytest.mark.parametrize("k, overlap, kmer_slot", [(16, 0, 6), (17, 2, 10)])
    def test_key_width_follows_k(self, k, overlap, kmer_slot):
        """4**16 - 1 is the last id a uint32 slot holds."""
        cfg = ReptileConfig(
            kmer_length=k, tile_overlap=overlap,
            kmer_threshold=1, tile_threshold=1,
        )
        spectra = build_spectra(
            ReadBlock.from_strings(["T" * 40, "ACGT" * 10]), cfg
        )
        assert spectra.kmers.get(4**k - 1) == 40 - k + 1  # the all-T k-mer
        assert self._slot_bytes(spectra.kmers) == kmer_slot
        assert self._slot_bytes(spectra.tiles) == 10

    def test_count_width_follows_coverage(self, small_cfg):
        """A repeat seen 2**15 times is ordinary at real coverage."""
        block = ReadBlock.from_strings(["ACGTAC"] * 2**13)
        for seen in range(1, 5):
            spectra = build_spectra(
                [block] * seen, small_cfg, apply_threshold=False
            )
            assert spectra.kmers.get(27) == seen * 2**13  # ACGT
            assert self._slot_bytes(spectra.kmers) == (6 if seen < 4 else 8)


class TestLocalSpectrumView:
    def test_lookup_and_stats(self, small_cfg):
        block = ReadBlock.from_strings(["ACGTACGT"] * 3)
        spectra = build_spectra(block, small_cfg, apply_threshold=False)
        view = LocalSpectrumView(spectra)
        kid, _ = window_ids(encode_sequence("ACGT"), 4)
        counts = view.kmer_counts(np.array([kid[0], 0], dtype=np.uint64))
        assert counts[0] > 0
        assert view.stats.kmer_lookups == 2
        assert view.stats.kmer_hits >= 1

    def test_satisfies_protocol(self, small_cfg):
        spectra = SpectrumPair(shape=small_cfg.tile_shape)
        assert isinstance(LocalSpectrumView(spectra), SpectrumView)

    def test_tile_counts(self, small_cfg):
        block = ReadBlock.from_strings(["ACGTACGTACGT"] * 2)
        spectra = build_spectra(block, small_cfg, apply_threshold=False)
        view = LocalSpectrumView(spectra)
        tid, _ = window_ids(encode_sequence("ACGTAC"), 6)
        assert view.tile_counts(np.array([tid[0]], dtype=np.uint64))[0] >= 2
        assert view.stats.tile_lookups == 1
