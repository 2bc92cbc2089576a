"""White-box tests of the corrector's internal machinery."""

import numpy as np
import pytest

from repro.config import ReptileConfig
from repro.core.corrector import ReptileCorrector
from repro.core.spectrum import LocalSpectrumView, SpectrumPair
from repro.kmer.bitpack import pack_block, substitute_many, unpack_block
from repro.kmer.codec import decode_sequence, encode_sequence, window_ids


def _corrector(k=4, overlap=2, **cfg_kwargs):
    cfg = ReptileConfig(
        kmer_length=k, tile_overlap=overlap,
        kmer_threshold=2, tile_threshold=2, **cfg_kwargs,
    )
    spectra = SpectrumPair(shape=cfg.tile_shape)
    return ReptileCorrector(cfg, LocalSpectrumView(spectra))


class TestTileStartMatrix:
    def test_regular_tiling(self):
        corr = _corrector()  # tile length 6, stride 2
        starts = corr._tile_start_matrix(np.array([12]))
        assert starts[0].tolist() == [0, 2, 4, 6]

    def test_final_shifted_tile_appended(self):
        corr = _corrector()
        # Length 13: regular starts 0,2,4,6; final start 13-6=7 appended.
        starts = corr._tile_start_matrix(np.array([13]))
        assert starts[0].tolist() == [0, 2, 4, 6, 7]

    def test_mixed_lengths_padded(self):
        corr = _corrector()
        starts = corr._tile_start_matrix(np.array([13, 6, 4]))
        assert starts.shape == (3, 5)
        assert starts[1].tolist() == [0, -1, -1, -1, -1]
        assert (starts[2] == -1).all()  # too short for any tile

    def test_every_base_covered(self):
        corr = _corrector()
        for L in range(6, 30):
            starts = corr._tile_start_matrix(np.array([L]))[0]
            starts = starts[starts >= 0]
            covered = np.zeros(L, dtype=bool)
            for s in starts:
                covered[s : s + 6] = True
            assert covered.all(), f"length {L} leaves bases uncovered"


class TestGatherTiles:
    def test_ids_match_window_ids(self):
        corr = _corrector()
        seq = "ACGTTGCAAC"
        codes = encode_sequence(seq)[None, :].copy()
        rows = np.array([0, 0])
        starts = np.array([0, 4])
        ids, valid = corr._gather_tiles(codes, rows, starts)
        ref, _ = window_ids(encode_sequence(seq), 6)
        assert valid.all()
        assert ids.tolist() == [int(ref[0]), int(ref[4])]

    def test_invalid_base_flagged(self):
        corr = _corrector()
        codes = encode_sequence("ACGNACGTAC")[None, :].copy()
        ids, valid = corr._gather_tiles(
            codes, np.array([0, 0]), np.array([0, 4])
        )
        assert valid.tolist() == [False, True]


def _substitute(codes, old, new):
    """One site at (row 0, start 0) through the batched kernel; returns
    the bases it changed and the packed words after the write."""
    packed = pack_block(codes, np.array([codes.shape[1]]))
    applied = substitute_many(
        packed, np.array([0]), np.array([0]),
        np.array([old], dtype=np.uint64), np.array([new], dtype=np.uint64), 6,
    )
    return int(applied[0]), packed


class TestSubstitute:
    def test_writes_only_differing_bases(self):
        seq = "ACGTTG"
        codes = encode_sequence(seq)[None, :].copy()
        old, _ = window_ids(encode_sequence(seq), 6)
        new, _ = window_ids(encode_sequence("ACCTTA"), 6)
        applied, packed = _substitute(codes, old[0], new[0])
        assert applied == 2
        assert decode_sequence(unpack_block(packed)[0]) == "ACCTTA"

    def test_identical_tiles_zero(self):
        codes = encode_sequence("ACGTTG")[None, :].copy()
        old, _ = window_ids(encode_sequence("ACGTTG"), 6)
        applied, packed = _substitute(codes, old[0], old[0])
        assert applied == 0
        assert decode_sequence(unpack_block(packed)[0]) == "ACGTTG"


class TestGeometryGenerality:
    """The corrector works across tiling geometries, not just k=12/o=4."""

    @pytest.mark.parametrize("k,overlap", [
        (8, 0), (8, 4), (10, 2), (12, 4), (12, 8), (14, 6), (16, 12),
    ])
    def test_correction_across_geometries(self, k, overlap):
        from repro.core.policy import derive_thresholds
        from repro.core.spectrum import build_spectra
        from repro.core.metrics import evaluate_correction
        from repro.datasets.genome import random_genome
        from repro.datasets.reads import ErrorModel, ReadSimulator

        tile_len = 2 * k - overlap
        step = k - overlap
        sim = ReadSimulator(
            genome=random_genome(4_000, seed=k * 100 + overlap),
            read_length=90,
            error_model=ErrorModel(base_rate=0.008),
            seed=k,
        )
        ds = sim.simulate(coverage=30)
        kt, tt = derive_thresholds(30, 90, k, tile_len, tile_step=step,
                                   error_rate=0.008)
        cfg = ReptileConfig(
            kmer_length=k, tile_overlap=overlap,
            kmer_threshold=kt, tile_threshold=tt,
        )
        spectra = build_spectra(ds.block, cfg)
        result = ReptileCorrector(
            cfg, LocalSpectrumView(spectra)
        ).correct_block(ds.block)
        report = evaluate_correction(ds, result.block)
        assert report.gain > 0.4, f"k={k} o={overlap}: gain {report.gain:.2f}"
        assert report.precision > 0.9
