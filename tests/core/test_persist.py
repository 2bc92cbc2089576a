"""Tests for spectra persistence."""

import numpy as np
import pytest

import repro.core.persist
from repro.core.corrector import ReptileCorrector
from repro.core.persist import load_spectra, save_spectra
from repro.core.spectrum import LocalSpectrumView, build_spectra
from repro.errors import SpectrumError


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    from repro.bench.harness import small_scale

    scale = small_scale(genome_size=5_000)
    spectra = build_spectra(scale.dataset.block, scale.config)
    path = tmp_path_factory.mktemp("spectra") / "ecoli.npz"
    save_spectra(spectra, path)
    return scale, spectra, path


class TestRoundtrip:
    def test_tables_identical(self, built):
        _, spectra, path = built
        loaded = load_spectra(path)
        assert loaded.shape == spectra.shape
        for attr in ("kmers", "tiles"):
            orig = getattr(spectra, attr)
            got = getattr(loaded, attr)
            assert len(got) == len(orig)
            keys, counts = orig.items()
            assert np.array_equal(got.lookup(keys), counts)

    def test_footprint_identical_after_reload(self, built):
        """A thresholded spectrum is sized by the one rule; reloading it
        applies the same rule to the same entries, slot widths included."""
        _, spectra, path = built
        loaded = load_spectra(path)
        for attr in ("kmers", "tiles"):
            orig, got = getattr(spectra, attr), getattr(loaded, attr)
            assert len(orig) > 0
            assert got.capacity == orig.capacity
            assert got.nbytes == orig.nbytes
        assert loaded.nbytes == spectra.nbytes

    @pytest.mark.parametrize("n_kmers, n_tiles", [(1_200, 700), (38, 39)])
    def test_reload_is_not_presized_past_the_rule(
        self, n_kmers, n_tiles, tmp_path
    ):
        """1,200 entries fit 2,048 slots; twice the entry count rounded up
        to a power of two would be 4,096."""
        from repro.core.spectrum import SpectrumPair
        from repro.hashing.counthash import CountHash
        from repro.kmer.tiles import TileShape

        def table(n, top_key):
            keys = np.linspace(0, top_key, n).astype(np.uint64)
            return CountHash.from_counts(keys, keys % np.uint64(90) + 1)

        pair = SpectrumPair(
            shape=TileShape(12, 4),
            kmers=table(n_kmers, 4**12 - 1),
            tiles=table(n_tiles, 4**20 - 1),
        )
        path = tmp_path / "sized.npz"
        save_spectra(pair, path)
        loaded = load_spectra(path)
        for orig, got in ((pair.kmers, loaded.kmers), (pair.tiles, loaded.tiles)):
            assert (got.capacity, got.nbytes) == (orig.capacity, orig.nbytes)
            assert got.mean_displacement == orig.mean_displacement

    def test_corrections_identical_after_reload(self, built):
        scale, spectra, path = built
        loaded = load_spectra(path)
        a = ReptileCorrector(
            scale.config, LocalSpectrumView(spectra)
        ).correct_block(scale.dataset.block)
        b = ReptileCorrector(
            scale.config, LocalSpectrumView(loaded)
        ).correct_block(scale.dataset.block)
        assert np.array_equal(a.block.codes, b.block.codes)

    def test_pairs_stored_ascending_at_table_width(self, built):
        """k = 12 k-mer keys fit 32 bits and every count here fits 16:
        the file holds the pairs as a table holds them."""
        _, spectra, path = built
        with np.load(path) as data:
            keys, counts = data["kmer_keys"], data["kmer_counts"]
            assert keys.dtype == np.uint32
            assert counts.dtype == data["tile_counts"].dtype == np.uint16
            assert np.all(np.diff(keys.astype(np.int64)) > 0)
            assert np.all(np.diff(data["tile_keys"].astype(np.uint64)) > 0)
            assert str(data["format"]) == "repro.spectra/1"

    def test_wide_bundle_still_loads(self, built, tmp_path):
        """Files written before pairs were stored at table width hold
        uint64 keys and uint32 counts; they load to the same tables."""
        _, spectra, _ = built
        path = tmp_path / "wide.npz"
        kmer_keys, kmer_counts = spectra.kmers.items()
        tile_keys, tile_counts = spectra.tiles.items()
        np.savez_compressed(
            path, format=np.array("repro.spectra/1"),
            k=np.array(spectra.shape.k), overlap=np.array(spectra.shape.overlap),
            kmer_keys=kmer_keys, kmer_counts=kmer_counts,
            tile_keys=tile_keys, tile_counts=tile_counts,
        )
        assert kmer_keys.dtype == np.uint64
        loaded = load_spectra(path)
        for attr in ("kmers", "tiles"):
            orig, got = getattr(spectra, attr), getattr(loaded, attr)
            keys, counts = orig.items()
            assert np.array_equal(got.lookup(keys), counts)
            assert got.nbytes == orig.nbytes

    def test_empty_spectra(self, tmp_path):
        from repro.core.spectrum import SpectrumPair
        from repro.kmer.tiles import TileShape

        empty = SpectrumPair(shape=TileShape(8, 2))
        path = tmp_path / "empty.npz"
        save_spectra(empty, path)
        loaded = load_spectra(path)
        assert len(loaded.kmers) == 0
        assert loaded.shape.k == 8

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, format=np.array("something/else"),
                 k=np.array(8), overlap=np.array(2),
                 kmer_keys=np.empty(0, np.uint64),
                 kmer_counts=np.empty(0, np.uint32),
                 tile_keys=np.empty(0, np.uint64),
                 tile_counts=np.empty(0, np.uint32))
        with pytest.raises(SpectrumError):
            load_spectra(path)


def test_no_recovery_bundle():
    """Crash recovery replicates in memory only; persistence holds
    spectra and session checkpoints, nothing else."""
    for name in ("save_recovery_bundle", "load_recovery_bundle",
                 "_RECOVERY_FORMAT"):
        assert not hasattr(repro.core.persist, name)
