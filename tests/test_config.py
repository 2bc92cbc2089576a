"""Tests for ReptileConfig validation and file round-tripping."""

import pytest

from repro.config import ReptileConfig
from repro.errors import ConfigError


class TestValidation:
    def test_defaults_valid(self):
        cfg = ReptileConfig()
        assert cfg.tile_shape.length == 20
        assert cfg.tile_shape.step == 8

    def test_rejects_overlap_ge_k(self):
        with pytest.raises(ConfigError):
            ReptileConfig(kmer_length=8, tile_overlap=8)

    def test_rejects_wide_tile(self):
        with pytest.raises(ConfigError):
            ReptileConfig(kmer_length=20, tile_overlap=2)

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ConfigError):
            ReptileConfig(kmer_threshold=0)
        with pytest.raises(ConfigError):
            ReptileConfig(tile_threshold=0)

    def test_rejects_bad_distance(self):
        with pytest.raises(ConfigError):
            ReptileConfig(max_distance=3)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ConfigError):
            ReptileConfig(ambiguity_ratio=0.5)

    def test_rejects_bad_chunk(self):
        with pytest.raises(ConfigError):
            ReptileConfig(chunk_size=0)

    def test_rejects_bad_quality_threshold(self):
        with pytest.raises(ConfigError):
            ReptileConfig(quality_threshold=99)

    def test_rejects_bad_candidate_cap(self):
        with pytest.raises(ConfigError):
            ReptileConfig(max_candidate_positions=0)

    def test_with_updates_validates(self):
        cfg = ReptileConfig()
        cfg2 = cfg.with_updates(kmer_length=10, tile_overlap=2)
        assert cfg2.kmer_length == 10
        assert cfg.kmer_length == 12  # original untouched
        with pytest.raises(ConfigError):
            cfg.with_updates(kmer_length=2, tile_overlap=3)


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        cfg = ReptileConfig(
            fasta_file="reads.fa",
            quality_file="reads.qual",
            kmer_length=10,
            tile_overlap=2,
            kmer_threshold=5,
            tile_threshold=3,
            quality_threshold=20,
            max_candidate_positions=4,
            max_distance=2,
            ambiguity_ratio=1.5,
            max_corrections_per_read=8,
            chunk_size=500,
        )
        path = tmp_path / "reptile.conf"
        cfg.to_file(path)
        assert ReptileConfig.from_file(path) == cfg

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("# a comment\n\nKmerLen 10\nTileOverlap 2  # inline\n")
        cfg = ReptileConfig.from_file(path)
        assert cfg.kmer_length == 10
        assert cfg.tile_overlap == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("NoSuchKey 5\n")
        with pytest.raises(ConfigError):
            ReptileConfig.from_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("KmerLen twelve\n")
        with pytest.raises(ConfigError):
            ReptileConfig.from_file(path)

    @pytest.mark.parametrize("value", ["off", "FALSE", "No", "maybe"])
    def test_count_rev_comp_reads_only_flags(self, tmp_path, value):
        path = tmp_path / "c.conf"
        path.write_text(f"KmerLen 10\nCountRevComp {value}\n")
        if value == "maybe":
            with pytest.raises(ConfigError, match=r"c\.conf: line 2: .*CountRevComp"):
                ReptileConfig.from_file(path)
        else:
            assert not ReptileConfig.from_file(path).count_reverse_complement

    @pytest.mark.parametrize("flag", [True, False])
    def test_count_rev_comp_round_trips(self, tmp_path, flag):
        cfg = ReptileConfig(count_reverse_complement=flag)
        path = tmp_path / "c.conf"
        cfg.to_file(path)
        assert f"CountRevComp {flag}\n" in path.read_text()
        assert ReptileConfig.from_file(path) == cfg

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("KmerLen\n")
        with pytest.raises(ConfigError):
            ReptileConfig.from_file(path)

    def test_semantically_invalid_file_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("KmerLen 20\nTileOverlap 2\n")  # tile too wide
        with pytest.raises(ConfigError):
            ReptileConfig.from_file(path)
