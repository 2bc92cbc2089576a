"""Reptile configuration.

The paper: "The input to parallel Reptile consists of a configuration file,
which specifies the fasta file and the quality file to be used for the error
correction" — plus the algorithm parameters (k-mer length, tile step,
thresholds, quality cutoffs) and the chunk size used by batched reading.
:class:`ReptileConfig` is that file as a validated dataclass; the on-disk
format is Reptile's ``key value`` lines with ``#`` comments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from repro.errors import ConfigError
from repro.kmer.tiles import TileShape


_FLAGS = dict.fromkeys(("1", "true", "yes", "on"), True)
_FLAGS.update(dict.fromkeys(("0", "false", "no", "off"), False))


def _parse_flag(value: str) -> bool:
    """A boolean file value: 1/0, true/false, yes/no or on/off, any case."""
    if value.lower() not in _FLAGS:
        raise ValueError(f"expected 1/0, true/false, yes/no or on/off, got {value!r}")
    return _FLAGS[value.lower()]


@dataclass(frozen=True)
class ReptileConfig:
    """All parameters of a (serial or parallel) Reptile run.

    Attributes
    ----------
    fasta_file / quality_file:
        Input paths; empty strings for purely in-memory runs.
    kmer_length:
        k.  Tiles span ``2k - tile_overlap`` bases (must be <= 32).
    tile_overlap:
        Overlap between the two k-mers of a tile; the tiling stride is
        ``k - tile_overlap``.
    kmer_threshold / tile_threshold:
        Minimum spectrum count for a k-mer / tile to be *solid*.  Entries
        below the threshold are removed from the spectra after the global
        count exchange (Step III).
    quality_threshold:
        Bases with quality below this are substitution-candidate positions.
    max_candidate_positions:
        Cap on low-quality positions considered per tile (bounds the
        candidate explosion; lowest-quality positions win).
    max_distance:
        Maximum Hamming distance of a candidate tile (1 or 2).
    ambiguity_ratio:
        A correction is accepted only if the best candidate's count is at
        least this multiple of the runner-up's.
    max_corrections_per_read:
        Reads needing more substitutions than this are left uncorrected.
    chunk_size:
        The paper's ``BatchSize`` (Step I "read in chunks by each rank"):
        reads per *batch reads table* round, dynamic work unit and
        service placement part.  Not a Step IV grain: a rank corrects
        its share as one wavefront.
    count_reverse_complement:
        Also count every window's reverse complement into the spectra.
        Real sequencing reads come from both genome strands, so a read's
        k-mers may only be supported by reverse-strand neighbours; Reptile
        therefore counts both orientations.  Off by default (the synthetic
        datasets are single-stranded unless asked otherwise).
    """

    fasta_file: str = ""
    quality_file: str = ""
    kmer_length: int = 12
    tile_overlap: int = 4
    kmer_threshold: int = 3
    tile_threshold: int = 2
    quality_threshold: int = 25
    max_candidate_positions: int = 6
    max_distance: int = 1
    ambiguity_ratio: float = 2.0
    max_corrections_per_read: int = 6
    chunk_size: int = 2000
    count_reverse_complement: bool = False

    def __post_init__(self) -> None:
        # TileShape validates k/overlap/width coherence.
        try:
            TileShape(self.kmer_length, self.tile_overlap)
        except Exception as exc:  # CodecError -> ConfigError at this boundary
            raise ConfigError(str(exc)) from exc
        if self.kmer_threshold < 1 or self.tile_threshold < 1:
            raise ConfigError("thresholds must be >= 1")
        if self.max_distance not in (1, 2):
            raise ConfigError("max_distance must be 1 or 2")
        if self.ambiguity_ratio < 1.0:
            raise ConfigError("ambiguity_ratio must be >= 1.0")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be >= 1")
        if self.max_candidate_positions < 1:
            raise ConfigError("max_candidate_positions must be >= 1")
        if self.max_corrections_per_read < 0:
            raise ConfigError("max_corrections_per_read must be >= 0")
        if not 0 <= self.quality_threshold <= 60:
            raise ConfigError("quality_threshold must be in [0, 60]")

    @property
    def tile_shape(self) -> TileShape:
        """The tiling geometry implied by k and the overlap."""
        return TileShape(self.kmer_length, self.tile_overlap)

    def with_updates(self, **kwargs) -> "ReptileConfig":
        """A copy with the given fields replaced (validated again)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Reptile-style "key value" config files
    # ------------------------------------------------------------------
    _FILE_KEYS = {
        "InFaFile": ("fasta_file", str),
        "IQFile": ("quality_file", str),
        "KmerLen": ("kmer_length", int),
        "TileOverlap": ("tile_overlap", int),
        "KmerThreshold": ("kmer_threshold", int),
        "TileThreshold": ("tile_threshold", int),
        "QThreshold": ("quality_threshold", int),
        "MaxBadQPerKmer": ("max_candidate_positions", int),
        "HDMax": ("max_distance", int),
        "TRatio": ("ambiguity_ratio", float),
        "MaxErrPerRead": ("max_corrections_per_read", int),
        "BatchSize": ("chunk_size", int),
        "CountRevComp": ("count_reverse_complement", _parse_flag),
    }

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "ReptileConfig":
        """Parse a Reptile-style configuration file."""
        values: dict[str, object] = {}
        with open(path, "r", encoding="ascii") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split(None, 1)
                if len(parts) != 2:
                    raise ConfigError(
                        f"{path}: line {lineno}: expected 'Key value', got {raw!r}"
                    )
                key, val = parts
                if key not in cls._FILE_KEYS:
                    raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
                attr, typ = cls._FILE_KEYS[key]
                try:
                    values[attr] = typ(val)
                except ValueError as exc:
                    raise ConfigError(
                        f"{path}: line {lineno}: bad value for {key}: {exc}"
                    ) from None
        return cls(**values)

    def to_file(self, path: str | os.PathLike) -> None:
        """Write the configuration in the file format ``from_file`` reads."""
        by_attr = {attr: key for key, (attr, _) in self._FILE_KEYS.items()}
        with open(path, "w", encoding="ascii") as fh:
            fh.write("# Reptile configuration (repro reproduction)\n")
            for f in fields(self):
                key = by_attr.get(f.name)
                if key is None:
                    continue
                value = getattr(self, f.name)
                if value == "":
                    continue  # empty paths fall back to the default on read
                fh.write(f"{key} {value}\n")
