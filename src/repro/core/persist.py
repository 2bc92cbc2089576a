"""Saving and loading spectra.

Spectrum construction reads the whole dataset; correction may be re-run
many times (different thresholds were already applied, but quality
cutoffs, ambiguity ratios or read subsets change between runs).
Persisting the built spectra — as a compressed ``.npz`` of flat key/count
arrays plus the tiling geometry — makes the construction a one-time cost.

The on-disk format is deliberately dumb: four numpy arrays and two
integers.  Anything that can read npz can consume the spectra.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.spectrum import SpectrumPair
from repro.errors import SpectrumError
from repro.hashing.counthash import CountHash, merge_pairs
from repro.kmer.tiles import TileShape

#: Format marker stored in the file.
_FORMAT = "repro.spectra/1"

#: Format marker of a correction-session checkpoint (one rank's raw,
#: unfiltered spectrum state plus its read-table key unions, as keys).
_SESSION_FORMAT = "repro.session/2"


def _load_table(data, kind: str) -> CountHash:
    """The ``kind`` table of an open bundle.  The first add sizes and places
    it, so a reloaded table is no larger than the same entries built in
    place (and a bundle with repeated keys is tolerated)."""
    table = CountHash()
    table.add_counts(data[f"{kind}_keys"], data[f"{kind}_counts"])
    return table


def save_spectra(spectra: SpectrumPair, path: str | os.PathLike) -> None:
    """Write a spectrum pair as compressed npz, each table as ascending
    pairs at table width."""
    kmer_keys, kmer_counts = merge_pairs([spectra.kmers.items()])
    tile_keys, tile_counts = merge_pairs([spectra.tiles.items()])
    np.savez_compressed(
        path,
        format=np.array(_FORMAT),
        k=np.array(spectra.shape.k),
        overlap=np.array(spectra.shape.overlap),
        kmer_keys=kmer_keys,
        kmer_counts=kmer_counts,
        tile_keys=tile_keys,
        tile_counts=tile_counts,
    )


def load_spectra(path: str | os.PathLike) -> SpectrumPair:
    """Read a spectrum pair written by :func:`save_spectra`."""
    with np.load(path) as data:
        fmt = str(data["format"])
        if fmt != _FORMAT:
            raise SpectrumError(
                f"{path}: unsupported spectra format {fmt!r} "
                f"(expected {_FORMAT!r})"
            )
        shape = TileShape(int(data["k"]), int(data["overlap"]))
        kmers = _load_table(data, "kmer")
        tiles = _load_table(data, "tile")
    return SpectrumPair(shape=shape, kmers=kmers, tiles=tiles)


def save_session_bundle(
    path: str | os.PathLike,
    *,
    k: int,
    overlap: int,
    nranks: int,
    rank: int,
    n_ingests: int,
    count_reverse_complement: bool,
    kmer_keys: np.ndarray,
    kmer_counts: np.ndarray,
    tile_keys: np.ndarray,
    tile_counts: np.ndarray,
    read_kmer_keys: np.ndarray,
    read_tile_keys: np.ndarray,
) -> None:
    """Write one rank's correction-session checkpoint as compressed npz.

    The bundle holds the *raw* (unfiltered) owned tables — thresholds are
    lossy, so resumable sessions persist the pre-filter counts — plus the
    accumulated read-table key unions, so a resumed session can re-derive
    its complete serving state with one finalize.  It holds keys, not
    ids, and records whether reverse complements were counted."""
    np.savez_compressed(
        path,
        format=np.array(_SESSION_FORMAT),
        k=np.array(k),
        overlap=np.array(overlap),
        nranks=np.array(nranks),
        rank=np.array(rank),
        n_ingests=np.array(n_ingests),
        count_reverse_complement=np.array(count_reverse_complement),
        kmer_keys=kmer_keys,
        kmer_counts=kmer_counts,
        tile_keys=tile_keys,
        tile_counts=tile_counts,
        read_kmer_keys=read_kmer_keys,
        read_tile_keys=read_tile_keys,
    )


def load_session_bundle(path: str | os.PathLike) -> dict:
    """Read a bundle written by :func:`save_session_bundle`.

    Returns a dict with ``kmers``/``tiles`` as the raw ascending
    ``(keys, counts)`` pairs at table width (a bundle with repeated keys
    is tolerated), the ``read_kmer_keys``/``read_tile_keys`` unions, and
    the geometry/identity scalars for validation.  Another format (a
    ``/1`` bundle held ids) is a SpectrumError naming both."""
    with np.load(path) as data:
        fmt = str(data["format"])
        if fmt != _SESSION_FORMAT:
            raise SpectrumError(
                f"{path}: unsupported session format {fmt!r} "
                f"(expected {_SESSION_FORMAT!r}, which holds keys; "
                "re-ingest the reads to rebuild the checkpoint)"
            )
        kmers = merge_pairs([(data["kmer_keys"], data["kmer_counts"])])
        tiles = merge_pairs([(data["tile_keys"], data["tile_counts"])])
        out = {
            "kmers": kmers,
            "tiles": tiles,
            "read_kmer_keys": data["read_kmer_keys"],
            "read_tile_keys": data["read_tile_keys"],
            "k": int(data["k"]),
            "overlap": int(data["overlap"]),
            "nranks": int(data["nranks"]),
            "rank": int(data["rank"]),
            "n_ingests": int(data["n_ingests"]),
            "count_reverse_complement": bool(data["count_reverse_complement"]),
        }
    return out
