"""K-mer and tile machinery: 2-bit codecs, vectorized extraction, neighbours.

Reptile works on two spectra: the *k-mer spectrum* (all length-``k``
substrings of the reads) and the *tile spectrum* (concatenations of two
overlapping k-mers, i.e. substrings of length ``2k - overlap``).  Everything
here is numpy-vectorized: a read is encoded once into a 2-bit code array and
all window ids are produced with array operations, never per-base Python
loops.
"""

from repro.kmer.codec import (
    MAX_K,
    encode_sequence,
    decode_kmer,
    window_ids,
    block_window_ids,
    reverse_complement_id,
    canonical_id,
    is_valid_sequence,
)
from repro.kmer.tiles import TileShape, tile_ids, tile_length, tile_id_from_kmers
from repro.kmer.neighbors import (
    hamming_neighbors,
    neighbors_at_positions,
    hamming_distance,
)

__all__ = [
    "MAX_K",
    "encode_sequence",
    "decode_kmer",
    "window_ids",
    "block_window_ids",
    "reverse_complement_id",
    "canonical_id",
    "is_valid_sequence",
    "TileShape",
    "tile_ids",
    "tile_length",
    "tile_id_from_kmers",
    "hamming_neighbors",
    "neighbors_at_positions",
    "hamming_distance",
]
