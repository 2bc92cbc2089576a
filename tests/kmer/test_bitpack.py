"""Property tests for the bit-packed kernels.

Every property pins a packed kernel to the unpacked seed implementation
it replaced: pack/unpack round-trips (including non-multiple-of-32
widths and ambiguous bases), ``windows_at`` against the reference
corrector's byte-per-base gather, batched substitution and its one byte
write against a byte-level rewrite, and whole-block correction
bit-identity between
:class:`~repro.core.corrector.ReptileCorrector` and the frozen
:class:`~repro.core.reference.UnpackedReferenceCorrector` at both
correction distances.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ReptileConfig
from repro.core import ReptileCorrector, build_spectra
from repro.core.reference import UnpackedReferenceCorrector
from repro.core.spectrum import LocalSpectrumView
from repro.io.records import ReadBlock
from repro.kmer.bitpack import (
    pack_block,
    substitute_many,
    unpack_block,
    windows_at,
    write_changed_bases,
)
from repro.kmer.codec import INVALID_CODE
from repro.kmer.neighbors import hamming_distance


def _random_codes(rng, n, width, lengths, ambiguous_fraction):
    """A code matrix with INVALID_CODE at past-length and ambiguous spots."""
    codes = rng.integers(0, 4, (n, width), dtype=np.uint8)
    if ambiguous_fraction > 0:
        mask = rng.random((n, width)) < ambiguous_fraction
        codes[mask] = INVALID_CODE
    past = np.arange(width)[None, :] >= lengths[:, None]
    codes[past] = INVALID_CODE
    return codes


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 20),
    width=st.integers(1, 140),
    ambiguous=st.sampled_from([0.0, 0.02, 0.3]),
)
@settings(max_examples=80, deadline=None)
def test_pack_unpack_roundtrip(seed, n, width, ambiguous):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, width + 1, n, dtype=np.int64)
    codes = _random_codes(rng, n, width, lengths, ambiguous)
    packed = pack_block(codes, lengths)
    assert np.array_equal(unpack_block(packed), codes)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    width=st.integers(8, 90),
    k=st.integers(2, 8),
    ambiguous=st.sampled_from([0.0, 0.05]),
)
@settings(max_examples=80, deadline=None)
def test_windows_at_matches_gather_tiles(seed, n, width, k, ambiguous):
    rng = np.random.default_rng(seed)
    overlap = int(rng.integers(1, k)) if k > 1 else 0
    config = ReptileConfig(kmer_length=k, tile_overlap=overlap)
    w = config.tile_shape.length
    if w > width:
        width = w + 3
    lengths = rng.integers(1, width + 1, n, dtype=np.int64)
    codes = _random_codes(rng, n, width, lengths, ambiguous)
    packed = pack_block(codes, lengths)

    n_sites = int(rng.integers(1, 4 * n))
    rows = rng.integers(0, n, n_sites, dtype=np.int64)
    starts = rng.integers(0, width - w + 1, n_sites, dtype=np.int64)

    ref = UnpackedReferenceCorrector(config, None)
    ref_ids, ref_valid = ref._gather_tiles(codes, rows, starts)
    ids, valid = windows_at(packed, rows, starts, w)
    assert np.array_equal(valid, ref_valid)
    assert np.array_equal(ids[valid], ref_ids[ref_valid])


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 15),
    width=st.integers(10, 130),
    w=st.integers(1, 32),
    n_subs=st.integers(1, 12),
)
@settings(max_examples=60, deadline=None)
def test_substitute_many_keeps_words_and_codes_aligned(
    seed, n, width, w, n_subs
):
    """After batched substitution, the packed words unpack to the code
    matrix with each site's window rewritten base by base, and writing
    the bases that changed into the old matrix gives that matrix too.

    One site per row, per the kernel's contract (the corrector's
    wavefront substitutes at most once per read per step)."""
    rng = np.random.default_rng(seed)
    if w > width:
        width = w
    lengths = np.full(n, width, dtype=np.int64)
    codes = _random_codes(rng, n, width, lengths, 0.0)
    packed = pack_block(codes, lengths)

    n_subs = min(n_subs, n)
    rows = rng.permutation(n)[:n_subs].astype(np.int64)
    starts = rng.integers(0, width - w + 1, n_subs, dtype=np.int64)
    old_ids, valid = windows_at(packed, rows, starts, w)
    assert valid.all()
    hi = (1 << (2 * w)) - 1
    new_ids = rng.integers(0, hi, n_subs, dtype=np.uint64, endpoint=True)

    before = packed.words.copy()
    written = codes.copy()
    applied = substitute_many(packed, rows, starts, old_ids, new_ids, w)
    # applied counts exactly the differing bases of each rewrite.
    expected = [
        hamming_distance(int(o), int(nw), w)
        for o, nw in zip(old_ids, new_ids)
    ]
    assert np.array_equal(applied, np.array(expected))
    for row, start, new in zip(rows, starts, new_ids):
        codes[row, start : start + w] = [
            (int(new) >> (2 * (w - 1 - i))) & 3 for i in range(w)
        ]
    assert np.array_equal(unpack_block(packed), codes)
    write_changed_bases(written, before, packed, rows)
    assert np.array_equal(written, codes)
    # The rewritten windows now spell the new ids.
    re_ids, re_valid = windows_at(packed, rows, starts, w)
    assert re_valid.all()
    assert np.array_equal(re_ids, new_ids)


@st.composite
def correction_instances(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    k = draw(st.integers(3, 8))
    overlap = draw(st.integers(1, 2))
    max_distance = draw(st.sampled_from([1, 2]))
    ambiguity_ratio = draw(st.sampled_from([1.0, 1.5, 2.0]))
    config = ReptileConfig(
        kmer_length=k,
        tile_overlap=min(overlap, k - 1),
        kmer_threshold=draw(st.integers(1, 3)),
        tile_threshold=draw(st.integers(1, 3)),
        quality_threshold=draw(st.integers(5, 50)),
        max_candidate_positions=draw(st.integers(1, 4)),
        max_distance=max_distance,
        ambiguity_ratio=ambiguity_ratio,
    )
    w = config.tile_shape.length
    n = draw(st.integers(1, 12))
    width = draw(st.integers(w, w + 40))
    lengths = rng.integers(w, width + 1, n, dtype=np.int64)
    codes = _random_codes(
        rng, n, width, lengths, draw(st.sampled_from([0.0, 0.02]))
    )
    quals = rng.integers(0, 60, (n, width), dtype=np.uint8)
    quals[np.arange(width)[None, :] >= lengths[:, None]] = 0
    block = ReadBlock(
        ids=np.arange(n, dtype=np.int64),
        codes=codes,
        lengths=lengths,
        quals=quals,
    )
    return config, block


class _PairView(LocalSpectrumView):
    """The serial spectrum asked the way a messaging view is: each
    lookup round as one (k-mer ids, tile ids) pair, every candidate tile
    included, solid or not."""

    def pair_counts(self, kmer_ids, tile_ids):
        return self.kmer_counts(kmer_ids), self.tile_counts(tile_ids)


_PER_READ = (
    "corrections_per_read",
    "reads_reverted",
    "tiles_examined_per_read",
    "tiles_below_per_read",
)


def _assert_matches_reference(config, block):
    """The frozen column-by-column reference, the lookahead through a
    local view and the lookahead through a pair view agree on the codes
    and all four per-read arrays.  Returns the reference result."""
    spectra = build_spectra(block, config)
    ref = UnpackedReferenceCorrector(
        config, LocalSpectrumView(spectra)
    ).correct_block(block)
    for view in (LocalSpectrumView(spectra), _PairView(spectra)):
        got = ReptileCorrector(config, view).correct_block(block)
        assert np.array_equal(ref.block.codes, got.block.codes)
        for name in _PER_READ:
            assert np.array_equal(getattr(ref, name), getattr(got, name)), name
        assert ref.tiles_examined == got.tiles_examined
        assert ref.tiles_below_threshold == got.tiles_below_threshold
    return ref


def _sampled_block(rng, shape, n, error_rate, n_rate, tie):
    """Reads sampled from a random genome, so the spectra have real
    coverage and corrections happen.

    Lengths are mixed (the last tile shifts) and some reads are shorter
    than a tile.  Substitution errors carry a quality below 20, as do a
    few correct bases; ``n_rate`` of the bases are ambiguous.  With
    ``tie``, three reads of a separate sequence differ at one base: the
    two copies of each of two variants and one low-quality third variant
    leave that read with two equally supported candidates."""
    w = shape.length
    lengths = rng.integers(w - 3, 2 * w + 9, n)
    width = int(lengths.max(initial=w))
    genome = rng.integers(0, 4, width + 4 * w, dtype=np.uint8)
    codes = np.full((n, width), INVALID_CODE, dtype=np.uint8)
    quals = np.zeros((n, width), dtype=np.uint8)
    for i, length in enumerate(lengths):
        start = rng.integers(0, genome.size - length + 1)
        codes[i, :length] = genome[start : start + length]
        quals[i, :length] = rng.integers(18, 41, length)
    inside = np.arange(width)[None, :] < lengths[:, None]
    wrong = inside & (rng.random((n, width)) < error_rate)
    codes[wrong] = (codes[wrong] + rng.integers(1, 4, wrong.sum())) % 4
    quals[wrong] = rng.integers(2, 15, wrong.sum())
    ambiguous = inside & (rng.random((n, width)) < n_rate)
    codes[ambiguous] = INVALID_CODE
    block = ReadBlock(
        ids=np.arange(n, dtype=np.int64), codes=codes, lengths=lengths,
        quals=quals,
    )
    if not tie:
        return block
    seq = rng.integers(0, 4, w + 2, dtype=np.uint8)
    at = w // 2
    variants = []
    for base in range(3):
        read = seq.copy()
        read[at] = (seq[at] + base) % 4
        variants.append(read)
    tie_codes = np.stack([variants[0]] * 2 + [variants[1]] * 2 + [variants[2]])
    tie_quals = np.full(tie_codes.shape, 40, dtype=np.uint8)
    tie_quals[-1, at] = 5
    return ReadBlock.concat([block, ReadBlock(
        ids=np.arange(n, n + 5, dtype=np.int64), codes=tie_codes,
        lengths=np.full(5, w + 2, dtype=np.int64), quals=tie_quals,
    )])


@st.composite
def sampled_instances(draw):
    k = draw(st.integers(4, 8))
    config = ReptileConfig(
        kmer_length=k,
        tile_overlap=draw(st.integers(1, k - 1)),
        kmer_threshold=draw(st.integers(1, 3)),
        tile_threshold=draw(st.integers(1, 3)),
        quality_threshold=20,
        max_candidate_positions=draw(st.integers(1, 4)),
        max_distance=draw(st.sampled_from([1, 2])),
        ambiguity_ratio=draw(st.sampled_from([1.0, 1.5])),
        max_corrections_per_read=draw(st.integers(1, 4)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = _sampled_block(
        rng, config.tile_shape,
        n=draw(st.integers(4, 40)),
        error_rate=draw(st.sampled_from([0.0, 0.03, 0.08])),
        n_rate=draw(st.sampled_from([0.0, 0.01])),
        tie=draw(st.booleans()),
    )
    return config, block


@given(instance=st.one_of(correction_instances(), sampled_instances()))
@settings(max_examples=100, deadline=None)
def test_correct_block_bit_identity(instance):
    """The packed lookahead and the frozen unpacked seed agree exactly:
    same corrected bases, same per-read counts, same reverted reads —
    on random codes, and on reads with real coverage, where sites
    correct, chain and revert."""
    _assert_matches_reference(*instance)


def _census(config, block, ref):
    """Which of the lookahead's hard cases one reference result holds."""
    shape = config.tile_shape
    w, step = shape.length, shape.step
    lengths = block.lengths
    starts = ReptileCorrector(config, LocalSpectrumView(
        build_spectra(block, config)
    ))._tile_start_matrix(lengths)
    tiles = (starts >= 0).sum(axis=1)
    seen = {
        "invalid tile": bool((ref.tiles_examined_per_read < tiles).any()),
        "shifted last tile": bool(
            ((lengths >= w) & ((lengths - w) % step != 0)).any()
        ),
        "read shorter than a tile": bool((lengths < w).any()),
        "distance 2": config.max_distance == 2 and ref.total_corrections > 0,
        "reverted read": bool(ref.reads_reverted.any()),
        "correction in the overlap": False,
    }
    # A corrected base that lies in the next two tiles of the first tile
    # holding it re-extracts both.
    rows, cols = np.nonzero(ref.block.codes != block.codes)
    for row, col in zip(rows, cols):
        first = int(np.argmax(starts[row] + w > col))
        if first + 2 < tiles[row] and starts[row, first + 2] <= col:
            seen["correction in the overlap"] = True
    return seen


def test_sampled_instances_reach_every_hard_case():
    """The sampled-read generator is not vacuous: a fixed handful of its
    instances covers every case the lookahead must get right, and each
    of them matches the reference."""
    seen: dict[str, bool] = {}
    for seed, (k, overlap, distance, cap) in enumerate(
        [(6, 2, 1, 2), (8, 4, 2, 1), (5, 3, 1, 3), (7, 1, 2, 2)] * 3
    ):
        config = ReptileConfig(
            kmer_length=k, tile_overlap=overlap, kmer_threshold=2,
            tile_threshold=2, quality_threshold=20,
            max_candidate_positions=3, max_distance=distance,
            max_corrections_per_read=cap,
        )
        block = _sampled_block(
            np.random.default_rng(seed), config.tile_shape, n=40,
            error_rate=0.05, n_rate=0.01, tie=False,
        )
        ref = _assert_matches_reference(config, block)
        for case, hit in _census(config, block, ref).items():
            seen[case] = seen.get(case, False) or hit
    assert all(seen.values()), seen


def test_correction_reaches_the_shifted_last_tile():
    """k = 6, overlap 2: tiles of 10 bases every 4, and a read of 23 ends
    with a shifted tile at 13.  Base 13 is first held by tile 1 (4..13);
    correcting it rewrites tiles 2 and 3 and the shifted tile — three
    columns on, the farthest a correction ever reaches here.  (Reads one
    base shorter, from one base on, count the shifted tile at stride.)"""
    config = ReptileConfig(
        kmer_length=6, tile_overlap=2, kmer_threshold=2, tile_threshold=2,
        quality_threshold=20, max_candidate_positions=2,
    )
    seq = np.random.default_rng(5).integers(0, 4, 23, dtype=np.uint8)
    odd = seq.copy()
    odd[13] = (odd[13] + 1) % 4
    codes = np.full((9, 23), INVALID_CODE, dtype=np.uint8)
    codes[:4] = seq
    codes[4:8, :22] = seq[1:]
    codes[8] = odd
    quals = np.full(codes.shape, 40, dtype=np.uint8)
    quals[8, 13] = 5
    block = ReadBlock(
        ids=np.arange(9, dtype=np.int64), codes=codes,
        lengths=np.array([23] * 4 + [22] * 4 + [23], dtype=np.int64),
        quals=quals,
    )
    ref = _assert_matches_reference(config, block)
    assert np.array_equal(ref.block.codes[8], seq)
    assert ref.tiles_below_per_read.tolist() == [0] * 8 + [1]


def test_ambiguity_tie_breaks_to_the_first_candidate():
    """Two candidates with equal counts: at ambiguity ratio 1.0 the first
    in candidate order wins, above it neither does — in both correctors."""
    config = ReptileConfig(
        kmer_length=6, tile_overlap=2, kmer_threshold=2, tile_threshold=2,
        quality_threshold=20, max_candidate_positions=2, ambiguity_ratio=1.0,
    )
    block = _sampled_block(
        np.random.default_rng(11), config.tile_shape, n=0, error_rate=0.0,
        n_rate=0.0, tie=True,
    )
    at = config.tile_shape.length // 2
    # The odd read's alternatives at ``at`` run (base + 1, + 2, + 3) mod
    # 4, which reaches variant 0 (reads 0, 1) before variant 1 (2, 3).
    ref = _assert_matches_reference(config, block)
    assert ref.block.codes[-1, at] == block.codes[0, at] != block.codes[2, at]
    assert ref.corrections_per_read[-1] == 1
    ratio = dataclasses.replace(config, ambiguity_ratio=1.5)
    ref = _assert_matches_reference(ratio, block)
    assert ref.corrections_per_read[-1] == 0
