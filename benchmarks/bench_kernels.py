"""Microbenchmarks for the computational kernels.

Tracks the throughput of the hot paths the guides demand stay vectorized
(2-bit window extraction, count-hash batch operations, candidate
generation, the serial corrector itself) and exhibits the bit-packed
kernels against the frozen unpacked seed implementations: packed window
extraction vs the byte-per-base gather, popcount Hamming vs the scalar
per-base loop, batched distance-1 substitution vs the per-tile Python
loop, and the whole packed corrector vs
:class:`~repro.core.reference.UnpackedReferenceCorrector` — asserting
bit-identical output at every comparison and a speedup floor on the
window, Hamming and whole-corrector rows.
"""

import time

import numpy as np
import pytest

from repro.bench.harness import ExperimentResult
from repro.core import LocalSpectrumView, ReptileCorrector, build_spectra
from repro.core.reference import UnpackedReferenceCorrector
from repro.hashing.counthash import CountHash
from repro.kmer.bitpack import hamming_many, pack_block, window_id_matrix
from repro.kmer.codec import block_window_ids
from repro.kmer.neighbors import (
    hamming_distance,
    neighbors_at_positions,
    substitute_at,
)
from repro.kmer.tiles import tile_length


@pytest.fixture(scope="module")
def code_block(ecoli_scale):
    block = ecoli_scale.dataset.block
    return block.codes, block.lengths


def test_window_extraction_throughput(benchmark, code_block):
    """All k-mer ids of a whole block (the Step II hot loop)."""
    codes, lengths = code_block
    ids, valid = benchmark(block_window_ids, codes, lengths, 12)
    bases = codes.shape[0] * codes.shape[1]
    assert ids.shape[0] == codes.shape[0]
    benchmark.extra_info["bases"] = bases


def test_packed_window_extraction_throughput(benchmark, code_block):
    """Packed equivalent of the above (excluding the one-off pack)."""
    codes, lengths = code_block
    packed = pack_block(codes, lengths)
    ids, valid = benchmark(window_id_matrix, packed, 12)
    assert ids.shape[0] == codes.shape[0]


def test_counthash_insert_throughput(benchmark):
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 2**62, 500_000, dtype=np.uint64)

    def insert():
        table = CountHash(capacity=1 << 20)
        table.add_counts(keys)
        return table

    table = benchmark(insert)
    assert len(table) > 400_000


def test_counthash_lookup_throughput(benchmark):
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 2**62, 300_000, dtype=np.uint64)
    table = CountHash(capacity=1 << 20)
    table.add_counts(keys)
    queries = np.concatenate([keys[:150_000],
                              rng.integers(0, 2**62, 150_000, dtype=np.uint64)])
    counts = benchmark(table.lookup, queries)
    assert counts.shape == queries.shape


def test_candidate_generation_throughput(benchmark):
    """Distance-1 candidates at 6 positions for 1000 tiles."""
    rng = np.random.default_rng(2)
    tiles = rng.integers(0, 1 << 40, 1000, dtype=np.uint64)
    positions = np.array([0, 3, 7, 11, 15, 19])

    def generate():
        return [
            neighbors_at_positions(int(t), 20, positions) for t in tiles
        ]

    out = benchmark(generate)
    assert len(out) == 1000
    assert out[0].shape == (18,)


def test_hamming_many_throughput(benchmark):
    """Popcount Hamming over 200k window pairs."""
    rng = np.random.default_rng(3)
    a = rng.integers(0, 1 << 40, 200_000, dtype=np.uint64)
    b = rng.integers(0, 1 << 40, 200_000, dtype=np.uint64)
    d = benchmark(hamming_many, a, b, 20)
    assert d.shape == a.shape


def test_serial_corrector_throughput(benchmark, ecoli_scale):
    """End-to-end serial correction rate (reads per second)."""
    block = ecoli_scale.dataset.block
    spectra = build_spectra(block, ecoli_scale.config)

    def correct():
        view = LocalSpectrumView(spectra)
        return ReptileCorrector(ecoli_scale.config, view).correct_block(block)

    result = benchmark.pedantic(correct, rounds=2, iterations=1)
    assert result.total_corrections > 0
    benchmark.extra_info["reads"] = len(block)


def test_reference_corrector_throughput(benchmark, ecoli_scale):
    """The frozen unpacked seed corrector, for the speedup denominator."""
    block = ecoli_scale.dataset.block
    spectra = build_spectra(block, ecoli_scale.config)

    def correct():
        view = LocalSpectrumView(spectra)
        return UnpackedReferenceCorrector(
            ecoli_scale.config, view
        ).correct_block(block)

    result = benchmark.pedantic(correct, rounds=2, iterations=1)
    assert result.total_corrections > 0


def test_spectrum_build_throughput(benchmark, ecoli_scale):
    """Serial spectrum construction rate (the Step II equivalent)."""
    block = ecoli_scale.dataset.block
    spectra = benchmark(build_spectra, block, ecoli_scale.config)
    assert len(spectra.kmers) > 0


# ----------------------------------------------------------------------
# Packed-vs-unpacked exhibit


def _best_seconds(fn, repeats: int) -> float:
    """Minimum wall time over ``repeats`` calls (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_kernel_exhibit(scale, repeats: int = 5) -> ExperimentResult:
    """Packed vs unpacked kernels on one realistic block, one row each.

    Every comparison first asserts the two implementations produce
    bit-identical output; the timings are best-of-``repeats``.
    """
    block = scale.dataset.block
    codes, lengths = block.codes, block.lengths
    cfg = scale.config
    w = tile_length(cfg.kmer_length, cfg.tile_overlap)
    packed = pack_block(codes, lengths)

    out = ExperimentResult(
        experiment="kernels.packed",
        title="Packed vs unpacked correction kernels",
        columns=["kernel", "items", "ref_ms", "packed_ms", "speedup"],
    )

    def row(name, items, t_ref, t_packed):
        out.add(
            name,
            int(items),
            round(t_ref * 1e3, 3),
            round(t_packed * 1e3, 3),
            round(t_ref / t_packed, 1),
        )
        return t_ref / t_packed

    # ---- window extraction: every tile window of the block -----------
    ref_ids, ref_valid = block_window_ids(codes, lengths, w)
    pk_ids, pk_valid = window_id_matrix(packed, w)
    assert np.array_equal(ref_valid, pk_valid)
    assert np.array_equal(ref_ids[ref_valid], pk_ids[pk_valid])
    window_speedup = row(
        "window_extraction",
        ref_valid.sum(),
        _best_seconds(lambda: block_window_ids(codes, lengths, w), repeats),
        _best_seconds(lambda: window_id_matrix(packed, w), repeats),
    )

    # ---- Hamming distance: popcount vs the scalar per-base loop ------
    rng = np.random.default_rng(0)
    n_pairs = 50_000
    a = rng.integers(0, 1 << (2 * w), n_pairs, dtype=np.uint64)
    b = rng.integers(0, 1 << (2 * w), n_pairs, dtype=np.uint64)

    def scalar_hamming():
        return [hamming_distance(int(x), int(y), w) for x, y in zip(a, b)]

    assert np.array_equal(np.array(scalar_hamming()), hamming_many(a, b, w))
    hamming_speedup = row(
        "hamming",
        n_pairs,
        _best_seconds(scalar_hamming, max(1, repeats // 2)),
        _best_seconds(lambda: hamming_many(a, b, w), repeats),
    )

    # ---- distance-1 candidates: batched vs per-tile Python loop ------
    n_tiles = 20_000
    tiles = rng.integers(0, 1 << (2 * w), n_tiles, dtype=np.uint64)
    positions = np.arange(0, w, 2, dtype=np.int64)
    p = positions.size
    wids = np.repeat(tiles, p)
    pos_flat = np.tile(positions, n_tiles)

    def scalar_candidates():
        return [neighbors_at_positions(int(t), w, positions) for t in tiles]

    assert np.array_equal(
        np.concatenate(scalar_candidates()),
        substitute_at(wids, w, pos_flat).ravel(),
    )
    candidate_speedup = row(
        "candidate_generation",
        n_tiles * p * 3,
        _best_seconds(scalar_candidates, max(1, repeats // 2)),
        _best_seconds(lambda: substitute_at(wids, w, pos_flat), repeats),
    )

    # ---- whole corrector vs the frozen unpacked seed -----------------
    spectra = build_spectra(block, cfg)
    view = LocalSpectrumView(spectra)
    ref_result = UnpackedReferenceCorrector(cfg, view).correct_block(block)
    packed_result = ReptileCorrector(cfg, view).correct_block(block)
    assert np.array_equal(ref_result.block.codes, packed_result.block.codes)
    assert np.array_equal(
        ref_result.corrections_per_read, packed_result.corrections_per_read
    )
    assert np.array_equal(
        ref_result.reads_reverted, packed_result.reads_reverted
    )
    corrector_speedup = row(
        "correct_block",
        len(block),
        _best_seconds(
            lambda: UnpackedReferenceCorrector(cfg, view).correct_block(block),
            repeats,
        ),
        _best_seconds(
            lambda: ReptileCorrector(cfg, view).correct_block(block), repeats
        ),
    )

    out.note(
        f"{len(block)} reads, tile width {w}; "
        f"ref = frozen unpacked seed kernels; best of {repeats} runs; "
        "bit-identical output asserted for every row"
    )
    out.note(
        "micro speedups: "
        f"window {window_speedup:.1f}x, hamming {hamming_speedup:.1f}x, "
        f"candidates {candidate_speedup:.1f}x; "
        f"whole corrector {corrector_speedup:.1f}x"
    )
    return out


@pytest.fixture(scope="module")
def kernel_exhibit(ecoli_scale):
    return run_kernel_exhibit(ecoli_scale, repeats=3)


def test_packed_kernel_exhibit(benchmark, kernel_exhibit, capsys):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    with capsys.disabled():
        print(f"\n{kernel_exhibit}")
    speedups = {row[0]: row[4] for row in kernel_exhibit.rows}
    # Conservative floors (the packed kernels measure well above them)
    # so a noisy shared runner does not flake the suite.
    assert speedups["window_extraction"] >= 5.0
    assert speedups["hamming"] >= 5.0
    assert speedups["correct_block"] >= 2.5
