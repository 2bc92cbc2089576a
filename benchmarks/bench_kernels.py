"""Microbenchmarks for the computational kernels.

Tracks the throughput of the hot paths the guides demand stay vectorized
(2-bit window extraction, count-hash batch operations, candidate
generation, the serial corrector itself), the fixed costs of a Step IV
round (a small block's ``correct_block`` through ``pair_counts``, an
8-rank cooperative lookup round of ~30 ids, and one frame's send and
receive), Step I for an 8-rank fleet
on the e2e file row's pair, and exhibits the fast kernels against the
frozen seed implementations: the
:class:`~repro.kmer.codec.WindowLadder` window ids vs the byte-per-base
gather of :func:`~repro.kmer.codec.block_window_ids` (every tile window,
and Step II's two shapes: k-mers at step 1, tiles at their stride),
batched distance-1 substitution vs the per-tile Python loop, and the
whole packed corrector vs
:class:`~repro.core.reference.UnpackedReferenceCorrector` — asserting
bit-identical output at every comparison and a speedup floor on the
window and whole-corrector rows.
"""

import time

import numpy as np
import pytest

from repro.bench.harness import ExperimentResult, small_scale
from repro.core import LocalSpectrumView, ReptileCorrector, build_spectra
from repro.core.reference import UnpackedReferenceCorrector
from repro.hashing.counthash import CountHash
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.io.partition import load_rank_block, write_block
from repro.kmer.codec import WindowLadder, block_window_ids
from repro.kmer.neighbors import neighbors_at_positions, substitute_at
from repro.kmer.tiles import TileShape, tile_length
from repro.parallel.build import RankSpectra
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.lookup.stack import compile_stacks
from repro.parallel.ownership import key_spaces
from repro.parallel.server import CorrectionProtocol
from repro.simmpi import run_spmd


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


def _ladder_windows(codes, lengths, w, step=1):
    """One block's window ids through a fresh ladder (built in the call)."""
    return WindowLadder(codes, lengths).windows(w, step)


def test_packed_window_extraction_throughput(benchmark, code_block):
    """The ladder equivalent of the above, its levels built in the call."""
    codes, lengths = code_block
    ids, valid = benchmark(_ladder_windows, codes, lengths, 12)
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
# The fixed costs of a Step IV round


class _SealedPairView:
    """A view that messages, answered from local sealed tables: the
    corrector runs its messaging rounds (look-ahead included), and a
    ``pair_counts`` call costs two table probes and no wire."""

    def __init__(self, spectra):
        self.kmers = SortedSpectrum.from_counthash(spectra.kmers)
        self.tiles = SortedSpectrum.from_counthash(spectra.tiles)
        self.rounds = 0

    def pair_counts(self, kmer_ids, tile_ids):
        self.rounds += 1
        return self.kmers.lookup(kmer_ids), self.tiles.lookup(tile_ids)


def test_small_block_correction_rounds(benchmark, ecoli_scale, capsys):
    """A 112-read ``correct_block`` through ``pair_counts``: the
    corrector's cost per block and per round, at a service round's
    block size (printed, so every run's log carries it)."""
    block = ecoli_scale.dataset.block
    rows = np.sort(np.random.default_rng(4).choice(len(block), 112, replace=False))
    small = block.select(rows)
    view = _SealedPairView(build_spectra(block, ecoli_scale.config))
    corrector = ReptileCorrector(ecoli_scale.config, view)

    result = benchmark(corrector.correct_block, small)
    assert result.total_corrections > 0
    view.rounds = 0
    corrector.correct_block(small)
    best = benchmark.stats.stats.min
    benchmark.extra_info["rounds_per_block"] = view.rounds
    with capsys.disabled():
        print(
            f"\ncorrect_block, 112 reads via pair_counts: {best * 1e3:.3f} ms "
            f"in {view.rounds} rounds ({best / view.rounds * 1e6:.0f} us a round)"
        )


_ROUND_RANKS = 8
_ROUNDS = 50


def _lookup_rounds(heuristics):
    """Every rank of an 8-rank cooperative world runs ``_ROUNDS``
    lookup rounds of 16 k-mer and 14 tile ids over sealed shards, then
    the termination handshake.  Returns the seconds from the barrier
    before the rounds to the last rank's shutdown, and each rank's
    answers."""
    shape = TileShape(12, 4)
    kspace, tspace = key_spaces(shape)
    rng = np.random.default_rng(0)
    kids = rng.integers(0, 1 << 24, 4_000, dtype=np.uint64)
    tids = rng.integers(0, 1 << 40, 4_000, dtype=np.uint64)

    def table(ids, space, ranks):
        keys = space.keys(ids)
        keys = keys[np.isin(space.owners(keys, _ROUND_RANKS), list(ranks))]
        counts = CountHash()
        counts.add_counts(keys, np.ones(keys.size, dtype=np.uint64))
        return SortedSpectrum.from_counthash(counts)

    def prog(comm):
        rank = comm.rank
        spectra = RankSpectra(
            shape=shape, rank=rank, nranks=comm.size,
            kmers=table(kids, kspace, (rank,)),
            tiles=table(tids, tspace, (rank,)),
        )
        group = heuristics.replication_group
        if group > 1:
            spectra.group_ranks = range(rank // group * group, (rank // group + 1) * group)
            spectra.group_kmers = table(kids, kspace, spectra.group_ranks)
            spectra.group_tiles = table(tids, tspace, spectra.group_ranks)
        protocol = CorrectionProtocol(
            comm, spectra.kmers, spectra.tiles, universal=heuristics.universal
        )
        stacks = compile_stacks(comm, spectra, heuristics, protocol=protocol)
        draw = np.random.default_rng(rank)
        asks = [(draw.choice(kids, 16), draw.choice(tids, 14)) for _ in range(_ROUNDS)]
        comm.barrier()
        start = time.perf_counter()
        out = [stacks.pair_counts(kmer_ids, tile_ids) for kmer_ids, tile_ids in asks]
        protocol.finish()
        return start, time.perf_counter(), out

    ranks = run_spmd(prog, _ROUND_RANKS, engine="cooperative").results
    seconds = max(end for _, end, _ in ranks) - min(start for start, _, _ in ranks)
    return seconds, [out for _, _, out in ranks]


@pytest.mark.parametrize(
    "heuristics",
    [HeuristicConfig(replication_group=2), HeuristicConfig(universal=True)],
    ids=["base-group2", "universal"],
)
def test_lookup_round_fixed_cost(benchmark, heuristics, capsys, request):
    """An 8-rank cooperative lookup round of ~30 ids: client, wire,
    serving and the scheduler, per rank and round (printed, so every
    run's log carries it)."""
    runs = []

    def run():
        runs.append(_lookup_rounds(heuristics))
        return runs[-1][1]

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(results) == _ROUND_RANKS
    assert all(len(rank) == _ROUNDS for rank in results)
    per_round = min(seconds for seconds, _ in runs) / (_ROUND_RANKS * _ROUNDS)
    benchmark.extra_info["us_per_round"] = round(per_round * 1e6, 1)
    with capsys.disabled():
        print(
            f"\nlookup round, {_ROUND_RANKS} ranks, ~30 ids "
            f"[{request.node.callspec.id}]: {per_round * 1e6:.0f} us a rank-round"
        )


# ----------------------------------------------------------------------
# One frame


_FRAME_SENDS = 2_000


def _frame_payloads():
    """A 10-id and a 1,000-id request vector, and a Step III delta chunk:
    one owner's 2,000 k-mer and 400 tile pairs at table width."""
    rng = np.random.default_rng(0)
    return {
        "10-id vector": rng.integers(0, 1 << 40, 10, dtype=np.uint64),
        "1000-id vector": rng.integers(0, 1 << 40, 1_000, dtype=np.uint64),
        "4-array alltoallv chunk": (
            np.sort(rng.integers(0, 1 << 24, 2_000)).astype(np.uint32),
            rng.integers(1, 200, 2_000).astype(np.uint16),
            np.sort(rng.integers(0, 1 << 40, 400)).astype(np.uint64),
            rng.integers(1, 200, 400).astype(np.uint16),
        ),
    }


def _frame_loop(payload):
    """Seconds for ``_FRAME_SENDS`` self-sends of ``payload``, each
    received at once, on a one-rank cooperative world."""

    def prog(comm):
        start = time.perf_counter()
        for _ in range(_FRAME_SENDS):
            comm.send(0, payload, tag=1)
            comm.recv(0, 1)
        return time.perf_counter() - start

    return run_spmd(prog, 1, engine="cooperative").results[0]


@pytest.mark.parametrize("name", list(_frame_payloads()))
def test_frame_send_receive(benchmark, name, capsys):
    """One frame's fixed cost: a send and its receive through the
    communicator, the engine and the mailbox (printed, so every run's
    log carries it)."""
    payload = _frame_payloads()[name]
    benchmark.pedantic(_frame_loop, args=(payload,), rounds=5, iterations=1)
    per_frame = benchmark.stats.stats.min / _FRAME_SENDS
    benchmark.extra_info["us_per_frame"] = round(per_frame * 1e6, 2)
    with capsys.disabled():
        print(f"\nframe send + receive, cooperative [{name}]: "
              f"{per_frame * 1e6:.2f} us")


# ----------------------------------------------------------------------
# Step I


@pytest.fixture(scope="module")
def step_one_pair(tmp_path_factory):
    """The fasta + quality pair the e2e ``files_msg_p8`` row reads: 5.6k
    reads of about 100 bp, scores of one and two digits."""
    block = small_scale(
        "E.Coli", genome_size=6_000, seed=7, chunk_size=250
    ).dataset.block
    where = tmp_path_factory.mktemp("step_one")
    fasta, qual = where / "reads.fa", where / "reads.qual"
    write_block(block, fasta, qual)
    return fasta, qual, len(block)


def test_step_one_load(benchmark, step_one_pair, capsys):
    """Step I for an 8-rank fleet: every rank's ``load_rank_block`` on the
    pair, one after another (printed, so every run's log carries it)."""
    fasta, qual, reads = step_one_pair

    def load():
        return [load_rank_block(fasta, qual, 8, rank) for rank in range(8)]

    blocks = benchmark(load)
    assert sum(len(block) for block in blocks) == reads
    best = benchmark.stats.stats.min
    with capsys.disabled():
        print(f"\nStep I, 8 ranks' load_rank_block, {reads} reads: "
              f"{best * 1e3:.2f} ms")


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

    out = ExperimentResult(
        experiment="kernels.packed",
        title="Fast vs frozen seed kernels",
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

    # ---- window extraction: every tile window, then Step II's shapes --
    def window_row(name, width, step):
        ref_ids, ref_valid = block_window_ids(codes, lengths, width, step)
        ids, valid = _ladder_windows(codes, lengths, width, step)
        assert np.array_equal(ref_valid, valid)
        assert np.array_equal(ref_ids[ref_valid], ids[valid])
        return row(
            name,
            ref_valid.sum(),
            _best_seconds(
                lambda: block_window_ids(codes, lengths, width, step), repeats
            ),
            _best_seconds(
                lambda: _ladder_windows(codes, lengths, width, step), repeats
            ),
        )

    window_speedup = window_row("window_extraction", w, 1)
    window_row("step_ii_kmers", cfg.kmer_length, 1)
    window_row("step_ii_tiles", w, cfg.tile_shape.step)

    rng = np.random.default_rng(0)

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
        f"ref = frozen seed kernels; best of {repeats} runs; "
        "bit-identical output asserted for every row"
    )
    out.note(
        "micro speedups: "
        f"window {window_speedup:.1f}x, "
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
    assert speedups["correct_block"] >= 2.5
