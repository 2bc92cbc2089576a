"""Ablation: hash-table spectra vs the prior work's sorted-array layouts.

The paper replaced Shah/Jammula's sorted lists ("look-up operations
involving repeated binary searches", later improved with a cache-aware
layout) with hash tables.  This benchmark measures batch lookup throughput
of the three backends on a realistic spectrum-sized key set and mixed
hit/miss query stream — the access pattern of the correction phase — and
sweeps the batch size, which is what decides between the hash and the
sealed sorted form: whole-share batches favour the hash, Step IV's
per-owner serving batches (about a dozen ids) the binary search.
"""

import time

import numpy as np
import pytest

from repro.hashing.counthash import CountHash
from repro.hashing.sortedspectrum import EytzingerSpectrum, SortedSpectrum

N_KEYS = 200_000
N_QUERIES = 100_000


@pytest.fixture(scope="module")
def spectrum_data():
    rng = np.random.default_rng(7)
    keys = np.unique(rng.integers(0, 2**62, N_KEYS, dtype=np.uint64))
    counts = rng.integers(1, 200, keys.shape[0]).astype(np.uint32)
    # Correction-phase mix: ~40% hits (real tiles), 60% misses (candidate
    # tiles that exist nowhere) — the paper's dominant traffic.
    queries = np.concatenate([
        rng.choice(keys, int(N_QUERIES * 0.4)),
        rng.integers(0, 2**62, int(N_QUERIES * 0.6), dtype=np.uint64),
    ])
    rng.shuffle(queries)
    return keys, counts, queries


@pytest.fixture(scope="module")
def backends(spectrum_data):
    keys, counts, _ = spectrum_data
    return {
        "hash": CountHash.from_counts(keys, counts),
        "sorted": SortedSpectrum(keys, counts),
        "eytzinger": EytzingerSpectrum(keys, counts),
    }


@pytest.mark.parametrize("backend", ["hash", "sorted", "eytzinger"])
def test_lookup_throughput(benchmark, backends, spectrum_data, backend):
    _, _, queries = spectrum_data
    sp = backends[backend]
    out = benchmark(sp.lookup, queries)
    assert out.shape == queries.shape


def test_backends_agree(benchmark, backends, spectrum_data):
    _, _, queries = spectrum_data
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    a = backends["hash"].lookup(queries)
    b = backends["sorted"].lookup(queries)
    c = backends["eytzinger"].lookup(queries)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_memory_comparison(benchmark, backends, capsys):
    """What "hash tables instead of sorted arrays" costs in bytes.

    The sealed sorted form is as narrow as its contents and has no free
    slots: uint64 key + uint16 count here, exactly 10 B per entry, and
    6 B for a k = 12 k-mer spectrum (24-bit keys fit uint32).  The hash
    table pays its <= 0.60 load on top of a slot just as narrow (uint64
    key + uint16 flag-and-count: 10 B), 26 B per entry on this key set.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    per_entry = {name: sp.nbytes / len(sp) for name, sp in backends.items()}
    rng = np.random.default_rng(5)
    kmer_keys = np.unique(rng.integers(0, 1 << 24, 50_000, dtype=np.uint64))
    kmers = SortedSpectrum.from_sorted(
        kmer_keys, np.full(kmer_keys.shape, 40, dtype=np.uint32)
    )
    with capsys.disabled():
        print("\n== Ablation: spectrum backend memory ==")
        for name, sp in backends.items():
            print(f"  {name:10s} {sp.nbytes / 2**20:7.2f} MiB "
                  f"({len(sp):,d} entries, {per_entry[name]:.1f} B/entry)")
        print(f"  {'sorted k=12':10s} {kmers.nbytes / 2**20:7.2f} MiB "
              f"({len(kmers):,d} entries, "
              f"{kmers.nbytes / len(kmers):.1f} B/entry)")
    assert per_entry["sorted"] == 10
    assert kmers.nbytes == 6 * len(kmers)
    # At most 30 B an entry: 2.5x the prior work's 12 B sorted pairs.
    assert per_entry["hash"] <= 3 * per_entry["sorted"]


def _us_per_call(lookup, queries, calls):
    """Best of three runs of ``calls`` lookups, in µs per call."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            lookup(queries)
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def test_batch_size_sweep(benchmark, capsys):
    """Lookup cost per call against the batch size, hash vs sealed.

    A hash probe is a couple of dozen numpy passes whatever the batch, a
    binary search a handful, so the sealed form wins small batches by
    4-8x.  Per id, the hash's O(1) probe wins from the crossover up: 2k
    ids on the 250k-key table on a 2-vCPU host, while on the 9k-key table
    the two meet between 4k and 32k ids (at and above 1k ids a sealed
    lookup sorts its queries first, which keeps its per-id cost falling).
    The tables are a 9k-key k-mer table (24-bit keys) and a 250k-key
    tile table (40-bit keys); an 8-rank run's shards hold 0.7-1.6k keys
    on the e2e inputs and 25k on 188k reads.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rng = np.random.default_rng(13)
    lines = ["\n== Ablation: lookup cost vs batch size (µs per call) =="]
    sealed_wins_small = True
    for n_keys, key_bits in ((9_000, 24), (250_000, 40)):
        keys = np.unique(
            rng.integers(0, 1 << key_bits, n_keys, dtype=np.uint64)
        )
        counts = rng.integers(1, 200, keys.shape[0]).astype(np.uint32)
        hashed = CountHash.from_counts(keys, counts)
        sealed = SortedSpectrum.from_sorted(keys, counts)
        lines.append(f"  {keys.shape[0]:,d} keys ({key_bits}-bit)")
        lines.append(f"  {'ids':>7} {'hash':>9} {'sealed':>9}")
        crossover = None
        for batch in (8 << i for i in range(13)):  # 8 .. 32,768
            queries = np.concatenate([
                rng.choice(keys, batch // 2),
                rng.integers(0, 1 << key_bits, batch - batch // 2,
                             dtype=np.uint64),
            ])
            rng.shuffle(queries)
            calls = max(3, 16_384 // batch)
            t_hash = _us_per_call(hashed.lookup, queries, calls)
            t_sealed = _us_per_call(sealed.lookup, queries, calls)
            assert np.array_equal(hashed.lookup(queries), sealed.lookup(queries))
            if crossover is None and t_hash <= t_sealed:
                crossover = batch
            if batch <= 16:
                sealed_wins_small &= t_sealed < t_hash
            lines.append(f"  {batch:>7,d} {t_hash:>9.1f} {t_sealed:>9.1f}")
        lines.append(f"  crossover: {crossover:,} ids" if crossover
                     else "  crossover: above 32,768 ids")
    with capsys.disabled():
        print("\n".join(lines))
    assert sealed_wins_small


def test_size_sweep(benchmark, capsys):
    """Lookup time per query as the spectrum grows.

    The prior work's cache-aware layout matters because binary search
    costs grow with log(N) *and* cache misses; the hash table stays
    O(1).  This sweep shows the scaling of each backend.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rng = np.random.default_rng(11)
    lines = ["\n== Ablation: lookup cost vs spectrum size (ns/query) =="]
    lines.append(f"  {'entries':>10} {'hash':>8} {'sorted':>8} {'eytzinger':>10}")
    for n in (10_000, 100_000, 1_000_000):
        keys = np.unique(rng.integers(0, 2**62, n, dtype=np.uint64))
        counts = rng.integers(1, 100, keys.shape[0]).astype(np.uint32)
        queries = np.concatenate([
            rng.choice(keys, 50_000),
            rng.integers(0, 2**62, 50_000, dtype=np.uint64),
        ])
        table = CountHash.from_counts(keys, counts)
        row = [f"  {keys.shape[0]:>10,}"]
        for sp in (table, SortedSpectrum(keys, counts),
                   EytzingerSpectrum(keys, counts)):
            t0 = time.perf_counter()
            sp.lookup(queries)
            per_query = (time.perf_counter() - t0) / queries.shape[0]
            row.append(f"{per_query * 1e9:>8.0f}" if sp is not table
                       else f"{per_query * 1e9:>8.0f}")
        lines.append(" ".join(row))
    with capsys.disabled():
        print("\n".join(lines))
