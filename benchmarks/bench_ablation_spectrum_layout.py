"""Ablation: hash-table spectra vs the prior work's sorted-array layouts.

The paper replaced Shah/Jammula's sorted lists ("look-up operations
involving repeated binary searches", later improved with a cache-aware
layout) with hash tables.  This benchmark measures batch lookup throughput
of the three backends on a realistic spectrum-sized key set and mixed
hit/miss query stream — the access pattern of the correction phase.
"""

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

    A sorted array is 12 B per entry (uint64 key + uint32 count); the hash
    table pays its <= 0.60 load on top of a slot that is as narrow as its
    contents (uint64 key + uint16 flag-and-count here: 10 B).  Two uint64
    per slot measured 3.5x the sorted array on this key set.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    per_entry = {name: sp.nbytes / len(sp) for name, sp in backends.items()}
    with capsys.disabled():
        print("\n== Ablation: spectrum backend memory ==")
        for name, sp in backends.items():
            print(f"  {name:10s} {sp.nbytes / 2**20:7.2f} MiB "
                  f"({len(sp):,d} entries, {per_entry[name]:.1f} B/entry)")
    assert per_entry["hash"] <= 2.5 * per_entry["sorted"]


def test_size_sweep(benchmark, capsys):
    """Lookup time per query as the spectrum grows.

    The prior work's cache-aware layout matters because binary search
    costs grow with log(N) *and* cache misses; the hash table stays
    O(1).  This sweep shows the scaling of each backend.
    """
    import time

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
