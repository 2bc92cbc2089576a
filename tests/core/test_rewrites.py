"""The corrector's look-ahead: the later tiles a correction rewrites.

A candidate tile travels with the later tiles it would rewrite, so a
view that messages settles a winner's rewritten tiles in the winner's
own round — and needs exactly the rounds a local view needs.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import ReptileConfig
from repro.core.corrector import ReptileCorrector
from repro.core.spectrum import LocalSpectrumView, SpectrumPair, build_spectra
from repro.io.records import ReadBlock
from repro.kmer.bitpack import pack_block, substitute_many, windows_at
from repro.kmer.neighbors import substitute_at


def _random_block(rng, n, lengths, ambiguous=0.0):
    reads = []
    for _ in range(n):
        seq = rng.choice(list("ACGT"), size=int(rng.choice(lengths)))
        seq[rng.random(seq.size) < ambiguous] = "N"
        reads.append("".join(seq))
    return ReadBlock.from_strings(reads)


def _later_ids(packed, state, row, col, w):
    """Every later valid tile of a read, by cell, from the packed words."""
    t = state.width
    starts = state.starts[row]
    cols = [c for c in range(col + 1, t) if starts[c] >= 0]
    if not cols:
        return {}
    ids, ok = windows_at(
        packed, np.full(len(cols), row, dtype=np.int64),
        np.array([starts[c] for c in cols], dtype=np.int64), w,
    )
    return {
        row * t + c: int(i) for c, i, good in zip(cols, ids, ok) if good
    }


@pytest.mark.parametrize("k, overlap, lengths, ambiguous", [
    pytest.param(4, 2, [17], 0.0, id="uniform-shifted-last"),
    pytest.param(4, 3, [14, 15], 0.0, id="step-1"),
    pytest.param(4, 0, [19, 20, 21], 0.0, id="overlap-0"),
    pytest.param(4, 2, [6, 9, 13, 16], 0.05, id="ragged-ambiguous"),
    pytest.param(12, 4, [50, 57, 63], 0.01, id="k12-ragged-ambiguous"),
])
def test_rewrites_match_substituted_copy(k, overlap, lengths, ambiguous):
    """For each candidate, the look-ahead cells and ids are exactly the
    later tiles whose id changes when that candidate alone is written
    into a copy of the packed block."""
    rng = np.random.default_rng(k * 100 + overlap)
    cfg = ReptileConfig(
        kmer_length=k, tile_overlap=overlap,
        kmer_threshold=1, tile_threshold=1,
    )
    corr = ReptileCorrector(
        cfg, LocalSpectrumView(SpectrumPair(shape=cfg.tile_shape))
    )
    w = cfg.tile_shape.length
    block = _random_block(rng, 40, lengths, ambiguous)
    packed = pack_block(block.codes, block.lengths)
    state, _, _ = corr._first_round(packed, block.lengths)
    t = state.width
    valid = (
        state.starts.reshape(-1) >= 0 if state.valid is None else state.valid
    )
    sites = np.flatnonzero(valid)
    assert sites.size
    rows, cols = sites // t, sites % t
    starts = state.starts.reshape(-1)[sites]
    olds = corr._tile_ids(packed, rows, starts)
    # Every distance-1 change at every position of every valid tile.
    owner = np.repeat(np.arange(sites.size, dtype=np.int64), 3 * w)
    pos = np.tile(np.arange(w, dtype=np.int64), sites.size)
    cands = substitute_at(np.repeat(olds, w), w, pos).ravel()
    cells, ids, change = corr._rewrites(
        packed, state, rows, starts, owner, cands ^ olds[owner]
    )
    assert np.all(np.diff(change) >= 0)
    checked = 0
    for i in range(cands.size):
        s = owner[i]
        codes = block.codes.copy()
        copy = pack_block(codes, block.lengths)
        before = _later_ids(copy, state, rows[s], cols[s], w)
        substitute_many(
            copy, rows[s : s + 1], starts[s : s + 1],
            olds[s : s + 1], cands[i : i + 1], w,
        )
        after = _later_ids(copy, state, rows[s], cols[s], w)
        want = {c: v for c, v in after.items() if v != before[c]}
        lo, hi = np.searchsorted(change, [i, i + 1])
        got = dict(zip(cells[lo:hi].tolist(), ids[lo:hi].tolist()))
        assert list(got) == sorted(got)  # by column within a change
        assert got == want, f"candidate {i} at site {s}"
        checked += len(want)
    assert checked  # the geometry has tiles that overlap


class _PairView:
    """A view that messages, answered from a local view: one
    ``pair_counts`` call is one round."""

    def __init__(self, spectra):
        self._inner = LocalSpectrumView(spectra)
        self.rounds = 0

    def pair_counts(self, kmer_ids, tile_ids):
        self.rounds += 1
        return self._inner.kmer_counts(kmer_ids), self._inner.tile_counts(
            tile_ids
        )


class _RoundCountingView(LocalSpectrumView):
    """A local view's rounds: round 0, then one k-mer call a round."""

    def __init__(self, spectra):
        super().__init__(spectra)
        self.rounds = 1

    def kmer_counts(self, ids):
        self.rounds += 1
        return super().kmer_counts(ids)


def local_rounds(config, spectra, block):
    """The corrected codes and the rounds a local view needs."""
    view = _RoundCountingView(spectra)
    result = ReptileCorrector(config, view).correct_block(block)
    return result.block.codes, view.rounds


@pytest.mark.parametrize("data, updates", [
    pytest.param("tiny_dataset", {}, id="uniform"),
    pytest.param("bursty_dataset", {}, id="bursty"),
    pytest.param("tiny_dataset", {"max_distance": 2}, id="distance-2"),
    pytest.param("tiny_dataset", {"ambiguity_ratio": 1.0}, id="ratio-ties"),
    pytest.param("tiny_dataset", {"tile_overlap": 11}, id="step-1"),
])
def test_messaging_rounds_equal_local_rounds(request, tiny_config, data,
                                             updates):
    block = request.getfixturevalue(data).block
    config = dataclasses.replace(tiny_config, **updates)
    spectra = build_spectra(block, config)
    want, rounds = local_rounds(config, spectra, block)
    view = _PairView(spectra)
    got = ReptileCorrector(config, view).correct_block(block)
    assert np.array_equal(got.block.codes, want)
    assert view.rounds == rounds > 2
