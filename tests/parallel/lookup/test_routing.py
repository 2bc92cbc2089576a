"""Routing a sorted run of keys to its owners is a cut.

An owner is a range of keys, so the positions of an ascending key array
bucket by destination exactly as the plain comparison-sort formula over
their owners would — ``KeySpace.cuts`` ≡ ``searchsorted(owners, ranks)``
— without sorting anything.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.ownership import KeySpace

SPACE = KeySpace(24)


def _reference(dests, size):
    """Bounds of each destination's positions, by the plain formula."""
    return np.searchsorted(np.sort(dests), np.arange(size + 1))


def _keys_owned_by(dests, size):
    """An ascending key array whose i-th key is owned by ``sorted(dests)[i]``
    (each the lowest key of its owner, plus a step within the range)."""
    starts = np.concatenate([[0], SPACE.starts(size)]).astype(np.uint64)
    dests = np.sort(np.asarray(dests, dtype=np.int64))
    offsets = np.arange(dests.shape[0], dtype=np.uint64) % np.uint64(2)
    return (starts[dests] + offsets).astype(SPACE.dtype)


def _assert_same(dests, size):
    keys = _keys_owned_by(dests, size)
    assert np.array_equal(SPACE.owners(keys, size), np.sort(dests))
    cuts = SPACE.cuts(keys, size)
    np.testing.assert_array_equal(cuts, _reference(np.asarray(dests), size))


@st.composite
def _cases(draw):
    size = draw(st.sampled_from([1, 2, 3, 8, 255, 256, 300, 70_000]))
    # Some destinations get no position at all: draw from a subset.
    live = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=6))
    picks = draw(st.lists(st.sampled_from(live), max_size=200))
    return np.array(picks, dtype=np.int64), size


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_matches_reference_formula(case):
    _assert_same(*case)


@pytest.mark.parametrize(
    "dests, size",
    [
        ([], 1),                      # nothing to route, one rank
        ([], 8),
        ([0, 0, 0], 1),               # size = 1: every position is local
        ([5, 5, 5, 5], 8),            # one bucket holds everything
        ([0, 1, 1, 4, 7], 8),         # already non-decreasing
        ([7, 0, 7, 2, 0], 8),         # ranks 1, 3-6 get nothing
        ([255, 0, 256, 255], 257),    # straddles the 8/16-bit boundary
    ],
)
def test_pinned_cases(dests, size):
    _assert_same(np.array(dests, dtype=np.int64), size)


def test_buckets_are_stable_slices():
    keys = _keys_owned_by([2, 0, 2, 1, 0, 2], 4)
    cuts = SPACE.cuts(keys, 4)
    buckets = [list(range(cuts[d], cuts[d + 1])) for d in range(4)]
    assert buckets == [[0, 1], [2], [3, 4, 5], []]
