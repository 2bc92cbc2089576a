"""``partition_by_dest`` ≡ the two-line comparison-sort formula.

The function sorts a narrowed copy of the destinations (a radix sort);
whatever it does inside, callers index with exactly what the plain
formula returns — same values, same dtypes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.lookup.routing import partition_by_dest


def _reference(dests, size):
    order = np.argsort(dests, kind="stable")
    bounds = np.searchsorted(dests[order], np.arange(size + 1))
    return order, bounds


def _assert_same(dests, size):
    order, bounds = partition_by_dest(dests, size)
    ref_order, ref_bounds = _reference(dests, size)
    assert order.dtype == ref_order.dtype and bounds.dtype == ref_bounds.dtype
    np.testing.assert_array_equal(order, ref_order)
    np.testing.assert_array_equal(bounds, ref_bounds)


@st.composite
def _cases(draw):
    size = draw(st.sampled_from([1, 2, 3, 8, 255, 256, 300, 70_000]))
    # Some destinations get no position at all: draw from a subset.
    live = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=6))
    picks = draw(st.lists(st.sampled_from(live), max_size=200))
    if draw(st.booleans()):
        picks.sort()
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
    dests = np.array([2, 0, 2, 1, 0, 2], dtype=np.int64)
    order, bounds = partition_by_dest(dests, 4)
    buckets = [order[bounds[d]:bounds[d + 1]].tolist() for d in range(4)]
    assert buckets == [[1, 4], [3], [0, 2, 5], []]
