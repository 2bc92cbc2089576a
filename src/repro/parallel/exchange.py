"""Owner-directed collective exchanges (the Step III machinery).

Step II hands :func:`exchange_deltas` a round's distinct ``(key, count)``
pairs of every kind, each kind ascending by key.  An owner is a range of
keys (:class:`~repro.parallel.ownership.KeySpace`), so each owner's
bucket of a kind is the slice between two cuts — no second sort.  The
rank keeps its own buckets; the buckets headed for each other owner, of
every kind, travel in one frame of that owner's ``MPI_Alltoallv`` buffer
— the buffer-per-destination discipline — at table width
(:func:`~repro.hashing.counthash.narrow_pairs`), and the owner sums what
it receives with :func:`~repro.hashing.counthash.merge_pairs`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.hashing.counthash import CountHash
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.parallel.ownership import KeySpace
from repro.simmpi.communicator import Communicator

#: ``(keys, counts)`` arrays of equal length.
Pairs = tuple[NDArray[Any], NDArray[Any]]


def bucket_by_owner(
    space: KeySpace, keys: NDArray[Any], counts: NDArray[Any], nranks: int
) -> list[Pairs]:
    """Split ascending ``(keys, counts)`` into one bucket per owning
    rank: the slices between the keys' cuts, each ascending."""
    if keys.shape != counts.shape:
        raise ValueError("keys and counts must have equal shapes")
    cuts = space.cuts(keys, nranks)
    return [
        (keys[lo:hi], counts[lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


def exchange_deltas(
    comm: Communicator, kinds: Sequence[tuple[KeySpace, Pairs]]
) -> list[list[Pairs]]:
    """Send each ``(key, count)`` pair of every kind to its owner; return
    what arrives, kind by kind.

    This is the Step III ``MPI_Alltoallv``, run as the session DELTA
    exchange: one collective round whatever the number of kinds.  The
    rank's own buckets never leave it; every other owner gets one frame
    holding its bucket of each kind, keys then counts, at the width the
    pairs came in (table width, 6 B a k = 12 k-mer and 10 B a tile).
    Because the exchange rides the collective tags, it is automatically
    reliable under a :class:`~repro.faults.FaultPlan` (collectives never
    drop).  It also keeps the session ledger: every call bumps
    ``session_delta_exchanges`` once and charges the array bytes routed
    to other ranks to ``session_delta_bytes``.  Each kind's keys must be
    ascending.  Returns, per kind, the runs of pairs this rank owns —
    its own bucket, then one per sender, each ascending.
    """
    rank, size = comm.rank, comm.size
    buckets = [bucket_by_owner(space, *pairs, size) for space, pairs in kinds]
    frames: list[tuple[NDArray[Any], ...]] = [
        () if dest == rank
        else tuple(part for kind in buckets for part in kind[dest])
        for dest in range(size)
    ]
    comm.stats.bump("session_delta_exchanges")
    comm.stats.bump(
        "session_delta_bytes",
        sum(int(part.nbytes) for frame in frames for part in frame),
    )
    received = comm.alltoallv(frames)
    return [
        [kind[rank]] + [
            frame[2 * i : 2 * i + 2]
            for src, frame in enumerate(received) if src != rank
        ]
        for i, kind in enumerate(buckets)
    ]


def fetch_global_counts(
    comm: Communicator,
    space: KeySpace,
    wanted: NDArray[Any],
    owned: CountHash | SortedSpectrum,
) -> Pairs:
    """Collective lookup: global counts of ``wanted`` keys from their owners.

    Implements the *read k-mers/tiles* heuristic's extra exchange: every
    rank sends the keys it wants to their owners (alltoallv), answers the
    queries it receives from its own ``owned`` table, and gets its answers
    back (second alltoallv).  Returns the distinct ``wanted`` keys,
    ascending, and their counts (0 for globally absent keys): the
    owners' answers come back in key order, cut as the queries were.

    This is the paper's "additional collective communication step", and
    like the DELTA exchange it rides the collective tags, so it is
    reliable under a :class:`~repro.faults.FaultPlan` too.
    """
    wanted = np.unique(np.ascontiguousarray(wanted, dtype=np.uint64))
    cuts = space.cuts(wanted, comm.size)
    incoming = comm.alltoallv(
        [wanted[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    )
    # Step III serve side: answering peers' queries from the owned table
    # is this rank acting as the authority, not resolving counts.
    answers = [owned.lookup(q).astype(np.uint64) for q in incoming]  # noqa: MPI007
    replies = comm.alltoallv(answers)
    counts: NDArray[Any] = (
        np.concatenate(replies) if replies else np.empty(0, np.uint64)
    )
    return wanted, counts
