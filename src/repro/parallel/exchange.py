"""Owner-directed collective exchanges (the Step III machinery).

Step II hands :func:`exchange_deltas` a round's distinct ``(key, count)``
pairs, ascending by key.  An owner is a range of keys
(:class:`~repro.parallel.ownership.KeySpace`), so each owner's bucket is
the slice between two cuts — no second sort.  The rank keeps its own
bucket; the pairs headed for each other owner are packed into one
contiguous uint64 array (keys in the first half, counts in the second) —
the buffer-per-destination discipline of ``MPI_Alltoallv`` — and the
owner sums what it receives with
:func:`~repro.hashing.counthash.merge_pairs`.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.counthash import CountHash
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.parallel.ownership import KeySpace
from repro.simmpi.communicator import Communicator

#: ``(keys, counts)`` arrays of equal length.
Pairs = tuple[np.ndarray, np.ndarray]


def bucket_by_owner(
    space: KeySpace, keys: np.ndarray, counts: np.ndarray, nranks: int
) -> list[Pairs]:
    """Split ascending ``(keys, counts)`` into one bucket per owning
    rank: the slices between the keys' cuts, each ascending."""
    if keys.shape != counts.shape:
        raise ValueError("keys and counts must have equal shapes")
    cuts = space.cuts(keys, nranks)
    return [
        (keys[lo:hi], counts[lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])
    ]


def pack_pairs(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """One ``[keys | counts]`` uint64 buffer: the wire form of a bucket."""
    return np.concatenate([keys, counts], dtype=np.uint64)


def unpack_pairs(buf: np.ndarray) -> Pairs:
    """Inverse of :func:`pack_pairs`: (keys, counts)."""
    buf = np.asarray(buf, dtype=np.uint64)
    m = buf.shape[0] // 2
    return buf[:m], buf[m:]


def exchange_deltas(
    comm: Communicator, space: KeySpace, keys: np.ndarray, counts: np.ndarray
) -> list[Pairs]:
    """Send each ``(key, count)`` pair to its owner; return what arrives.

    This is the Step III ``MPI_Alltoallv``, run as the session DELTA
    exchange.  The rank's own bucket never leaves it; every other bucket
    travels packed, 16 B a pair.  Because the exchange rides the
    collective tags, it is automatically reliable under a
    :class:`~repro.faults.FaultPlan` (collectives never drop).  It also
    keeps the session ledger: every call bumps
    ``session_delta_exchanges`` and charges the payload bytes routed to
    other ranks to ``session_delta_bytes``.  ``keys`` must be ascending.
    Returns the runs of pairs this rank owns — its own bucket, then one
    per sender, each ascending.
    """
    buckets = bucket_by_owner(space, keys, counts, comm.size)
    sendbufs = [
        np.empty(0, dtype=np.uint64) if dest == comm.rank
        else pack_pairs(*bucket)
        for dest, bucket in enumerate(buckets)
    ]
    comm.stats.bump("session_delta_exchanges")
    comm.stats.bump("session_delta_bytes", sum(int(b.nbytes) for b in sendbufs))
    received = comm.alltoallv(sendbufs)
    return [buckets[comm.rank]] + [
        unpack_pairs(buf) for src, buf in enumerate(received) if src != comm.rank
    ]


def fetch_global_counts(
    comm: Communicator,
    space: KeySpace,
    wanted: np.ndarray,
    owned: CountHash | SortedSpectrum,
) -> tuple[np.ndarray, np.ndarray]:
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
    counts = np.concatenate(replies) if replies else np.empty(0, np.uint64)
    return wanted, counts
