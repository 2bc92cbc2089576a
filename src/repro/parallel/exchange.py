"""Owner-directed collective exchanges (the Step III machinery).

Step II hands :func:`exchange_deltas` a round's distinct ``(key, count)``
pairs.  The rank keeps its own bucket; the pairs headed for each other
owner are packed into one contiguous uint64 array (keys in the first
half, counts in the second) — the buffer-per-destination discipline of
``MPI_Alltoallv`` — and the owner sums what it receives with
:func:`~repro.hashing.counthash.merge_pairs`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.hashing.counthash import CountHash
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.hashing.inthash import mix_to_rank
from repro.parallel.lookup.routing import partition_by_dest
from repro.parallel.server import CorrectionProtocol
from repro.simmpi.communicator import Communicator

#: ``(keys, counts)`` arrays of equal length.
Pairs = tuple[np.ndarray, np.ndarray]


def bucket_by_owner(
    keys: np.ndarray, counts: np.ndarray, nranks: int
) -> list[Pairs]:
    """Split ``(keys, counts)`` into one bucket per owning rank.

    The split is stable, so ascending pairs give ascending buckets.
    """
    if keys.shape != counts.shape:
        raise ValueError("keys and counts must have equal shapes")
    owners = np.asarray(mix_to_rank(keys, nranks), dtype=np.int64)
    order, bounds = partition_by_dest(owners, nranks)
    keys, counts = keys[order], counts[order]
    return [
        (keys[lo:hi], counts[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def pack_pairs(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """One ``[keys | counts]`` uint64 buffer: the wire form of a bucket."""
    return np.concatenate([keys, counts], dtype=np.uint64)


def unpack_pairs(buf: np.ndarray) -> Pairs:
    """Inverse of :func:`pack_pairs`: (keys, counts)."""
    buf = np.asarray(buf, dtype=np.uint64)
    m = buf.shape[0] // 2
    return buf[:m], buf[m:]


def add_packed(target: CountHash, bufs: list[np.ndarray]) -> int:
    """Merge packed (keys, counts) buffers into ``target``; returns #pairs.

    One ``add_counts`` over the concatenation, not one per buffer: a key
    that several senders contribute is summed first and probed once.
    """
    pairs = [unpack_pairs(buf) for buf in bufs]
    keys = np.concatenate([k for k, _ in pairs])
    target.add_counts(keys, np.concatenate([c for _, c in pairs]))
    return int(keys.shape[0])


def exchange_deltas(
    comm: Communicator, keys: np.ndarray, counts: np.ndarray
) -> list[Pairs]:
    """Send each ``(key, count)`` pair to its owner; return what arrives.

    This is the Step III ``MPI_Alltoallv``, run as the session DELTA
    exchange.  The rank's own bucket never leaves it; every other bucket
    travels packed, 16 B a pair.  Because the exchange rides the
    collective tags, it is automatically reliable under a
    :class:`~repro.faults.FaultPlan` (collectives never drop).  It also
    keeps the session ledger: every call bumps
    ``session_delta_exchanges`` and charges the payload bytes routed to
    other ranks to ``session_delta_bytes``.  Returns the runs of pairs
    this rank owns — its own bucket, then one per sender, each ascending
    when ``keys`` were.
    """
    buckets = bucket_by_owner(keys, counts, comm.size)
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
    comm: Communicator, wanted: np.ndarray, owned: CountHash | SortedSpectrum
) -> tuple[np.ndarray, np.ndarray]:
    """Collective lookup: global counts of ``wanted`` keys from their owners.

    Implements the *read k-mers/tiles* heuristic's extra exchange: every
    rank sends the keys it wants to their owners (alltoallv), answers the
    queries it receives from its own ``owned`` table, and gets its answers
    back (second alltoallv).  Returns ``(keys, counts)`` aligned arrays
    (counts are 0 for globally absent keys).

    Under a plan with frame faults the alltoallv pair would hide the
    losses the plan scripts (collectives are reliable), so the exchange
    runs as a Step IV round instead (:func:`_request_global_counts`).
    """
    wanted = np.unique(np.ascontiguousarray(wanted, dtype=np.uint64))
    owners = np.asarray(mix_to_rank(wanted, comm.size), dtype=np.int64)
    plan = comm.fault_plan
    if plan is not None and plan.has_frame_faults:
        return wanted, _request_global_counts(comm, wanted, owners, owned, plan)
    order, boundaries = partition_by_dest(owners, comm.size)
    sorted_keys = wanted[order]
    queries = [
        sorted_keys[boundaries[d] : boundaries[d + 1]] for d in range(comm.size)
    ]
    incoming = comm.alltoallv(queries)
    # Step III serve side: answering peers' queries from the owned table
    # is this rank acting as the authority, not resolving counts.
    answers = [owned.lookup(q).astype(np.uint64) for q in incoming]  # noqa: MPI007
    replies = comm.alltoallv(answers)
    counts_sorted = np.concatenate(replies) if replies else np.empty(0, np.uint64)
    # Undo the owner sort to align with `wanted`.
    counts = np.empty_like(counts_sorted)
    counts[order] = counts_sorted
    return wanted, counts


def _request_global_counts(
    comm: Communicator, wanted: np.ndarray, owners: np.ndarray,
    owned: CountHash | SortedSpectrum, plan,
) -> np.ndarray:
    """Fault-mode :func:`fetch_global_counts`: a Step IV round over ``owned``.

    Sequence-numbered requests with retry, then the DONE/SHUTDOWN
    handshake, which keeps every rank serving until all have their
    answers — a laggard's retransmitted query always finds its owner
    listening.  Step IV's crashes all fire later (in the correction
    phase), so doomed ranks are still alive here: they serve, report
    DONE and need no failover routing, hence the plan without crashes.
    """
    protocol = CorrectionProtocol(
        comm, owned, owned, universal=True, faults=replace(plan, crashes=())
    )
    mine = owners == comm.rank
    counts = np.empty(wanted.shape[0], dtype=np.uint64)
    # Serve-side self-answer from the authoritative shard.
    counts[mine] = owned.lookup(wanted[mine])  # noqa: MPI007
    counts[~mine] = protocol.request_counts(
        wanted[~mine], owners[~mine], wanted[:0], owners[:0]
    )[0]
    protocol.finish()
    # Nobody may start the *next* exchange round (different owned table)
    # until every rank has left this one's serving loop — otherwise a
    # laggard would serve a fresh query from the stale table.  The
    # barrier rides reliable collective tags, so it needs no retries.
    comm.barrier()
    return counts
