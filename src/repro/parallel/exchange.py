"""Owner-directed collective exchanges (the Step III machinery).

Keys+counts headed for the same owner are packed into one contiguous
uint64 array per destination (keys in the first half, counts in the
second) — the buffer-per-destination discipline of ``MPI_Alltoallv`` —
then exchanged and merged into the owners' tables.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import CommunicatorError, LookupTimeoutError
from repro.hashing.counthash import CountHash
from repro.hashing.inthash import mix_to_rank
from repro.parallel.lookup.routing import partition_by_dest
from repro.simmpi.communicator import Communicator
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Tags


def bucket_by_owner(
    keys: np.ndarray, counts: np.ndarray, nranks: int
) -> list[np.ndarray]:
    """Pack (keys, counts) into one send buffer per owning rank.

    Buffer layout: ``[k0..k_{m-1}, c0..c_{m-1}]`` as uint64 — a single
    contiguous array per destination, cheap to concatenate and split.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    counts = np.ascontiguousarray(counts, dtype=np.uint64)
    if keys.shape != counts.shape:
        raise ValueError("keys and counts must have equal shapes")
    owners = np.asarray(mix_to_rank(keys, nranks), dtype=np.int64)
    order, boundaries = partition_by_dest(owners, nranks)
    sorted_keys = keys[order]
    sorted_counts = counts[order]
    out: list[np.ndarray] = []
    for d in range(nranks):
        lo, hi = boundaries[d], boundaries[d + 1]
        out.append(np.concatenate([sorted_keys[lo:hi], sorted_counts[lo:hi]]))
    return out


def unpack_pairs(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of the per-destination packing: (keys, counts)."""
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
    comm: Communicator, table: CountHash, target: CountHash
) -> int:
    """Send every (key, count) of ``table`` to its owner; merge arrivals.

    This is the Step III ``MPI_Alltoallv`` — keys+counts packed per
    destination — run as the session DELTA exchange: afterwards
    ``target`` (the rank's owned table) holds contributions from every
    rank for the keys this rank owns.  Because the exchange rides the
    collective tags, it is automatically reliable under a
    :class:`~repro.faults.FaultPlan` (collectives never drop).  It also
    keeps the session ledger: every call bumps
    ``session_delta_exchanges`` and charges the payload bytes routed to
    *other* ranks to ``session_delta_bytes``.  Returns the number of
    key/count pairs received.
    """
    keys, counts = table.items()
    sendbufs = bucket_by_owner(keys, counts.astype(np.uint64), comm.size)
    comm.stats.bump("session_delta_exchanges")
    comm.stats.bump(
        "session_delta_bytes",
        sum(int(b.nbytes) for d, b in enumerate(sendbufs) if d != comm.rank),
    )
    return add_packed(target, comm.alltoallv(sendbufs))


def fetch_global_counts(
    comm: Communicator, wanted: np.ndarray, owned: CountHash
) -> tuple[np.ndarray, np.ndarray]:
    """Collective lookup: global counts of ``wanted`` keys from their owners.

    Implements the *read k-mers/tiles* heuristic's extra exchange: every
    rank sends the keys it wants to their owners (alltoallv), answers the
    queries it receives from its own ``owned`` table, and gets its answers
    back (second alltoallv).  Returns ``(keys, counts)`` aligned arrays
    (counts are 0 for globally absent keys).
    """
    wanted = np.unique(np.ascontiguousarray(wanted, dtype=np.uint64))
    plan = comm.fault_plan
    if plan is not None and plan.has_frame_faults:
        return _fetch_global_counts_resilient(comm, wanted, owned, plan)
    owners = np.asarray(mix_to_rank(wanted, comm.size), dtype=np.int64)
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


def _fetch_global_counts_resilient(
    comm: Communicator, wanted: np.ndarray, owned: CountHash, plan
) -> tuple[np.ndarray, np.ndarray]:
    """Fault-mode :func:`fetch_global_counts`: point-to-point with retry.

    The query/reply alltoallv pair is replaced by sequence-numbered
    EXCHANGE_QUERY / EXCHANGE_ANSWER point-to-point messages (droppable,
    hence retried with exponential backoff), closed by a reliable
    EXCHANGE_DONE / EXCHANGE_RELEASE handshake through rank 0: a rank
    keeps serving queries until *every* rank has all its answers, so a
    laggard's retransmitted query always finds its owner listening.
    The sequence number comes from a per-communicator counter; the call
    is collective, so all ranks agree on it and late frames from an
    earlier exchange round are recognizably stale.

    Step IV's crashes all fire later (in the correction phase), so this
    path needs no replica failover — only frame-loss tolerance.
    """
    seq = getattr(comm, "_exchange_seq", 0) + 1
    comm._exchange_seq = seq
    owners = np.asarray(mix_to_rank(wanted, comm.size), dtype=np.int64)
    order, boundaries = partition_by_dest(owners, comm.size)
    sorted_keys = wanted[order]
    counts_sorted = np.zeros(wanted.shape[0], dtype=np.uint64)

    queries: dict[int, np.ndarray] = {}
    for d in range(comm.size):
        lo, hi = boundaries[d], boundaries[d + 1]
        if lo == hi:
            continue
        if d == comm.rank:
            # Serve-side self-answer from the authoritative shard.
            counts_sorted[lo:hi] = owned.lookup(sorted_keys[lo:hi])  # noqa: MPI007
            continue
        queries[d] = np.concatenate(
            [np.array([seq], dtype=np.uint64), sorted_keys[lo:hi]]
        )
        comm.send(d, queries[d], tag=Tags.EXCHANGE_QUERY)
    pending = set(queries)

    sleep_hint = 0.0 if comm.probe_yields else 0.002
    attempt = 0
    deadline = time.monotonic() + plan.timeout_for(attempt)
    released = False
    done_sent = False
    done_seen = 0  # rank 0 only

    def dispatch(msg) -> None:
        nonlocal done_seen, released
        if msg.tag == Tags.EXCHANGE_QUERY:
            payload = np.asarray(msg.payload, dtype=np.uint64)
            answer = np.concatenate(
                [payload[:1], owned.lookup(payload[1:]).astype(np.uint64)]  # noqa: MPI007
            )
            comm.send(msg.source, answer, tag=Tags.EXCHANGE_ANSWER)
        elif msg.tag == Tags.EXCHANGE_ANSWER:
            payload = np.asarray(msg.payload, dtype=np.uint64)
            if int(payload[0]) == seq and msg.source in pending:
                lo = boundaries[msg.source]
                hi = boundaries[msg.source + 1]
                counts_sorted[lo:hi] = payload[1:]
                pending.discard(msg.source)
            else:
                comm.stats.bump("stale_responses")
        elif msg.tag == Tags.EXCHANGE_DONE:
            done_seen += 1
        elif msg.tag == Tags.EXCHANGE_RELEASE:
            released = True
        else:
            raise CommunicatorError(
                f"unexpected tag {msg.tag} during resilient exchange"
            )

    while not released:
        probed = comm.iprobe(ANY_SOURCE, ANY_TAG)
        if probed is not None:
            dispatch(comm.recv(probed.source, probed.tag))
            if comm.rank == 0 and done_sent and done_seen == comm.size - 1:
                for d in range(1, comm.size):
                    comm.send(d, None, tag=Tags.EXCHANGE_RELEASE)
                released = True
            continue
        if pending:
            if time.monotonic() > deadline:
                comm.stats.bump("lookup_timeouts")
                attempt += 1
                if attempt > plan.max_retries:
                    raise LookupTimeoutError(
                        f"rank {comm.rank}: exchange owners "
                        f"{sorted(pending)} never answered seq {seq} "
                        f"within {plan.max_retries} retries",
                        rank=comm.rank,
                        pending=sorted(pending),
                        attempts=attempt,
                    )
                for d in sorted(pending):
                    comm.send(d, queries[d], tag=Tags.EXCHANGE_QUERY)
                    comm.stats.bump("lookup_retries")
                deadline = time.monotonic() + plan.timeout_for(attempt)
            elif sleep_hint:
                time.sleep(sleep_hint)
            continue
        if not done_sent:
            done_sent = True
            if comm.rank != 0:
                comm.send(0, None, tag=Tags.EXCHANGE_DONE)
            elif done_seen == comm.size - 1:
                for d in range(1, comm.size):
                    comm.send(d, None, tag=Tags.EXCHANGE_RELEASE)
                released = True
            continue
        if sleep_hint:
            time.sleep(sleep_hint)

    # Nobody may start the *next* exchange round (different owned table,
    # next seq) until every rank has left this serving loop — otherwise a
    # laggard would serve a fresh-seq query from the stale table.  The
    # barrier rides reliable collective tags, so it needs no retries.
    comm.barrier()
    counts = np.empty_like(counts_sorted)
    counts[order] = counts_sorted
    return wanted, counts
