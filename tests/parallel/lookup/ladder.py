"""The tier-by-tier lookup round: the reference the ordered round is
held to.

Each stack runs its ids down its tiers one :class:`~repro.parallel.
lookup.tiers.Resolution` at a time (:meth:`LookupStack.resolve`); the
ids every stack that goes to the owners leaves open are then fetched in
one round and booked as ``remote``, and cached in the reads table under
*add remote lookups*.  That is how a round ran before it was ordered
once, so the counters this books — ``{kind}_lookups``, ``lookup_*``,
``table_probe_*``, ``remote_*`` and, through ``fetch``,
``blocking_request_counts`` — are what :meth:`StackPair.pair_counts`
must book on the same round, and the ``resolved_by`` it returns names
the tier that answers each id.
"""

import numpy as np

from repro.hashing.inthash import mix_to_rank
from repro.parallel.lookup.cache import add_fresh
from repro.parallel.lookup.tiers import BYTES_PER_HIT


def ladder_round(pair, kmer_ids, tile_ids, fetch):
    """``(k-mer Resolution, tile Resolution)`` of one round.

    ``fetch(kmer_ids, kmer_owners, tile_ids, tile_owners)`` answers the
    open ids, repeats included, as ``(k-mer counts, tile counts)`` and
    books the round's own counters (a protocol's ``request_counts``)."""
    stacks = (pair.kmers, pair.tiles)
    res = [
        stack.resolve(np.asarray(ids, dtype=np.uint64))
        for stack, ids in zip(stacks, (kmer_ids, tile_ids))
    ]
    open_ = [
        np.flatnonzero(r.unresolved) if stack.to_owners else np.empty(0, np.intp)
        for stack, r in zip(stacks, res)
    ]
    if open_[0].size + open_[1].size == 0:
        return tuple(res)
    asked = [r.ids[idx] for r, idx in zip(res, open_)]
    fetched = fetch(
        asked[0], _owners(asked[0], pair.kmers.comm.size),
        asked[1], _owners(asked[1], pair.kmers.comm.size),
    )
    for stack, r, idx, ids, counts in zip(stacks, res, open_, asked, fetched):
        n = idx.size
        if n == 0:
            continue
        stats = stack.comm.stats
        stats.bump(f"remote_{stack.kind}_lookups", n)
        for what, amount in (
            ("requests", n), ("hits", n), ("misses", 0),
            ("bytes", BYTES_PER_HIT * n),
        ):
            stats.bump(f"lookup_remote_{what}", amount)
        r.counts[idx] = counts
        r.resolved_by[idx] = len(stack.tiers)
        r.unresolved[idx] = False
        if stack.write_back is not None:
            add_fresh(stack.write_back, ids, counts)
    return tuple(res)


def _owners(ids, size):
    return np.asarray(mix_to_rank(ids, size), dtype=np.int64)


def oracle_fetch(stats, table):
    """A ``fetch`` answering from the authoritative global ``table``,
    booking what the wire round books: one blocking round, and the
    repeats it did not send."""

    def fetch(kmer_ids, kmer_owners, tile_ids, tile_owners):
        stats.bump("blocking_request_counts")
        for kind, ids in (("kmer", kmer_ids), ("tile", tile_ids)):
            stats.bump(
                f"remote_{kind}_ids_deduped", ids.size - np.unique(ids).size
            )
        return (
            table.lookup(kmer_ids).astype(np.uint32),
            table.lookup(tile_ids).astype(np.uint32),
        )

    return fetch
