"""The tier-by-tier lookup round: the reference the ordered round is
held to.

Each stack mixes its ids into keys and runs them down its tiers one
tier at a time, in input order, with a mask of what is still open
(:func:`resolve`, re-derived here from the tiers' tables, owners and
hit counters); the keys every stack that goes to the owners leaves open
are then fetched in one round and booked as ``remote``, and cached in
the reads table under *add remote lookups*.  That is how a round ran
before it was ordered once, so the counters this books — ``{kind}_lookups``, ``lookup_*``,
``table_probe_*``, ``remote_*`` and, through ``fetch``,
``blocking_request_counts`` — are what :meth:`StackPair.pair_counts`
must book on the same round, and the ``resolved_by`` it returns names
the tier that answers each id.
"""

from dataclasses import dataclass

import numpy as np

from repro.parallel.lookup.routing import KIND_KMER, KIND_TILE
from repro.parallel.lookup.stack import LookupRound, add_fresh
from repro.parallel.lookup.tiers import BYTES_PER_HIT, AuthorityTier, probe


@dataclass
class Resolution:
    """One stack's keys moving down its tiers: ``counts`` fill in,
    ``unresolved`` marks what is open, ``resolved_by`` the index (into
    the stack's names) of what answered each key, -1 while open."""

    ids: np.ndarray
    counts: np.ndarray
    unresolved: np.ndarray
    resolved_by: np.ndarray


def _book(stats, name, presented, hits):
    for what, amount in (
        ("requests", presented), ("hits", hits),
        ("misses", presented - hits), ("bytes", BYTES_PER_HIT * hits),
    ):
        stats.bump(f"lookup_{name}_{what}", amount)


def resolve(stack, keys, stats):
    """Run ``keys`` down ``stack``'s tiers one at a time, booking what
    its walk books."""
    n = keys.shape[0]
    res = Resolution(
        keys, np.zeros(n, np.uint32), np.ones(n, bool), np.full(n, -1, np.int8)
    )
    stats.bump(f"{stack.kind}_lookups", n)
    for index, tier in enumerate(stack.tiers):
        open_ = np.flatnonzero(res.unresolved)
        if open_.size == 0:
            break
        if isinstance(tier, AuthorityTier):
            hit = open_
            if tier.owners is not None:
                owners = stack.space.owners(keys[open_], stack.comm.size)
                hit = open_[np.isin(owners, list(tier.owners))]
            if hit.size:
                res.counts[hit] = probe(tier.table.lookup, keys[hit], stats)
        else:
            counts, found = probe(tier.table.lookup_found, keys[open_], stats)
            hit = open_[found]
            res.counts[hit] = counts[found]
            if hit.size:
                stats.bump(tier.hit_counter, hit.size)
        _book(stats, tier.name, open_.size, hit.size)
        res.resolved_by[hit] = index
        res.unresolved[hit] = False
    return res


def ladder_round(pair, kmer_ids, tile_ids, fetch):
    """``(k-mer Resolution, tile Resolution)`` of one round.

    ``fetch(kmer_keys, tile_keys)`` answers the open keys, repeats
    included, as ``(k-mer counts, tile counts)`` and books the round's
    own counters (what a lookup round's ``ask`` books)."""
    stacks = (pair.kmers, pair.tiles)
    res = [
        resolve(stack, stack.space.keys(ids), stack.comm.stats)
        for stack, ids in zip(stacks, (kmer_ids, tile_ids))
    ]
    open_ = [
        np.flatnonzero(r.unresolved) if stack.to_owners else np.empty(0, np.intp)
        for stack, r in zip(stacks, res)
    ]
    if open_[0].size + open_[1].size == 0:
        return tuple(res)
    asked = [r.ids[idx] for r, idx in zip(res, open_)]
    fetched = fetch(*asked)
    for stack, r, idx, ids, counts in zip(stacks, res, open_, asked, fetched):
        n = idx.size
        if n == 0:
            continue
        stats = stack.comm.stats
        stats.bump(f"remote_{stack.kind}_lookups", n)
        _book(stats, "remote", n, n)
        r.counts[idx] = counts
        r.resolved_by[idx] = len(stack.tiers)
        r.unresolved[idx] = False
        if stack.write_back is not None:
            add_fresh(stack.write_back, ids, counts)
    return tuple(res)


def oracle_fetch(stats, table):
    """A ``fetch`` answering from the authoritative global ``table``,
    booking what the wire round books: one blocking round, and the
    repeats it did not send."""

    def fetch(kmer_ids, tile_ids):
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


def wire_fetch(protocol, spaces):
    """A ``fetch`` asking the owners through ``protocol``: the keys as
    one lookup round with no local tier, every position open."""

    def fetch(kmer_keys, tile_keys):
        rnd = LookupRound(kmer_keys, tile_keys, spaces, protocol.comm.size)
        kpos, tpos = rnd.positions(KIND_KMER), rnd.positions(KIND_TILE)
        if kpos.size or tpos.size:
            rnd.ask(kpos, tpos, protocol, protocol.comm.stats)
        return rnd.answers()

    return fetch
