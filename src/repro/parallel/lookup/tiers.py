"""The composable tiers of the count-resolution stack.

Each tier answers one question — *can this layer of storage resolve the
id without going further?* — over the still-unresolved portion of a
:class:`Resolution` in flight.  The paper's Section III-B "lookup
ladder" is the particular ordering
``owned → allgather → group → reads-table → remote`` that
:func:`repro.parallel.lookup.stack.compile_stacks` builds from a
:class:`~repro.parallel.heuristics.HeuristicConfig`; the prefetch engine
prepends the chunk cache as tier 0.

Two counter families are recorded into
:class:`~repro.simmpi.instrument.CommStats`:

* the **per-tier family** ``lookup_<tier>_{requests,hits,misses,bytes}``
  (bumped by the stack around each tier), where at every tier
  ``hits + misses == requests`` and ``bytes`` counts the key+count
  payload resolved there (12 bytes per hit);
* the **per-kind counters**, split by spectrum (``kmer`` / ``tile``),
  which the per-tier family is not: ``reads_table_{kind}_hits``,
  ``remote_{kind}_lookups``, ``remote_{kind}_ids_deduped`` and
  ``prefetch_{kind}_hits``, bumped *inside* those four tiers (beside
  the stack's ``{kind}_lookups`` entry count).  They remain because
  :mod:`repro.perfmodel.workload` and the end-to-end ledger
  (``benchmarks/e2e/ledger.py``) read them per kind.  The owned,
  allgather and group tiers bump none: their hits are
  ``lookup_owned_hits``, ``lookup_allgather_hits`` and
  ``lookup_group_hits``.

Every :class:`~repro.hashing.counthash.CountHash` call a tier makes is
also counted, as ``table_probe_calls`` and ``table_probe_ids``
(:func:`probe`; the serving side counts its own the same way).

The remote tier is the one tier that cannot resolve on its own: a
lookup round asks the owners for *both* spectra at once, so
:class:`~repro.parallel.lookup.stack.StackPair` collects what each
stack's :class:`RemoteFetchTier` still needs (:meth:`~RemoteFetchTier.
outstanding`), makes the one pair request, and hands each tier its
answers back (:meth:`~RemoteFetchTier.settle`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence, TypeVar

import numpy as np
from numpy.typing import NDArray

from repro.hashing.counthash import CountHash
from repro.hashing.inthash import mix_to_rank
from repro.util.timer import PhaseTimer

#: Bytes of resolved payload charged per hit in the per-tier ``bytes``
#: counter: an 8-byte key plus a 4-byte count.
BYTES_PER_HIT = 12


class StatsSink(Protocol):
    """The slice of :class:`~repro.simmpi.instrument.CommStats` tiers use."""

    def bump(self, name: str, amount: int = 1) -> None: ...


class RemoteProtocol(Protocol):
    """What a remote lookup round needs from a correction protocol: one
    request per owner for both spectra, answered as ``(k-mer counts,
    tile counts)``."""

    def request_counts(
        self,
        kmer_ids: NDArray[np.uint64],
        kmer_owners: NDArray[np.int64],
        tile_ids: NDArray[np.uint64],
        tile_owners: NDArray[np.int64],
    ) -> tuple[NDArray[np.uint32], NDArray[np.uint32]]: ...


_Answer = TypeVar("_Answer")


def probe(
    lookup: Callable[[NDArray[np.uint64]], _Answer],
    ids: NDArray[np.uint64],
    stats: StatsSink,
    record_stats: bool = True,
) -> _Answer:
    """``lookup(ids)`` — a :class:`CountHash` ``lookup`` or
    ``lookup_found`` — counted as one table probe of ``ids.size`` ids."""
    if record_stats:
        stats.bump("table_probe_calls")
        stats.bump("table_probe_ids", int(ids.size))
    return lookup(ids)


@dataclass
class Resolution:
    """One lookup batch moving down the tier stack.

    ``counts`` fills in as tiers resolve ids; ``unresolved`` marks what
    is still open; ``resolved_by`` records the index (into the stack's
    tier tuple) of the tier that answered each id, -1 while open —
    which is what lets the prefetch planner deposit ladder-resolved ids
    into the chunk cache without re-probing every tier.
    """

    ids: NDArray[np.uint64]
    counts: NDArray[np.uint32]
    unresolved: NDArray[np.bool_]
    resolved_by: NDArray[np.int8]
    #: World size, for owner derivation.
    size: int
    _owners: NDArray[np.int64] | None = field(default=None, repr=False)

    @property
    def owners(self) -> NDArray[np.int64]:
        """Owning rank of every id (computed once, on first use)."""
        if self._owners is None:
            self._owners = np.asarray(
                mix_to_rank(self.ids, self.size), dtype=np.int64
            )
        return self._owners


class LookupTier:
    """One layer of count storage; subclasses resolve what they can."""

    #: Stable tier name used in counters, reports and MPI007 docs.
    name: str = "tier"
    #: True when resolving here may send messages (skipped by the
    #: prefetch planner's local-only resolution).
    messaging: bool = False

    def __init__(self, kind: str) -> None:
        #: ``"kmer"`` or ``"tile"`` — selects the per-kind counter names.
        self.kind = kind

    def resolve(
        self, req: Resolution, stats: StatsSink, record_stats: bool
    ) -> NDArray[np.bool_]:
        """Fill ``req.counts`` for ids this tier can answer.

        Returns the mask (aligned with ``req.ids``) of ids newly
        resolved here; must only resolve ids with ``req.unresolved``
        set.  Bumps this tier's per-kind counters, if it has any, when
        ``record_stats``; the per-tier family is the stack's job.
        """
        raise NotImplementedError


class ChunkCacheTier(LookupTier):
    """Tier 0 under prefetch: the rank-wide cache of fetched counts.

    The planner resolves every id it enumerates into the cache — owned
    and fetched alike — so a pass's lookups are expected to be
    all-cached and cost one probe, as cheap as the serial view.  Runs
    *before* the owned shard so that invariant holds observably: the
    ``prefetch_{kind}_hits`` counter measures exactly how often the
    plan already covered a lookup.
    """

    name = "chunk_cache"

    def __init__(self, kind: str, table: CountHash) -> None:
        super().__init__(kind)
        self.table = table

    def resolve(
        self, req: Resolution, stats: StatsSink, record_stats: bool
    ) -> NDArray[np.bool_]:
        idx = np.nonzero(req.unresolved)[0]
        counts, found = probe(
            self.table.lookup_found, req.ids[idx], stats, record_stats
        )
        hit = idx[found]
        newly = np.zeros_like(req.unresolved)
        if hit.size:
            req.counts[hit] = counts[found]
            newly[hit] = True
            if record_stats:
                stats.bump(f"prefetch_{self.kind}_hits", int(hit.size))
        return newly


class OwnedShardTier(LookupTier):
    """The rank's own shard — authoritative for the ids it owns."""

    name = "owned"

    def __init__(self, kind: str, table: CountHash, rank: int) -> None:
        super().__init__(kind)
        self.table = table
        self.rank = rank

    def resolve(
        self, req: Resolution, stats: StatsSink, record_stats: bool
    ) -> NDArray[np.bool_]:
        mine = req.unresolved & (req.owners == self.rank)
        if mine.any():
            req.counts[mine] = probe(
                self.table.lookup, req.ids[mine], stats, record_stats
            )
        return mine


class AllgatherReplicaTier(LookupTier):
    """A fully replicated spectrum — authoritative for every id.

    Under the allgather heuristics the owned table holds the whole
    spectrum, so this tier terminates resolution; the stack compiler
    places nothing after it.  (The serial reference compiles to exactly
    one of these per spectrum: serial is the degenerate world where
    every table is "replicated".)
    """

    name = "allgather"

    def __init__(self, kind: str, table: CountHash) -> None:
        super().__init__(kind)
        self.table = table

    def resolve(
        self, req: Resolution, stats: StatsSink, record_stats: bool
    ) -> NDArray[np.bool_]:
        sel = req.unresolved.copy()
        if sel.all():
            # Common case (first authoritative tier): skip the masked
            # gather/scatter copies and look the whole batch up directly.
            req.counts[:] = probe(
                self.table.lookup, req.ids, stats, record_stats
            )
        else:
            req.counts[sel] = probe(
                self.table.lookup, req.ids[sel], stats, record_stats
            )
        return sel


class ReplicationGroupTier(LookupTier):
    """Partial replication: the merged shards of this rank's group.

    Authoritative for ids owned by any group member, so only lookups
    owned *outside* the group fall through (the paper's Section V
    future-work idea).
    """

    name = "group"

    def __init__(
        self, kind: str, table: CountHash, group_ranks: Sequence[int]
    ) -> None:
        super().__init__(kind)
        self.table = table
        self.group_ranks = np.asarray(group_ranks, dtype=np.int64)

    def resolve(
        self, req: Resolution, stats: StatsSink, record_stats: bool
    ) -> NDArray[np.bool_]:
        in_group = req.unresolved & np.isin(req.owners, self.group_ranks)
        if in_group.any():
            req.counts[in_group] = probe(
                self.table.lookup, req.ids[in_group], stats, record_stats
            )
        return in_group


class ReadsTableTier(LookupTier):
    """The reads-table heuristic: global counts cached for this rank's
    own reads (and the write-back target of *add remote lookups*).

    A cache, not an authority: absence means "never cached", so a miss
    falls through rather than answering 0.
    """

    name = "reads_table"

    def __init__(self, kind: str, table: CountHash) -> None:
        super().__init__(kind)
        self.table = table

    def resolve(
        self, req: Resolution, stats: StatsSink, record_stats: bool
    ) -> NDArray[np.bool_]:
        idx = np.nonzero(req.unresolved)[0]
        counts, cached = probe(
            self.table.lookup_found, req.ids[idx], stats, record_stats
        )
        hit = idx[cached]
        newly = np.zeros_like(req.unresolved)
        if hit.size:
            req.counts[hit] = counts[cached]
            newly[hit] = True
            if record_stats:
                stats.bump(
                    f"reads_table_{self.kind}_hits", int(hit.size)
                )
        return newly


@dataclass
class Outstanding:
    """What one stack still needs from the owners in a lookup round."""

    #: Positions (into the resolution) of the ids left open.
    idx: NDArray[np.int64]
    #: The distinct open ids, each travelling once, and their owners.
    ids: NDArray[np.uint64]
    owners: NDArray[np.int64]
    #: ``ids[inverse]`` is the open ids in resolution order.
    inverse: NDArray[np.int64]


class RemoteFetchTier(LookupTier):
    """The bottom of the stack: what the owning ranks must answer.

    The tier does not message by itself.  A lookup round resolves both
    spectra down to here, then makes one request per owner for both
    (:meth:`repro.parallel.lookup.stack.StackPair.resolve`) through the
    protocol — which transparently runs either the blocking or the
    sequence-numbered resilient wire exchange, and routes doomed owners
    to their recovery partners.  The tier's half is to dedup its open
    ids (each distinct id travels once; :meth:`outstanding`), then
    scatter the answers back and optionally write them into the reads
    table (*add remote lookups*; :meth:`settle`).  It always resolves
    everything it is given: an owner that cannot answer is a protocol
    error, not a miss.
    """

    name = "remote"
    messaging = True

    def __init__(
        self,
        kind: str,
        protocol: RemoteProtocol,
        timer: PhaseTimer,
        write_back: CountHash | None = None,
    ) -> None:
        super().__init__(kind)
        self.protocol = protocol
        self.timer = timer
        #: Reads table to cache fetched counts into (the *add remote
        #: lookups* heuristic), or None.
        self.write_back = write_back

    def outstanding(
        self, req: Resolution, stats: StatsSink, record_stats: bool
    ) -> Outstanding:
        """The distinct open ids of ``req`` and their owners."""
        idx = np.nonzero(req.unresolved)[0]
        remote_ids = req.ids[idx]
        if record_stats:
            stats.bump(f"remote_{self.kind}_lookups", int(remote_ids.size))
        # Duplicates within a lookup batch would travel repeatedly; send
        # each distinct id once and scatter the answer back.
        uniq, first, inverse = np.unique(
            remote_ids, return_index=True, return_inverse=True
        )
        if record_stats:
            stats.bump(
                f"remote_{self.kind}_ids_deduped",
                int(remote_ids.size - uniq.size),
            )
        return Outstanding(idx, uniq, req.owners[idx[first]], inverse)

    def settle(
        self, req: Resolution, open_: Outstanding, fetched: NDArray[np.uint32]
    ) -> NDArray[np.bool_]:
        """Scatter the owners' answers into ``req``; returns the mask of
        ids resolved here (every open one)."""
        req.counts[open_.idx] = fetched[open_.inverse]
        if self.write_back is not None:
            # Cache what we learned (including global absence as 0).
            fresh = ~self.write_back.contains(open_.ids)
            if fresh.any():
                self.write_back.add_counts(
                    open_.ids[fresh], fetched[fresh].astype(np.uint64)
                )
        return req.unresolved.copy()
