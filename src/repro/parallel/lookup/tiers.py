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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence

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
    """What :class:`RemoteFetchTier` needs from a correction protocol."""

    def request_counts(
        self,
        kind: int,
        ids: NDArray[np.uint64],
        owners: NDArray[np.int64],
    ) -> NDArray[np.uint32]: ...


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
        counts, found = self.table.lookup_found(req.ids[idx])
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
            req.counts[mine] = self.table.lookup(req.ids[mine])
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
            req.counts[:] = self.table.lookup(req.ids)
        else:
            req.counts[sel] = self.table.lookup(req.ids[sel])
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
            req.counts[in_group] = self.table.lookup(req.ids[in_group])
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
        cached = self.table.contains(req.ids[idx])
        hit = idx[cached]
        newly = np.zeros_like(req.unresolved)
        if hit.size:
            req.counts[hit] = self.table.lookup(req.ids[hit])
            newly[hit] = True
            if record_stats:
                stats.bump(
                    f"reads_table_{self.kind}_hits", int(hit.size)
                )
        return newly


class RemoteFetchTier(LookupTier):
    """The bottom of the stack: message the owning ranks.

    Dedups the batch (each distinct id travels once), requests counts
    through the protocol — which transparently runs either the blocking
    or the sequence-numbered resilient wire exchange, and routes doomed
    owners to their recovery partners — then scatters the answers back
    and optionally writes them into the reads table
    (*add remote lookups*).  Always resolves everything it is given:
    an owner that cannot answer is a protocol error, not a miss.
    """

    name = "remote"
    messaging = True

    def __init__(
        self,
        kind: str,
        kind_code: int,
        protocol: RemoteProtocol,
        timer: PhaseTimer,
        write_back: CountHash | None = None,
    ) -> None:
        super().__init__(kind)
        self.kind_code = kind_code
        self.protocol = protocol
        self.timer = timer
        #: Reads table to cache fetched counts into (the *add remote
        #: lookups* heuristic), or None.
        self.write_back = write_back

    def resolve(
        self, req: Resolution, stats: StatsSink, record_stats: bool
    ) -> NDArray[np.bool_]:
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
        start = time.perf_counter()
        fetched = self.protocol.request_counts(
            self.kind_code, uniq, req.owners[idx[first]]
        )
        self.timer.add(f"comm_{self.kind}", time.perf_counter() - start)
        req.counts[idx] = fetched[inverse]
        if self.write_back is not None:
            # Cache what we learned (including global absence as 0).
            fresh = ~self.write_back.contains(uniq)
            if fresh.any():
                self.write_back.add_counts(
                    uniq[fresh], fetched[fresh].astype(np.uint64)
                )
        return req.unresolved.copy()
