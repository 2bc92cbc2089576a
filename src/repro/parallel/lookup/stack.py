"""Compiling and running the ordered tier stack.

:func:`compile_stacks` turns one rank's
:class:`~repro.parallel.build.RankSpectra` +
:class:`~repro.parallel.heuristics.HeuristicConfig` (plus, optionally, a
chunk cache and a wire protocol) into a :class:`StackPair` — one
:class:`LookupStack` per spectrum — **once per rank**; every resolution
path (serial view, blocking view, prefetch planner, recovery replay)
then runs the same compiled object.  The fault plan enters through the
protocol (its resilient request path and partner routing), so a
recovering partner re-binds its ward onto the serving shard rather than
growing a bespoke failover path — see
:mod:`repro.parallel.lookup.routing`.

A :class:`LookupStack` resolves what its local tiers can.  What is left
for the owners goes out from the :class:`StackPair`, for both spectra
at once: one lookup round is one request per owner, whatever mix of
k-mer and tile ids it carries (:meth:`StackPair.resolve`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.hashing.counthash import CountHash
from repro.parallel.lookup.cache import ChunkCountCache

if TYPE_CHECKING:
    # Type-only: keeps this module importable from repro.core (the
    # serial view compiles a one-tier stack) without a core <-> parallel
    # import cycle through build/heuristics.
    from repro.parallel.build import RankSpectra
    from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.lookup.tiers import (
    BYTES_PER_HIT,
    AllgatherReplicaTier,
    ChunkCacheTier,
    LookupTier,
    Outstanding,
    OwnedShardTier,
    ReadsTableTier,
    RemoteFetchTier,
    ReplicationGroupTier,
    RemoteProtocol,
    Resolution,
    StatsSink,
    probe,
)
from repro.util.timer import PhaseTimer

_NO_IDS = np.empty(0, dtype=np.uint64)
_NO_OWNERS = np.empty(0, dtype=np.int64)

#: Every tier name a compiled stack can contain, in canonical resolution
#: order (reports iterate this).
TIER_NAMES = (
    "chunk_cache",
    "owned",
    "allgather",
    "group",
    "reads_table",
    "remote",
)


class CommLike(Protocol):
    """What a stack needs from a communicator: identity and a ledger."""

    @property
    def rank(self) -> int: ...

    @property
    def size(self) -> int: ...

    @property
    def stats(self) -> StatsSink: ...


class LookupStack:
    """An ordered tier stack resolving one spectrum's counts."""

    def __init__(
        self, kind: str, tiers: Sequence[LookupTier], comm: CommLike
    ) -> None:
        self.kind = kind
        self.tiers: tuple[LookupTier, ...] = tuple(tiers)
        self.comm = comm
        # Counter names, built once: resolve() runs per lookup batch.
        self._lookups_counter = f"{kind}_lookups"
        self._tier_counters = tuple(
            tuple(
                f"lookup_{t.name}_{what}"
                for what in ("requests", "hits", "misses", "bytes")
            )
            for t in self.tiers
        )
        self._cache_index = next(
            (
                i
                for i, t in enumerate(self.tiers)
                if isinstance(t, ChunkCacheTier)
            ),
            -1,
        )
        # Degenerate stack (serial, or fully replicated with no cache):
        # one authoritative replica tier resolves everything, so
        # :meth:`counts` can skip the Resolution bookkeeping entirely.
        self._sole_replica: AllgatherReplicaTier | None = (
            self.tiers[0]
            if len(self.tiers) == 1
            and isinstance(self.tiers[0], AllgatherReplicaTier)
            else None
        )

    # ------------------------------------------------------------------
    @property
    def fully_replicated(self) -> bool:
        """Does a replica tier terminate every resolution locally?"""
        return any(
            isinstance(t, AllgatherReplicaTier) for t in self.tiers
        )

    @property
    def cache_index(self) -> int:
        """Index of the chunk-cache tier, or -1 without one."""
        return self._cache_index

    def describe(self) -> str:
        """The resolution order as a stable string, e.g.
        ``"owned->group->reads_table->remote"``."""
        return "->".join(t.name for t in self.tiers)

    @property
    def remote(self) -> RemoteFetchTier | None:
        """The stack's remote tier, or None when it resolves locally."""
        tier = self.tiers[-1]
        return tier if isinstance(tier, RemoteFetchTier) else None

    # ------------------------------------------------------------------
    def resolve(
        self, ids: NDArray[np.uint64], *, record_stats: bool = True
    ) -> Resolution:
        """Run ``ids`` down the local tiers; returns the resolution state.

        What no local tier could answer stays unresolved: in a stack that
        ends in a remote tier that is what its round asks the owners for
        (:meth:`StackPair.resolve`), in a prefetch stack it is exactly
        what a plan must fetch.  ``record_stats=False`` suppresses *all*
        counters — per-kind and per-tier alike — for side-effect-free
        probes.
        """
        ids = np.ascontiguousarray(ids, dtype=np.uint64)
        stats = self.comm.stats
        if record_stats:
            stats.bump(self._lookups_counter, int(ids.size))
        req = Resolution(
            ids=ids,
            counts=np.zeros(ids.shape[0], dtype=np.uint32),
            unresolved=np.ones(ids.shape[0], dtype=bool),
            resolved_by=np.full(ids.shape[0], -1, dtype=np.int8),
            size=self.comm.size,
        )
        if ids.size == 0:
            return req
        for index, tier in enumerate(self.tiers):
            if tier.messaging:
                break
            presented = int(np.count_nonzero(req.unresolved))
            if presented == 0:
                break
            newly = tier.resolve(req, stats, record_stats)
            self._resolved(req, index, presented, newly, record_stats)
        return req

    def outstanding(
        self, req: Resolution, record_stats: bool = True
    ) -> Outstanding | None:
        """What ``req`` still needs from the owners (None: nothing)."""
        remote = self.remote
        if remote is None or not req.unresolved.any():
            return None
        return remote.outstanding(req, self.comm.stats, record_stats)

    def settle(
        self,
        req: Resolution,
        open_: Outstanding,
        fetched: NDArray[np.uint32],
        record_stats: bool = True,
    ) -> None:
        """Hand the owners' answers for ``open_`` to the remote tier."""
        remote = self.remote
        assert remote is not None
        presented = int(np.count_nonzero(req.unresolved))
        newly = remote.settle(req, open_, fetched)
        self._resolved(
            req, len(self.tiers) - 1, presented, newly, record_stats
        )

    def _resolved(
        self,
        req: Resolution,
        index: int,
        presented: int,
        newly: NDArray[np.bool_],
        record_stats: bool,
    ) -> None:
        """Book tier ``index``'s answers into ``req`` and its counters."""
        hits = int(np.count_nonzero(newly))
        if hits:
            req.resolved_by[newly] = index
            req.unresolved &= ~newly
        if record_stats:
            requests, hit, miss, nbytes = self._tier_counters[index]
            stats = self.comm.stats
            stats.bump(requests, presented)
            stats.bump(hit, hits)
            stats.bump(miss, presented - hits)
            stats.bump(nbytes, BYTES_PER_HIT * hits)

    def counts(
        self, ids: NDArray[np.uint64], *, record_stats: bool = True
    ) -> NDArray[np.uint32]:
        """Counts from a stack that resolves everything locally (an
        authoritative replica tier — the serial view's one-tier stack)."""
        tier = self._sole_replica
        if tier is not None:
            # Bumps exactly the counters a full resolve() would: the
            # replica tier answers every id, so requests == hits.
            ids = np.ascontiguousarray(ids, dtype=np.uint64)
            stats = self.comm.stats
            out = probe(tier.table.lookup, ids, stats, record_stats)
            if record_stats:
                n = int(ids.size)
                stats.bump(self._lookups_counter, n)
                if n:
                    requests, hit, miss, nbytes = self._tier_counters[0]
                    stats.bump(requests, n)
                    stats.bump(hit, n)
                    stats.bump(miss, 0)
                    stats.bump(nbytes, BYTES_PER_HIT * n)
            return out
        return self.resolve(ids, record_stats=record_stats).counts


@dataclass(frozen=True)
class StackPair:
    """The two compiled stacks of one rank (k-mer and tile spectra)."""

    kmers: LookupStack
    tiles: LookupStack

    def for_kind(self, kind: str) -> LookupStack:
        """The stack resolving ``"kmer"`` or ``"tile"`` counts."""
        return self.kmers if kind == "kmer" else self.tiles

    def resolve(
        self,
        kmer_ids: NDArray[np.uint64],
        tile_ids: NDArray[np.uint64],
        *,
        record_stats: bool = True,
    ) -> tuple[Resolution, Resolution]:
        """One lookup round: both spectra through their local tiers, then
        whatever is left in one request per owner.

        Both remote tiers share the rank's protocol; the round's wait is
        booked to ``comm_kmer`` / ``comm_tile`` in proportion to the ids
        of each kind it carried.
        """
        kres = self.kmers.resolve(kmer_ids, record_stats=record_stats)
        tres = self.tiles.resolve(tile_ids, record_stats=record_stats)
        kopen = self.kmers.outstanding(kres, record_stats)
        topen = self.tiles.outstanding(tres, record_stats)
        if kopen is None and topen is None:
            return kres, tres
        remote = self.kmers.remote if kopen is not None else self.tiles.remote
        assert remote is not None
        start = time.perf_counter()
        kcounts, tcounts = remote.protocol.request_counts(
            kopen.ids if kopen is not None else _NO_IDS,
            kopen.owners if kopen is not None else _NO_OWNERS,
            topen.ids if topen is not None else _NO_IDS,
            topen.owners if topen is not None else _NO_OWNERS,
        )
        elapsed = time.perf_counter() - start
        nk, nt = kcounts.shape[0], tcounts.shape[0]
        remote.timer.add("comm_kmer", elapsed * nk / (nk + nt))
        remote.timer.add("comm_tile", elapsed * nt / (nk + nt))
        if kopen is not None:
            self.kmers.settle(kres, kopen, kcounts, record_stats)
        if topen is not None:
            self.tiles.settle(tres, topen, tcounts, record_stats)
        return kres, tres

    # The corrector's SpectrumView interface, so a compiled pair is
    # handed to ReptileCorrector as is.
    def pair_counts(
        self, kmer_ids: NDArray[np.uint64], tile_ids: NDArray[np.uint64]
    ) -> tuple[NDArray[np.uint32], NDArray[np.uint32]]:
        """Global k-mer and tile counts, in one lookup round."""
        kres, tres = self.resolve(kmer_ids, tile_ids)
        return kres.counts, tres.counts

    def kmer_counts(self, ids: NDArray[np.uint64]) -> NDArray[np.uint32]:
        """Global k-mer counts via the tier stack."""
        return self.pair_counts(ids, _NO_IDS)[0]

    def tile_counts(self, ids: NDArray[np.uint64]) -> NDArray[np.uint32]:
        """Global tile counts via the tier stack."""
        return self.pair_counts(_NO_IDS, ids)[1]

    @property
    def fully_replicated(self) -> bool:
        return self.kmers.fully_replicated and self.tiles.fully_replicated

    def describe(self) -> str:
        """Resolution order of both stacks as one report-ready string."""
        k = self.kmers.describe()
        t = self.tiles.describe()
        return k if k == t else f"kmers:{k};tiles:{t}"


def compile_stacks(
    comm: CommLike,
    spectra: RankSpectra,
    heuristics: HeuristicConfig,
    *,
    cache: ChunkCountCache | None = None,
    protocol: RemoteProtocol | None = None,
    timer: PhaseTimer | None = None,
) -> StackPair:
    """Build the rank's tier stacks from its spectra + heuristics.

    Compiled once per rank and shared by every resolution path.  With a
    ``cache`` the stacks are prefetch-mode (chunk cache first, no remote
    tier: what they leave unresolved is what a plan fetches); with a
    ``protocol`` they bottom out in a :class:`RemoteFetchTier`, whose
    lookup rounds go through :meth:`StackPair.resolve`, otherwise
    resolution must terminate locally (serial, or fully replicated).
    """
    timer = timer or PhaseTimer()

    def build(
        kind: str,
        owned: CountHash,
        replicated: bool,
        group_table: CountHash | None,
        reads_table: CountHash | None,
        cache_table: CountHash | None,
    ) -> LookupStack:
        tiers: list[LookupTier] = []
        if cache_table is not None:
            tiers.append(ChunkCacheTier(kind, cache_table))
        if replicated:
            tiers.append(AllgatherReplicaTier(kind, owned))
        else:
            tiers.append(OwnedShardTier(kind, owned, comm.rank))
            if group_table is not None:
                tiers.append(
                    ReplicationGroupTier(
                        kind, group_table, spectra.group_ranks
                    )
                )
            if reads_table is not None:
                tiers.append(ReadsTableTier(kind, reads_table))
            if protocol is not None:
                write_back = (
                    reads_table if heuristics.add_remote_lookups else None
                )
                tiers.append(
                    RemoteFetchTier(
                        kind, protocol, timer, write_back=write_back
                    )
                )
        return LookupStack(kind, tiers, comm)

    return StackPair(
        kmers=build(
            "kmer",
            spectra.kmers,
            spectra.kmers_replicated,
            spectra.group_kmers,
            spectra.reads_kmers,
            cache.kmers if cache is not None else None,
        ),
        tiles=build(
            "tile",
            spectra.tiles,
            spectra.tiles_replicated,
            spectra.group_tiles,
            spectra.reads_tiles,
            cache.tiles if cache is not None else None,
        ),
    )


def tier_order(
    heuristics: HeuristicConfig, kind: str, *, prefetch: bool | None = None
) -> tuple[str, ...]:
    """The tier names :func:`compile_stacks` would emit for a kind.

    Derivable from the heuristics alone (no rank state), which is what
    lets the run report print the resolution order without access to
    the per-rank stack objects.  ``prefetch`` defaults to the config's
    own :attr:`~repro.parallel.heuristics.HeuristicConfig.use_prefetch`.
    """
    if kind not in ("kmer", "tile"):
        raise ValueError(f"unknown lookup kind {kind!r}")
    if prefetch is None:
        prefetch = heuristics.use_prefetch
    replicated = (
        heuristics.allgather_kmers
        if kind == "kmer"
        else heuristics.allgather_tiles
    )
    reads = (
        heuristics.read_kmers if kind == "kmer" else heuristics.read_tiles
    )
    order: list[str] = []
    if prefetch:
        order.append("chunk_cache")
    if replicated:
        order.append("allgather")
        return tuple(order)
    order.append("owned")
    if heuristics.replication_group > 1:
        order.append("group")
    if reads:
        order.append("reads_table")
    if not prefetch:
        order.append("remote")
    return tuple(order)


def resolution_order(heuristics: HeuristicConfig) -> dict[str, str]:
    """Report-ready ``{"kmers": "...", "tiles": "..."}`` order strings."""
    return {
        "kmers": "->".join(tier_order(heuristics, "kmer")),
        "tiles": "->".join(tier_order(heuristics, "tile")),
    }
