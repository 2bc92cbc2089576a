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
"""

from __future__ import annotations

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
from repro.parallel.lookup.routing import KIND_KMER, KIND_TILE
from repro.parallel.lookup.tiers import (
    BYTES_PER_HIT,
    AllgatherReplicaTier,
    ChunkCacheTier,
    LookupTier,
    OwnedShardTier,
    ReadsTableTier,
    RemoteFetchTier,
    ReplicationGroupTier,
    RemoteProtocol,
    Resolution,
    StatsSink,
)
from repro.util.timer import PhaseTimer

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
        self._local_counter = f"local_{kind}_lookups"
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

    # ------------------------------------------------------------------
    def resolve(
        self,
        ids: NDArray[np.uint64],
        *,
        record_stats: bool = True,
        local_only: bool = False,
    ) -> Resolution:
        """Run ``ids`` down the stack; returns the full resolution state.

        ``local_only=True`` skips messaging tiers (the prefetch
        planner's probe: what is left unresolved is exactly what a plan
        must fetch).  ``record_stats=False`` suppresses *all* counters —
        legacy and per-tier alike — for side-effect-free probes.
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
            if local_only and tier.messaging:
                continue
            presented = int(np.count_nonzero(req.unresolved))
            if presented == 0:
                break
            newly = tier.resolve(req, stats, record_stats)
            hits = int(np.count_nonzero(newly))
            if hits:
                req.resolved_by[newly] = index
                req.unresolved &= ~newly
            if record_stats:
                requests, hit, miss, nbytes = self._tier_counters[index]
                stats.bump(requests, presented)
                stats.bump(hit, hits)
                stats.bump(miss, presented - hits)
                stats.bump(nbytes, BYTES_PER_HIT * hits)
        return req

    def counts(
        self, ids: NDArray[np.uint64], *, record_stats: bool = True
    ) -> NDArray[np.uint32]:
        """Fully resolved counts (the stack must end in an authoritative
        tier — remote or replica — for every configuration reachable
        here)."""
        tier = self._sole_replica
        if tier is not None:
            # Bumps exactly the counters a full resolve() would: the
            # replica tier answers every id, so requests == hits.
            ids = np.ascontiguousarray(ids, dtype=np.uint64)
            out = tier.table.lookup(ids)
            if record_stats:
                stats = self.comm.stats
                n = int(ids.size)
                stats.bump(self._lookups_counter, n)
                if n:
                    requests, hit, miss, nbytes = self._tier_counters[0]
                    stats.bump(self._local_counter, n)
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

    # The corrector's SpectrumView interface, so a compiled pair is
    # handed to ReptileCorrector as is.
    def kmer_counts(self, ids: NDArray[np.uint64]) -> NDArray[np.uint32]:
        """Global k-mer counts via the tier stack."""
        return self.kmers.counts(ids)

    def tile_counts(self, ids: NDArray[np.uint64]) -> NDArray[np.uint32]:
        """Global tile counts via the tier stack."""
        return self.tiles.counts(ids)

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
    ``cache`` the stacks are prefetch-mode (chunk cache first, and the
    caller is expected to resolve ``local_only``); with a ``protocol``
    they bottom out in a :class:`RemoteFetchTier`, otherwise resolution
    must terminate locally (serial, or fully replicated).
    """
    timer = timer or PhaseTimer()

    def build(
        kind: str,
        kind_code: int,
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
                        kind,
                        kind_code,
                        protocol,
                        timer,
                        write_back=write_back,
                    )
                )
        return LookupStack(kind, tiers, comm)

    return StackPair(
        kmers=build(
            "kmer",
            KIND_KMER,
            spectra.kmers,
            spectra.kmers_replicated,
            spectra.group_kmers,
            spectra.reads_kmers,
            cache.kmers if cache is not None else None,
        ),
        tiles=build(
            "tile",
            KIND_TILE,
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
