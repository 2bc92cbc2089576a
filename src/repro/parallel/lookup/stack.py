"""Compiling and running the lookup stacks.

:func:`compile_stacks` turns one rank's
:class:`~repro.parallel.build.RankSpectra` +
:class:`~repro.parallel.heuristics.HeuristicConfig` (plus, optionally, a
chunk cache and a wire protocol) into a :class:`StackPair` — one
:class:`LookupStack` per spectrum — **once per rank**, from the names
:func:`tier_order` gives, so the order a report prints is the order
that runs.  Every resolution path (blocking round, prefetch planner,
recovery replay) then runs the same compiled object.  The fault plan
enters through the protocol (its resilient request path and partner
routing), so a recovering partner re-binds its ward onto the serving
shard rather than growing a bespoke failover path — see
:mod:`repro.parallel.lookup.routing`.

A :class:`LookupStack` resolves what its local tiers can.  What is left
for the owners goes out from the :class:`StackPair`, for both spectra
at once: one lookup round is one request per owner, whatever mix of
k-mer and tile ids it carries (:meth:`StackPair.resolve`).  The round
is not a tier; it is booked as ``remote`` all the same.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence, TypeGuard

import numpy as np
from numpy.typing import NDArray

from repro.errors import SpectrumError
from repro.hashing.counthash import CountHash
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.parallel.lookup.cache import ChunkCountCache, add_fresh

if TYPE_CHECKING:
    # Type-only: build imports the wire protocol, which imports this
    # package, so a runtime import would be circular.
    from repro.parallel.build import RankSpectra
    from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.lookup.tiers import (
    BYTES_PER_HIT,
    AuthorityTier,
    CacheTier,
    Resolution,
    StatsSink,
    Tier,
    probe,
)
from repro.util.timer import PhaseTimer

_NO_IDS = np.empty(0, dtype=np.uint64)
_NO_OWNERS = _NO_POS = np.empty(0, dtype=np.int64)

#: Every tier name a compiled stack can contain, in canonical resolution
#: order (reports iterate this); ``remote`` is the lookup round.
TIER_NAMES = (
    "chunk_cache",
    "owned",
    "allgather",
    "group",
    "reads_table",
    "remote",
)


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


class CommLike(Protocol):
    """What a stack needs from a communicator: identity and a ledger."""

    @property
    def rank(self) -> int: ...

    @property
    def size(self) -> int: ...

    @property
    def stats(self) -> StatsSink: ...


class LookupStack:
    """One spectrum's local tiers, in resolution order, and where the
    ids they leave open go."""

    def __init__(
        self,
        kind: str,
        tiers: Sequence[Tier],
        comm: CommLike,
        *,
        to_owners: bool = False,
        write_back: CountHash | None = None,
    ) -> None:
        self.kind = kind
        self.tiers: tuple[Tier, ...] = tuple(tiers)
        self.comm = comm
        #: Do the ids no tier answers go to their owners, in the pair's
        #: lookup round?  If not, they stay unresolved: in a prefetch
        #: stack that is exactly what a plan must fetch.
        self.to_owners = to_owners
        #: Reads table the round's answers are cached into (the *add
        #: remote lookups* heuristic), or None.
        self.write_back = write_back
        #: What can answer an id, in order: the tiers, then ``remote``.
        self.names = tuple(t.name for t in self.tiers) + (
            ("remote",) if to_owners else ()
        )
        # Counter names, built once: resolve() runs per lookup batch.
        self._lookups_counter = f"{kind}_lookups"
        self._remote_counter = f"remote_{kind}_lookups"
        self._counters = tuple(
            tuple(
                f"lookup_{name}_{what}"
                for what in ("requests", "hits", "misses", "bytes")
            )
            for name in self.names
        )
        #: Index of the chunk-cache tier, or -1 without one.
        self.cache_index = (
            self.names.index("chunk_cache") if "chunk_cache" in self.names else -1
        )
        # Degenerate stack (one rank, or fully replicated with no cache):
        # one authoritative replica resolves everything, so :meth:`counts`
        # can skip the Resolution bookkeeping entirely.
        self._sole_replica: AuthorityTier | None = (
            self.tiers[0]
            if len(self.tiers) == 1 and _replica(self.tiers[0])
            else None
        )

    # ------------------------------------------------------------------
    @property
    def fully_replicated(self) -> bool:
        """Does a replica tier terminate every resolution locally?"""
        return any(_replica(t) for t in self.tiers)

    def describe(self) -> str:
        """The resolution order as a stable string, e.g.
        ``"owned->group->reads_table->remote"``."""
        return "->".join(self.names)

    # ------------------------------------------------------------------
    def resolve(
        self, ids: NDArray[np.uint64], *, record_stats: bool = True
    ) -> Resolution:
        """Run ``ids`` down the local tiers; returns the resolution state.

        What no tier could answer stays unresolved: in a stack that goes
        to the owners that is what its round asks them for
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
            presented = int(np.count_nonzero(req.unresolved))
            if presented == 0:
                break
            newly = tier.resolve(req, stats, record_stats)
            self._resolved(req, index, presented, newly, record_stats)
        return req

    def _resolved(
        self,
        req: Resolution,
        index: int,
        presented: int,
        newly: NDArray[np.bool_],
        record_stats: bool,
    ) -> None:
        """Book what ``names[index]`` answered into ``req`` and its
        counters."""
        hits = int(np.count_nonzero(newly))
        if hits:
            req.resolved_by[newly] = index
            req.unresolved &= ~newly
        if record_stats:
            requests, hit, miss, nbytes = self._counters[index]
            stats = self.comm.stats
            stats.bump(requests, presented)
            stats.bump(hit, hits)
            stats.bump(miss, presented - hits)
            stats.bump(nbytes, BYTES_PER_HIT * hits)

    def counts(
        self, ids: NDArray[np.uint64], *, record_stats: bool = True
    ) -> NDArray[np.uint32]:
        """Counts of ids the local tiers resolve; raises
        :class:`~repro.errors.SpectrumError` if any is left open (a
        lookup round answers those: :meth:`StackPair.pair_counts`)."""
        ids = np.ascontiguousarray(ids, dtype=np.uint64)
        tier = self._sole_replica
        if tier is not None and ids.size:
            # Bumps exactly the counters a full resolve() would: the
            # replica tier answers every id, so requests == hits.
            stats = self.comm.stats
            out = probe(tier.table.lookup, ids, stats, record_stats)
            if record_stats:
                n = int(ids.size)
                stats.bump(self._lookups_counter, n)
                requests, hit, miss, nbytes = self._counters[0]
                stats.bump(requests, n)
                stats.bump(hit, n)
                stats.bump(miss, 0)
                stats.bump(nbytes, BYTES_PER_HIT * n)
            return out
        req = self.resolve(ids, record_stats=record_stats)
        left = int(np.count_nonzero(req.unresolved))
        if left:
            raise SpectrumError(
                f"{left} {self.kind} ids do not resolve locally; "
                "their counts need a lookup round"
            )
        return req.counts


def _replica(tier: Tier) -> TypeGuard[AuthorityTier]:
    """Is ``tier`` a replicated spectrum (authoritative for every id)?"""
    return isinstance(tier, AuthorityTier) and tier.owners is None


@dataclass(frozen=True)
class StackPair:
    """The two compiled stacks of one rank (k-mer and tile spectra), and
    the round that asks the owners for what both leave open."""

    kmers: LookupStack
    tiles: LookupStack
    #: The wire endpoint of the lookup round, or None when every id
    #: resolves locally or stays open for a prefetch plan.
    protocol: RemoteProtocol | None = None
    #: Where the round's wait is booked (``comm_kmer`` / ``comm_tile``).
    timer: PhaseTimer = field(default_factory=PhaseTimer)

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

        The round's wait is booked to ``comm_kmer`` / ``comm_tile`` in
        proportion to the ids of each kind it carried; its answers as the
        ``remote`` tier of their stack.
        """
        kres = self.kmers.resolve(kmer_ids, record_stats=record_stats)
        tres = self.tiles.resolve(tile_ids, record_stats=record_stats)
        # Positions of the ids the owners must answer.
        kopen = np.nonzero(kres.unresolved)[0] if self.kmers.to_owners else _NO_POS
        topen = np.nonzero(tres.unresolved)[0] if self.tiles.to_owners else _NO_POS
        nk, nt = kopen.shape[0], topen.shape[0]
        if nk + nt == 0:
            return kres, tres
        if self.protocol is None:
            raise SpectrumError("a lookup round needs a wire protocol")
        start = time.perf_counter()
        kcounts, tcounts = self.protocol.request_counts(
            kres.ids[kopen], kres.owners[kopen] if nk else _NO_OWNERS,
            tres.ids[topen], tres.owners[topen] if nt else _NO_OWNERS,
        )
        elapsed = time.perf_counter() - start
        self.timer.add("comm_kmer", elapsed * nk / (nk + nt))
        self.timer.add("comm_tile", elapsed * nt / (nk + nt))
        if nk:
            _book_round(self.kmers, kres, kopen, kcounts, record_stats)
        if nt:
            _book_round(self.tiles, tres, topen, tcounts, record_stats)
        return kres, tres

    # The corrector's SpectrumView interface, so a compiled pair is
    # handed to ReptileCorrector as is.
    def pair_counts(
        self, kmer_ids: NDArray[np.uint64], tile_ids: NDArray[np.uint64]
    ) -> tuple[NDArray[np.uint32], NDArray[np.uint32]]:
        """Global k-mer and tile counts, in one lookup round."""
        if (
            self.kmers._sole_replica is not None
            and self.tiles._sole_replica is not None
        ):
            # One rank or fully allgathered: nothing to message, so skip
            # the Resolution bookkeeping (same counters).
            return self.kmers.counts(kmer_ids), self.tiles.counts(tile_ids)
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


def _book_round(
    stack: LookupStack,
    req: Resolution,
    idx: NDArray[np.int64],
    fetched: NDArray[np.uint32],
    record_stats: bool,
) -> None:
    """Scatter the owners' answers for ``req.ids[idx]`` (every open id)
    into ``req``, book them as ``remote``, and cache them in the stack's
    reads table under *add remote lookups*."""
    if record_stats:
        stack.comm.stats.bump(stack._remote_counter, int(idx.shape[0]))
    req.counts[idx] = fetched
    if stack.write_back is not None:
        # Global absence is cached too, as 0.
        add_fresh(stack.write_back, req.ids[idx], fetched)
    stack._resolved(
        req, len(stack.tiers), idx.shape[0], req.unresolved.copy(), record_stats
    )


def compile_stacks(
    comm: CommLike,
    spectra: RankSpectra,
    heuristics: HeuristicConfig,
    *,
    cache: ChunkCountCache | None = None,
    protocol: RemoteProtocol | None = None,
    timer: PhaseTimer | None = None,
) -> StackPair:
    """Build the rank's stacks from its spectra + heuristics, in the
    order :func:`tier_order` names.

    Compiled once per rank and shared by every resolution path.  With a
    ``cache`` the stacks are prefetch-mode (chunk cache first, nothing
    goes to the owners: what they leave unresolved is what a plan
    fetches); otherwise a stack whose kind is not replicated sends what
    its tiers leave open to the owners through ``protocol``, in the
    pair's lookup rounds (:meth:`StackPair.resolve`), whose wait is
    booked on ``timer``.
    """

    def build(
        kind: str,
        owned: CountHash | SortedSpectrum,
        group: SortedSpectrum | None,
        reads: CountHash | None,
    ) -> LookupStack:
        tiers: list[Tier] = []
        to_owners = False
        for name in tier_order(heuristics, kind, comm.size, prefetch=cache is not None):
            if name == "chunk_cache":
                assert cache is not None
                tiers.append(CacheTier(
                    name, cache.table_for(kind), f"prefetch_{kind}_hits"
                ))
            elif name == "allgather":
                tiers.append(AuthorityTier(name, owned, None))
            elif name == "owned":
                tiers.append(AuthorityTier(name, owned, (comm.rank,)))
            elif name == "group":
                assert group is not None
                tiers.append(AuthorityTier(name, group, spectra.group_ranks))
            elif name == "reads_table":
                assert reads is not None
                tiers.append(CacheTier(name, reads, f"reads_table_{kind}_hits"))
            else:
                to_owners = True
        return LookupStack(
            kind, tiers, comm, to_owners=to_owners,
            write_back=(
                reads if to_owners and heuristics.add_remote_lookups else None
            ),
        )

    return StackPair(
        kmers=build("kmer", spectra.kmers, spectra.group_kmers, spectra.reads_kmers),
        tiles=build("tile", spectra.tiles, spectra.group_tiles, spectra.reads_tiles),
        protocol=protocol,
        timer=timer or PhaseTimer(),
    )


def tier_order(
    heuristics: HeuristicConfig,
    kind: str,
    nranks: int,
    *,
    prefetch: bool | None = None,
) -> tuple[str, ...]:
    """The tier names :func:`compile_stacks` would emit for a kind in a
    world of ``nranks``.

    Derivable from the heuristics and the world size alone (no rank
    state), which is what lets the run report print the resolution order
    without access to the per-rank stack objects.  A one-rank world's
    shard is the whole spectrum, so it resolves through ``allgather``
    like a replicated kind.  ``prefetch`` defaults to the config's own
    :attr:`~repro.parallel.heuristics.HeuristicConfig.use_prefetch`.
    """
    if kind not in ("kmer", "tile"):
        raise ValueError(f"unknown lookup kind {kind!r}")
    if prefetch is None:
        prefetch = heuristics.use_prefetch
    replicated = nranks == 1 or (
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


def resolution_order(
    heuristics: HeuristicConfig, nranks: int
) -> dict[str, str]:
    """Report-ready ``{"kmers": "...", "tiles": "..."}`` order strings."""
    return {
        "kmers": "->".join(tier_order(heuristics, "kmer", nranks)),
        "tiles": "->".join(tier_order(heuristics, "tile", nranks)),
    }
