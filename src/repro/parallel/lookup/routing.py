"""Ownership routing and the serving side of count resolution.

Every distributed structure in this repo answers the same two questions:
*which rank owns an id* (``hashFunction(id) % nranks``) and *where do I
actually send the request* (the owner — unless a
:class:`~repro.faults.FaultPlan` dooms the owner, in which case its
recovery partner holds the replica and answers in its stead).  Before
this package existed, that pair of decisions was re-derived in
``server.py``, ``prefetch.py``, ``exchange.py`` and ``recovery.py``
independently; :class:`RouteTable` is now the single compiled answer.

:class:`ShardServer` is the authoritative *serving* half: one rank's
owned tables, plus any ward replicas bound onto it by crash recovery.
Recovery is thereby a **re-bind, not a special path** — a partner
taking over a dead ward calls :meth:`ShardServer.bind_ward` and every
path that serves through the shard (the pump's count requests, the
prefetch endpoint riding it) starts answering for the ward with no
further routing logic of its own.
"""

from __future__ import annotations

from typing import Mapping, Protocol

import numpy as np
from numpy.typing import NDArray

from repro.errors import CommunicatorError
from repro.hashing.counthash import CountHash
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.hashing.inthash import mix_to_rank
from repro.parallel.lookup.tiers import StatsSink, probe

#: Request kinds carried in universal payloads (and the wire protocol's
#: canonical encoding of "which spectrum").
KIND_KMER = 0
KIND_TILE = 1


class FaultPlanLike(Protocol):
    """The slice of :class:`repro.faults.FaultPlan` routing depends on."""

    def doomed_ranks(self) -> frozenset[int]: ...

    @staticmethod
    def partner_of(rank: int, size: int) -> int: ...


def partition_by_dest(
    dests: NDArray[np.int64], size: int
) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """Stable bucketing of positions by destination rank.

    Returns ``(order, bounds)`` where ``order`` sorts positions by
    destination and ``bounds[d]:bounds[d+1]`` slices destination ``d``'s
    positions out of ``order`` — the per-destination discipline shared
    by the alltoallv packers, the blocking request path and the prefetch
    coalescer.  Ranks fit an unsigned type of 8 or 16 bits, which numpy's
    stable sort handles by radix, not by comparing int64 keys.
    """
    order = np.argsort(dests.astype(np.min_scalar_type(size)), kind="stable")
    bounds = np.searchsorted(dests[order], np.arange(size + 1))
    return order, bounds


class RouteTable:
    """Owner rank → effective destination, compiled from a fault plan.

    With no plan (or no doomed ranks) every owner routes to itself and
    :meth:`map_owners` is the identity.  The scripted plan is globally
    known — it stands in for a failure detector — so requests for a
    doomed owner go straight to its recovery partner from the start of
    the correction phase.
    """

    def __init__(
        self, size: int, redirects: Mapping[int, int] | None = None
    ) -> None:
        self.size = size
        #: doomed owner -> recovery partner holding its replica.
        self.redirects: dict[int, int] = dict(redirects or {})

    @classmethod
    def compile(cls, plan: FaultPlanLike | None, size: int) -> "RouteTable":
        """The routing a plan implies (identity when ``plan`` is None)."""
        if plan is None:
            return cls(size)
        return cls(
            size,
            {d: plan.partner_of(d, size) for d in plan.doomed_ranks()},
        )

    def dest_for(self, owner: int) -> int:
        """Where a request for ``owner``'s shard must be sent."""
        return self.redirects.get(owner, owner)

    def map_owners(self, owners: NDArray[np.int64]) -> NDArray[np.int64]:
        """Vectorized :meth:`dest_for` (returns input when no redirects)."""
        if not self.redirects:
            return owners
        out = owners.copy()
        for doomed, partner in self.redirects.items():
            out[owners == doomed] = partner
        return out

    def wards_of(self, rank: int) -> tuple[int, ...]:
        """The doomed ranks whose requests land on ``rank``."""
        return tuple(
            sorted(d for d, p in self.redirects.items() if p == rank)
        )


class ShardServer:
    """One rank's authoritative count tables, plus bound ward replicas.

    The serving half of every Step IV protocol answers through this
    object instead of touching the count tables directly:
    with no replicas bound, :meth:`lookup` is a single table probe (the
    fault-free fast path); once recovery binds a ward, ownership is
    recomputed per id so one payload may mix the partner's own ids with
    the dead ward's.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        kmers: CountHash | SortedSpectrum,
        tiles: CountHash | SortedSpectrum,
    ) -> None:
        self.rank = rank
        self.size = size
        self.kmers = kmers
        self.tiles = tiles
        self._replicas: dict[int, tuple[SortedSpectrum, SortedSpectrum]] = {}

    def bind_ward(
        self, ward: int, kmers: SortedSpectrum, tiles: SortedSpectrum
    ) -> None:
        """Take over serving for a dead ward from its replica tables."""
        self._replicas[ward] = (kmers, tiles)

    @property
    def wards(self) -> tuple[int, ...]:
        """Ranks this shard currently answers for besides its own."""
        return tuple(sorted(self._replicas))

    def lookup(
        self,
        kmer_ids: NDArray[np.uint64],
        tile_ids: NDArray[np.uint64],
        stats: StatsSink,
    ) -> tuple[NDArray[np.uint32], NDArray[np.uint32]]:
        """Authoritative ``(k-mer counts, tile counts)`` for ids owned
        here or by a bound ward.

        A count of 0 means the key does not exist anywhere — "If a k-mer
        or tile does not exist at its owning rank, it can be inferred
        that the k-mer or tile does not exist at all" (the paper's -1
        response).  Raises :class:`CommunicatorError` for an id owned by
        a rank this shard holds no replica for.  Every table probe is
        counted into ``stats`` (``table_probe_*``).
        """
        return (
            self._lookup(KIND_KMER, kmer_ids, stats),
            self._lookup(KIND_TILE, tile_ids, stats),
        )

    def _lookup(
        self, kind: int, ids: NDArray[np.uint64], stats: StatsSink
    ) -> NDArray[np.uint32]:
        table = self.kmers if kind == KIND_KMER else self.tiles
        if ids.size == 0:
            return np.empty(0, dtype=np.uint32)
        if not self._replicas:
            return probe(table.lookup, ids, stats)
        owners = np.asarray(mix_to_rank(ids, self.size), dtype=np.int64)
        counts = np.zeros(ids.shape[0], dtype=np.uint32)
        for owner in np.unique(owners):
            sel = owners == owner
            if int(owner) == self.rank:
                counts[sel] = probe(table.lookup, ids[sel], stats)
            elif int(owner) in self._replicas:
                pair = self._replicas[int(owner)]
                rep = pair[0] if kind == KIND_KMER else pair[1]
                counts[sel] = probe(rep.lookup, ids[sel], stats)
            else:
                raise CommunicatorError(
                    f"rank {self.rank} asked for ids owned by rank "
                    f"{int(owner)} but holds no replica for it"
                )
        return counts
