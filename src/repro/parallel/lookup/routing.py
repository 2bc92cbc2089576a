"""Ownership routing and the serving side of count resolution.

Every distributed structure in this repo answers the same two questions:
*which rank owns a key* (a range of hashed keys,
:mod:`repro.parallel.ownership`) and *where do I actually send the
request* (the owner — unless a :class:`~repro.faults.FaultPlan` dooms
the owner, in which case its recovery partner holds the replica and
answers in its stead).  :class:`RouteTable` is the single compiled
answer to the second.

:class:`ShardServer` is the authoritative *serving* half: one rank's
owned tables, plus any ward replicas bound onto it by crash recovery.
Recovery is thereby a **re-bind, not a special path** — a partner
taking over a dead ward calls :meth:`ShardServer.bind_ward`, and every
count request, which names the owner it asks in its header, is answered
from that owner's table: the rank's own shard or a bound ward's
replica.  No key is re-hashed to find its owner on the serving side.
"""

from __future__ import annotations

from typing import Mapping, Protocol

import numpy as np
from numpy.typing import NDArray

from repro.errors import CommunicatorError
from repro.hashing.counthash import CountHash
from repro.hashing.sortedspectrum import SortedSpectrum
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


class RouteTable:
    """Owner rank → effective destination, compiled from a fault plan.

    With no plan (or no doomed ranks) every owner routes to itself.  The
    scripted plan is globally known — it stands in for a failure
    detector — so requests for a doomed owner go straight to its
    recovery partner from the start of the correction phase.
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

    def wards_of(self, rank: int) -> tuple[int, ...]:
        """The doomed ranks whose requests land on ``rank``."""
        return tuple(
            sorted(d for d, p in self.redirects.items() if p == rank)
        )


class ShardServer:
    """One rank's authoritative count tables, plus bound ward replicas.

    The serving half of Step IV answers through this object instead of
    touching the count tables directly: a request names its owner, and
    :meth:`lookup` probes that owner's tables — this rank's own, or the
    replica of a ward recovery bound here.
    """

    def __init__(
        self,
        rank: int,
        kmers: CountHash | SortedSpectrum,
        tiles: CountHash | SortedSpectrum,
    ) -> None:
        self.rank = rank
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
        owner: int,
        kmer_ids: NDArray[np.uint64],
        tile_ids: NDArray[np.uint64],
        stats: StatsSink,
    ) -> tuple[NDArray[np.uint32], NDArray[np.uint32]]:
        """Authoritative ``(k-mer counts, tile counts)`` of ids owned by
        ``owner``: this rank or a bound ward.

        A count of 0 means the key does not exist anywhere — "If a k-mer
        or tile does not exist at its owning rank, it can be inferred
        that the k-mer or tile does not exist at all" (the paper's -1
        response).  Raises :class:`CommunicatorError` for an owner this
        shard neither is nor holds a replica for.  Every table probe is
        counted into ``stats`` (``table_probe_*``).
        """
        if owner == self.rank:
            tables = (self.kmers, self.tiles)
        elif owner in self._replicas:
            tables = self._replicas[owner]
        else:
            raise CommunicatorError(
                f"rank {self.rank} asked for ids owned by rank {owner} "
                "but holds no replica for it"
            )
        kmers, tiles = tables
        return _probe(kmers, kmer_ids, stats), _probe(tiles, tile_ids, stats)


def _probe(
    table: CountHash | SortedSpectrum, ids: NDArray[np.uint64], stats: StatsSink
) -> NDArray[np.uint32]:
    if ids.size == 0:
        return np.empty(0, dtype=np.uint32)
    return probe(table.lookup, ids, stats)
