"""The two kinds of local table a lookup stack reads counts from.

Each tier answers one question — *can this table resolve the id without
going to its owner?* — over the still-unresolved portion of a
:class:`Resolution` in flight.  There are two kinds:

* an :class:`AuthorityTier` holds the true count of every id of a set
  of owners, so an id it covers is answered even when absent (count 0):
  ``owned`` covers the rank itself, ``group`` its replication group,
  ``allgather`` every owner;
* a :class:`CacheTier` answers only the ids it holds, and a miss falls
  through: ``chunk_cache`` (the prefetch plan's fetched counts) and
  ``reads_table`` (global counts of the rank's own reads).

The paper's Section III-B "lookup ladder" is the ordering
``owned → allgather → group → reads-table`` that
:func:`repro.parallel.lookup.stack.compile_stacks` builds from a
:class:`~repro.parallel.heuristics.HeuristicConfig`; the prefetch engine
puts the chunk cache first.  What no tier answers goes to the owners in
one lookup round (:meth:`~repro.parallel.lookup.stack.StackPair.pair_counts`),
which is not a tier: it answers both spectra at once.

A tier answers in two shapes.  In a lookup round it sees the round's
one ordering (:class:`~repro.parallel.lookup.stack.LookupRound`) and the
positions still open (:meth:`AuthorityTier.answer` takes its owners'
segments, :meth:`CacheTier.answer` probes what is open); for the
prefetch planner it fills in a :class:`Resolution`, which records the
tier that answered each id (``resolve``).

Two counter families are recorded into
:class:`~repro.simmpi.instrument.CommStats`:

* the **per-tier family** ``lookup_<tier>_{requests,hits,misses,bytes}``
  (bumped by the stack around each tier, and for ``remote`` by the
  round), where at every tier ``hits + misses == requests`` and
  ``bytes`` counts the key+count payload resolved there (12 bytes per
  hit);
* the **per-kind counters**, split by spectrum (``kmer`` / ``tile``),
  which the per-tier family is not: a cache's hit counter
  (``prefetch_{kind}_hits``, ``reads_table_{kind}_hits``), and the
  round's ``remote_{kind}_lookups`` and ``remote_{kind}_ids_deduped``
  (beside the stack's ``{kind}_lookups`` entry count).  They remain
  because :mod:`repro.perfmodel.workload` and the end-to-end ledger
  (``benchmarks/e2e/ledger.py``) read them per kind.  Authoritative
  tiers bump none: their hits are ``lookup_owned_hits``,
  ``lookup_allgather_hits`` and ``lookup_group_hits``.

Every count-table call a tier makes — a
:class:`~repro.hashing.counthash.CountHash` or a sealed
:class:`~repro.hashing.sortedspectrum.SortedSpectrum`, which answer the
same read API — is
also counted, as ``table_probe_calls`` and ``table_probe_ids``
(:func:`probe`; the serving side counts its own the same way).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol, Sequence, TypeVar

import numpy as np
from numpy.typing import NDArray

from repro.hashing.counthash import CountHash
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.hashing.inthash import mix_to_rank

if TYPE_CHECKING:
    # Type-only: the round lives beside the stacks, which import this.
    from repro.parallel.lookup.stack import LookupRound

#: Bytes of resolved payload charged per hit in the per-tier ``bytes``
#: counter: an 8-byte key plus a 4-byte count.
BYTES_PER_HIT = 12


class StatsSink(Protocol):
    """The slice of :class:`~repro.simmpi.instrument.CommStats` tiers use."""

    def bump(self, name: str, amount: int = 1) -> None: ...


_Answer = TypeVar("_Answer")


def probe(
    lookup: Callable[[NDArray[np.uint64]], _Answer],
    ids: NDArray[np.uint64],
    stats: StatsSink,
    record_stats: bool = True,
) -> _Answer:
    """``lookup(ids)`` — a count table's ``lookup`` or
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
    :attr:`~repro.parallel.lookup.stack.LookupStack.names`) of what
    answered each id — a tier, or ``remote`` for the lookup round — -1
    while open.  That is what lets the prefetch planner deposit
    ladder-resolved ids into the chunk cache without re-probing every
    tier.
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


class AuthorityTier:
    """A table holding the true count of every id a set of owners owns.

    ``owners`` is the covered ranks, or None for every owner (a
    replicated spectrum, after which nothing is left to resolve).  A
    covered id absent from the table answers 0: its owner would too.
    """

    def __init__(
        self,
        name: str,
        table: CountHash | SortedSpectrum,
        owners: Sequence[int] | None,
    ) -> None:
        #: Stable tier name used in counters, reports and MPI007 docs.
        self.name = name
        self.table = table
        #: Ascending and distinct, as :meth:`LookupRound.split` wants.
        self.owners: NDArray[np.int64] | None = (
            None if owners is None else np.unique(np.asarray(owners, dtype=np.int64))
        )

    def resolve(
        self, req: Resolution, stats: StatsSink, record_stats: bool
    ) -> NDArray[np.bool_]:
        """Fill ``req.counts`` for the open ids this table covers;
        returns the mask (aligned with ``req.ids``) of ids newly
        resolved here."""
        if self.owners is None:
            sel = req.unresolved.copy()
        elif self.owners.shape[0] == 1:
            sel = req.unresolved & (req.owners == self.owners[0])
        else:
            sel = req.unresolved & np.isin(req.owners, self.owners)
        if sel.all():
            # Common case (a replica, first authoritative tier): skip the
            # masked gather/scatter copies and look the whole batch up.
            req.counts[:] = probe(self.table.lookup, req.ids, stats, record_stats)
        elif sel.any():
            req.counts[sel] = probe(
                self.table.lookup, req.ids[sel], stats, record_stats
            )
        return sel

    def answer(
        self,
        rnd: LookupRound,
        kind: int,
        pos: NDArray[np.intp],
        stats: StatsSink,
    ) -> NDArray[np.intp]:
        """Fill in the counts of the open round positions ``pos`` this
        table covers — its owners' segments, each ascending, repeats
        kept; returns the positions still open."""
        if self.owners is None:
            covered, rest = pos, pos[:0]
        else:
            covered, rest = rnd.split(kind, pos, self.owners)
        if covered.size:
            rnd.counts[covered] = probe(self.table.lookup, rnd.ids[covered], stats)
        return rest


class CacheTier:
    """A table answering only the ids it holds; a miss falls through.

    ``hit_counter`` is the per-kind counter its hits are booked to —
    ``prefetch_{kind}_hits`` for the chunk cache, which runs first so
    that counter measures exactly how often a plan already covered a
    lookup; ``reads_table_{kind}_hits`` for the reads table, which
    *add remote lookups* also writes fetched counts back into.
    """

    def __init__(self, name: str, table: CountHash, hit_counter: str) -> None:
        #: Stable tier name used in counters, reports and MPI007 docs.
        self.name = name
        self.table = table
        self.hit_counter = hit_counter

    def resolve(
        self, req: Resolution, stats: StatsSink, record_stats: bool
    ) -> NDArray[np.bool_]:
        """Fill ``req.counts`` for the open ids the table holds; returns
        the mask of ids newly resolved here."""
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
                stats.bump(self.hit_counter, int(hit.size))
        return newly

    def answer(
        self,
        rnd: LookupRound,
        kind: int,
        pos: NDArray[np.intp],
        stats: StatsSink,
    ) -> NDArray[np.intp]:
        """Fill in the counts of the open round positions ``pos`` the
        table holds; returns the positions still open."""
        counts, found = probe(self.table.lookup_found, rnd.ids[pos], stats)
        hit = pos[found]
        if hit.size:
            rnd.counts[hit] = counts[found]
            stats.bump(self.hit_counter, int(hit.size))
        return pos[~found]


#: A local tier of either kind.
Tier = AuthorityTier | CacheTier
