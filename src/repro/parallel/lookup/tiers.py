"""The two kinds of local table a lookup stack reads counts from.

Each tier answers one question — *can this table resolve the key without
going to its owner?* — over the still-open positions of a lookup round
(:class:`~repro.parallel.lookup.stack.LookupRound`).  There are two kinds:

* an :class:`AuthorityTier` holds the true count of every key of a run
  of owners, so a key it covers is answered even when absent (count 0):
  ``owned`` covers the rank itself, ``group`` its replication group,
  ``allgather`` every owner — it takes its owners' one segment of the
  round;
* a :class:`CacheTier` answers only the keys it holds, and a miss falls
  through: ``reads_table`` (global counts of the rank's own reads).

The paper's Section III-B "lookup ladder" is the ordering
``owned → allgather → group → reads-table`` that
:func:`repro.parallel.lookup.stack.compile_stacks` builds from a
:class:`~repro.parallel.heuristics.HeuristicConfig`.  What no tier
answers goes to the owners in one lookup round (:meth:`~repro.parallel.lookup.stack.StackPair.pair_counts`),
which is not a tier: it answers both spectra at once.

Two counter families are recorded into
:class:`~repro.simmpi.instrument.CommStats`:

* the **per-tier family** ``lookup_<tier>_{requests,hits,misses,bytes}``
  (bumped by the stack around each tier, and for ``remote`` by the
  round), where at every tier ``hits + misses == requests`` and
  ``bytes`` counts the key+count payload resolved there (12 bytes per
  hit);
* the **per-kind counters**, split by spectrum (``kmer`` / ``tile``),
  which the per-tier family is not: the reads table's hit counter
  (``reads_table_{kind}_hits``), and the
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

A lookup round and a serve turn gather their increments in a
:class:`Tally` and book it into the rank's ledger once, at the end
(:meth:`~repro.simmpi.instrument.CommStats.add`): the same totals, one
locked update instead of one per counter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, TypeVar

import numpy as np
from numpy.typing import NDArray

from repro.hashing.counthash import CountHash
from repro.hashing.sortedspectrum import SortedSpectrum

if TYPE_CHECKING:
    # Type-only: the round lives beside the stacks, which import this.
    from repro.parallel.lookup.stack import LookupRound

#: Bytes of resolved payload charged per hit in the per-tier ``bytes``
#: counter: an 8-byte key plus a 4-byte count.
BYTES_PER_HIT = 12


class StatsSink(Protocol):
    """The slice of :class:`~repro.simmpi.instrument.CommStats` tiers use."""

    def bump(self, name: str, amount: int = 1) -> None: ...


class Tally(dict):
    """Counter increments gathered over one round or serve turn, then
    booked into a ledger at once (``stats.add(tally)``)."""

    def bump(self, name: str, amount: int = 1) -> None:
        self[name] = self.get(name, 0) + amount


_Answer = TypeVar("_Answer")


def probe(
    lookup: Callable[[NDArray[np.uint64]], _Answer],
    ids: NDArray[np.uint64],
    stats: StatsSink,
) -> _Answer:
    """``lookup(ids)`` — a count table's ``lookup`` or
    ``lookup_found`` — counted as one table probe of ``ids.size`` ids."""
    stats.bump("table_probe_calls")
    stats.bump("table_probe_ids", int(ids.size))
    return lookup(ids)


class AuthorityTier:
    """A table holding the true count of every key a run of owners owns.

    ``owners`` is the covered ranks — consecutive, so their keys are one
    range — or None for every owner (a replicated spectrum, after which
    nothing is left to resolve).  A covered key absent from the table
    answers 0: its owner would too.
    """

    def __init__(
        self,
        name: str,
        table: CountHash | SortedSpectrum,
        owners: range | None,
    ) -> None:
        #: Stable tier name used in counters, reports and MPI007 docs.
        self.name = name
        self.table = table
        self.owners = owners

    def answer(
        self,
        rnd: LookupRound,
        kind: int,
        pos: NDArray[np.intp],
        stats: StatsSink,
    ) -> NDArray[np.intp]:
        """Fill in the counts of the open round positions ``pos`` this
        table covers — its owners' one segment, ascending, repeats kept;
        returns the positions still open."""
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
    ``reads_table_{kind}_hits`` for the reads table, which *add remote
    lookups* also writes fetched counts back into.
    """

    def __init__(self, name: str, table: CountHash, hit_counter: str) -> None:
        #: Stable tier name used in counters, reports and MPI007 docs.
        self.name = name
        self.table = table
        self.hit_counter = hit_counter

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
