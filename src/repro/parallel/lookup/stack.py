"""Compiling and running the lookup stacks.

:func:`compile_stacks` turns one rank's
:class:`~repro.parallel.build.RankSpectra` +
:class:`~repro.parallel.heuristics.HeuristicConfig` (plus, optionally, a
wire protocol) into a :class:`StackPair` — one
:class:`LookupStack` per spectrum — **once per rank**, from the names
:func:`tier_order` gives, so the order a report prints is the order
that runs.  Every resolution path (a share's lookup rounds, the
dynamic ablation's work units, recovery replay) then runs the same
compiled object.  The fault plan
enters through the protocol (its retry policy and partner
routing), so a recovering partner re-binds its ward onto the serving
shard rather than growing a bespoke failover path — see
:mod:`repro.parallel.lookup.routing`.

A :class:`LookupStack` resolves what its local tiers can.  What is left
for the owners goes out from the :class:`StackPair`, for both spectra
at once: one lookup round is one request per owner, whatever mix of
k-mer and tile ids it carries (:meth:`StackPair.pair_counts`).  The
round is not a tier; it is booked as ``remote`` all the same.

Everything below the view works in key space
(:mod:`repro.parallel.ownership`): :meth:`StackPair.pair_counts` mixes a
round's ids into keys once, and the tables, the chunks on the wire and
the caches all hold keys.  An owner is a range of keys, so a round is
ordered by one sort per kind (:class:`LookupRound`; k-mer keys sort as
uint32) and cut at the owners' boundaries.  Each stack then walks its
tiers over its kind's run of that order — the rank's own segment is the
``owned`` probe, ascending as the sealed shard wants it; a replication
group, consecutive ranks, takes one segment; the reads table sees what
is still open — and what is left of each foreign segment, deduplicated,
is that owner's chunk on the wire.  No per-key mask is built on the
way.  A stack alone walks a round of one kind (:meth:`LookupStack.local`):
that is how :meth:`LookupStack.counts` answers a kind that stays local.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence, TypeGuard

import numpy as np
from numpy.typing import NDArray

from repro.errors import CommunicatorError, SpectrumError
from repro.hashing.counthash import CountHash
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.parallel.lookup.routing import KIND_KMER, KIND_TILE
from repro.parallel.ownership import KeySpace, key_spaces

if TYPE_CHECKING:
    # Type-only: build imports the wire protocol, which imports this
    # package, so a runtime import would be circular.
    from repro.parallel.build import RankSpectra
    from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.lookup.tiers import (
    BYTES_PER_HIT,
    AuthorityTier,
    CacheTier,
    StatsSink,
    Tally,
    Tier,
    probe,
)
from repro.util.timer import PhaseTimer

_NO_IDS = np.empty(0, dtype=np.uint64)
_NO_POS = np.empty(0, dtype=np.intp)

#: Every tier name a compiled stack can contain, in canonical resolution
#: order (reports iterate this); ``remote`` is the lookup round.
TIER_NAMES = (
    "owned",
    "allgather",
    "group",
    "reads_table",
    "remote",
)


class RemoteProtocol(Protocol):
    """What a lookup round needs from a correction protocol: one call
    that asks each owner for its chunk and returns the answers.

    ``chunks`` maps owner -> ``(kmer_keys, tile_keys)``, each the
    owner's distinct keys of that kind, ascending; :meth:`ask` maps
    every owner asked to ``(kmer_counts, tile_counts)``, aligned with
    them.  How the kinds travel is the protocol's business."""

    def ask(
        self, chunks: dict[int, tuple[NDArray[np.uint64], NDArray[np.uint64]]]
    ) -> dict[int, tuple[NDArray[np.uint32], NDArray[np.uint32]]]: ...


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
    keys they leave open go."""

    def __init__(
        self,
        kind: str,
        space: KeySpace,
        tiers: Sequence[Tier],
        comm: CommLike,
        *,
        to_owners: bool = False,
        write_back: CountHash | None = None,
    ) -> None:
        self.kind = kind
        #: The kind's key space: the mix its ids take, and its owners.
        self.space = space
        self.tiers: tuple[Tier, ...] = tuple(tiers)
        self.comm = comm
        #: Do the ids no tier answers go to their owners, in the pair's
        #: lookup round?  If not, a key they leave open is an error
        #: (:meth:`counts`).
        self.to_owners = to_owners
        #: Reads table the round's answers are cached into (the *add
        #: remote lookups* heuristic), or None.
        self.write_back = write_back
        #: What can answer an id, in order: the tiers, then ``remote``.
        self.names = tuple(t.name for t in self.tiers) + (
            ("remote",) if to_owners else ()
        )
        # Counter names, built once: walk() runs per lookup batch.
        self._lookups_counter = f"{kind}_lookups"
        self._remote_counter = f"remote_{kind}_lookups"
        self._counters = tuple(
            tuple(
                f"lookup_{name}_{what}"
                for what in ("requests", "hits", "misses", "bytes")
            )
            for name in self.names
        )
        # Degenerate stack (one rank, or fully replicated):
        # one authoritative replica resolves everything, so :meth:`counts`
        # can skip the round entirely.
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

    def _book(
        self, stats: StatsSink, index: int, presented: int, hits: int
    ) -> None:
        """Book ``hits`` of ``presented`` ids answered by ``names[index]``."""
        requests, hit, miss, nbytes = self._counters[index]
        stats.bump(requests, presented)
        stats.bump(hit, hits)
        stats.bump(miss, presented - hits)
        stats.bump(nbytes, BYTES_PER_HIT * hits)

    def walk(
        self, rnd: LookupRound, kind: int, stats: StatsSink
    ) -> NDArray[np.intp]:
        """Answer this stack's kind of a lookup round from the local
        tiers; returns the round positions (ascending) still open.

        Each tier sees what the tiers before it left open; each is booked
        its ``lookup_<tier>_*`` counters.
        """
        pos = rnd.positions(kind)
        stats.bump(self._lookups_counter, pos.shape[0])
        for index, tier in enumerate(self.tiers):
            presented = pos.shape[0]
            if presented == 0:
                break
            pos = tier.answer(rnd, kind, pos, stats)
            self._book(stats, index, presented, presented - pos.shape[0])
        return pos

    def local(
        self, keys: NDArray[np.unsignedinteger], stats: StatsSink
    ) -> tuple[LookupRound, NDArray[np.intp]]:
        """``keys`` of this stack's kind as a lookup round of one kind
        (its k-mer side, whatever the stack's kind), walked down the
        local tiers: the round, and its positions still open."""
        rnd = LookupRound(keys, keys[:0], (self.space, self.space), self.comm.size)
        return rnd, self.walk(rnd, KIND_KMER, stats)

    def counts(self, keys: NDArray[np.unsignedinteger]) -> NDArray[np.uint32]:
        """Counts of keys the local tiers resolve; raises
        :class:`~repro.errors.SpectrumError` if any is left open (a
        lookup round answers those: :meth:`StackPair.pair_counts`)."""
        tally = Tally()
        tier = self._sole_replica
        if tier is not None and keys.size:
            # Books exactly what a walk would: the replica tier answers
            # every key, so requests == hits.
            out = probe(tier.table.lookup, keys, tally)
            tally.bump(self._lookups_counter, keys.size)
            self._book(tally, 0, keys.size, keys.size)
        else:
            rnd, left = self.local(keys, tally)
            out = None if left.size else rnd.answers()[0]
        self.comm.stats.add(tally)
        if out is None:
            raise SpectrumError(
                f"{left.size} {self.kind} ids do not resolve locally; "
                "their counts need a lookup round"
            )
        return out


def _replica(tier: Tier) -> TypeGuard[AuthorityTier]:
    """Is ``tier`` a replicated spectrum (authoritative for every id)?"""
    return isinstance(tier, AuthorityTier) and tier.owners is None


class LookupRound:
    """One lookup round's keys, both kinds, ordered once.

    The order is (kind, key): :attr:`ids` holds the round's keys in
    that order and :attr:`counts` fills in beside them as tiers and
    owners answer.  An owner is a range of keys, so within a kind each
    owner's segment is a run between two cuts, ascending, repeats
    adjacent — the rank's own segment is an ascending probe of its
    shard, and what is left of a foreign segment is that owner's chunk,
    deduplicated by one comparison with its neighbour.  The ordering is
    one sort per kind and ``P - 1`` binary searches.
    """

    def __init__(
        self,
        kmer_keys: NDArray[np.unsignedinteger],
        tile_keys: NDArray[np.unsignedinteger],
        spaces: tuple[KeySpace, KeySpace],
        size: int,
    ) -> None:
        self.size = size
        self._nk = kmer_keys.shape[0]
        kinds = (kmer_keys, tile_keys)
        orders = [keys.argsort() for keys in kinds]
        runs = [keys[order] for keys, order in zip(kinds, orders)]
        kcuts, tcuts = (space.cuts(run, size) for run, space in zip(runs, spaces))
        self._order = np.concatenate([orders[0], orders[1] + self._nk])
        #: Segment (kind, owner) is ``bounds[kind * size + owner]`` up
        #: to the next bound.
        self.bounds = np.concatenate([kcuts, tcuts[1:] + self._nk])
        #: The round's keys in (kind, key) order.
        self.ids = np.concatenate(runs, dtype=np.uint64)
        #: Counts at those positions, filled in as they are answered.
        self.counts = np.zeros(self.ids.shape[0], dtype=np.uint32)

    def positions(self, kind: int) -> NDArray[np.intp]:
        """Every position of a kind (``KIND_KMER`` / ``KIND_TILE``)."""
        base = kind * self.size
        return np.arange(self.bounds[base], self.bounds[base + self.size])

    def origins(self, kind: int, pos: NDArray[np.intp]) -> NDArray[np.intp]:
        """Where each key at positions ``pos`` of a kind stood among
        that kind's keys as they came."""
        return self._order[pos] - kind * self._nk

    def split(
        self, kind: int, pos: NDArray[np.intp], owners: range
    ) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
        """Ascending positions ``pos`` of a kind, split into those in
        the segment of the consecutive ``owners`` and the rest."""
        base = kind * self.size
        a, b = pos.searchsorted(
            self.bounds[[base + owners.start, base + owners.stop]]
        )
        return pos[a:b], np.concatenate([pos[:a], pos[b:]])

    def ask(
        self,
        kmer_pos: NDArray[np.intp],
        tile_pos: NDArray[np.intp],
        protocol: RemoteProtocol,
        stats: StatsSink,
    ) -> tuple[tuple[NDArray[np.uint64], NDArray[np.uint32]], ...]:
        """Ask the owners for the keys at the open positions of each kind
        (ascending), each distinct key once, and fill in their counts.

        Returns, per kind, the distinct keys asked and their counts.  A
        repeat is booked as ``remote_{kind}_ids_deduped``; the round as
        one ``blocking_request_counts``.
        """
        kinds = []
        for kind, pos in ((KIND_KMER, kmer_pos), (KIND_TILE, tile_pos)):
            ids = self.ids[pos]
            # Equal keys are adjacent, and never in two segments of a
            # kind: a key has one owner.
            first = np.ones(ids.shape[0], dtype=bool)
            np.not_equal(ids[1:], ids[:-1], out=first[1:])
            slot = np.cumsum(first)
            slot -= 1
            base = kind * self.size
            edges = pos[first].searchsorted(
                self.bounds[base : base + self.size + 1]
            ).tolist()
            kinds.append((pos, ids[first], slot, edges))
        (_, kmers, _, kedges), (_, tiles, _, tedges) = kinds
        # Every synchronous round trip is accounted: a rank's dependent
        # lookup rounds.
        stats.bump("blocking_request_counts")
        stats.bump("remote_kmer_ids_deduped", kmer_pos.shape[0] - kmers.shape[0])
        stats.bump("remote_tile_ids_deduped", tile_pos.shape[0] - tiles.shape[0])
        chunks: dict[int, tuple[NDArray[np.uint64], NDArray[np.uint64]]] = {}
        for owner in range(self.size):
            klo, khi = kedges[owner], kedges[owner + 1]
            tlo, thi = tedges[owner], tedges[owner + 1]
            if klo != khi or tlo != thi:
                chunks[owner] = (kmers[klo:khi], tiles[tlo:thi])
        answers = protocol.ask(chunks)
        parts: tuple[list[NDArray[np.uint32]], ...] = ([], [])
        for owner, asked_keys in chunks.items():
            for name, keys, counts, kind_parts in zip(
                ("k-mer", "tile"), asked_keys, answers[owner], parts
            ):
                if counts.shape[0] != keys.shape[0]:
                    raise CommunicatorError(
                        f"{name} response length mismatch from rank {owner}: "
                        f"got {counts.shape[0]}, wanted {keys.shape[0]}"
                    )
                kind_parts.append(counts)
        asked = []
        for (pos, distinct, slot, _), kind_parts in zip(kinds, parts):
            counts = np.concatenate(kind_parts).astype(np.uint32, copy=False)
            self.counts[pos] = counts[slot]
            asked.append((distinct, counts))
        return tuple(asked)

    def answers(self) -> tuple[NDArray[np.uint32], NDArray[np.uint32]]:
        """``(k-mer counts, tile counts)`` in the order the keys came."""
        out = np.empty_like(self.counts)
        out[self._order] = self.counts
        return out[: self._nk], out[self._nk :]


@dataclass(frozen=True)
class StackPair:
    """The two compiled stacks of one rank (k-mer and tile spectra), and
    the round that asks the owners for what both leave open."""

    kmers: LookupStack
    tiles: LookupStack
    #: The wire endpoint of the lookup round, or None when every id
    #: resolves locally.
    protocol: RemoteProtocol | None = None
    #: Where the round's wait is booked (``comm_kmer`` / ``comm_tile``).
    timer: PhaseTimer = field(default_factory=PhaseTimer)

    # The corrector's SpectrumView interface, so a compiled pair is
    # handed to ReptileCorrector as is.
    def pair_counts(
        self,
        kmer_ids: NDArray[np.uint64],
        tile_ids: NDArray[np.uint64],
    ) -> tuple[NDArray[np.uint32], NDArray[np.uint32]]:
        """Global k-mer and tile counts, in one lookup round.

        The ids are mixed into keys, once.  The keys of each kind whose
        stack goes to the owners — own and foreign alike — are ordered
        once (:class:`LookupRound`), walked down their local tiers
        (:meth:`LookupStack.walk`), and what is left goes out in one
        request per owner.  A kind that stays local (replicated) answers
        from its own tiers.  The round's wait is booked to ``comm_kmer``
        / ``comm_tile`` in proportion to the open keys of each kind; its
        answers as the ``remote`` tier of their stack.  The round's
        counters are gathered in a :class:`~repro.parallel.lookup.tiers.
        Tally` and booked at once.
        """
        stacks = (self.kmers, self.tiles)
        keys = [
            stack.space.keys(ids) for stack, ids in zip(stacks, (kmer_ids, tile_ids))
        ]
        local = [
            None if stack.to_owners
            else stack.counts(kind_keys)
            for stack, kind_keys in zip(stacks, keys)
        ]
        if local[0] is not None and local[1] is not None:
            return local[0], local[1]
        comm = self.kmers.comm
        tally = Tally()
        rnd = LookupRound(
            *(k if counts is None else k[:0] for k, counts in zip(keys, local)),
            (self.kmers.space, self.tiles.space),
            comm.size,
        )
        kopen, topen = (
            _NO_POS if counts is not None else stack.walk(rnd, kind, tally)
            for stack, kind, counts in zip(stacks, (KIND_KMER, KIND_TILE), local)
        )
        nk, nt = kopen.shape[0], topen.shape[0]
        if nk + nt:
            if self.protocol is None:
                raise SpectrumError("a lookup round needs a wire protocol")
            start = time.perf_counter()
            asked = rnd.ask(kopen, topen, self.protocol, tally)
            elapsed = time.perf_counter() - start
            self.timer.add("comm_kmer", elapsed * nk / (nk + nt))
            self.timer.add("comm_tile", elapsed * nt / (nk + nt))
            for stack, n, (asked_keys, counts) in zip(stacks, (nk, nt), asked):
                if n:
                    _book_round(stack, n, asked_keys, counts, tally)
        comm.stats.add(tally)
        kcounts, tcounts = rnd.answers()
        return (
            kcounts if local[0] is None else local[0],
            tcounts if local[1] is None else local[1],
        )

    def kmer_counts(self, ids: NDArray[np.uint64]) -> NDArray[np.uint32]:
        """Global k-mer counts via the tier stack."""
        return self.pair_counts(ids, _NO_IDS)[0]

    def tile_counts(self, ids: NDArray[np.uint64]) -> NDArray[np.uint32]:
        """Global tile counts via the tier stack."""
        return self.pair_counts(_NO_IDS, ids)[1]

    @property
    def fully_replicated(self) -> bool:
        return self.kmers.fully_replicated and self.tiles.fully_replicated


def add_fresh(
    table: CountHash, ids: NDArray[np.uint64], counts: NDArray[np.uint32]
) -> None:
    """Cache authoritative ``counts`` of ``ids`` in ``table``, each id
    once; an id already cached keeps its entry.

    ``add_counts`` *accumulates*, so a key a reads table already holds
    must not be re-added, and duplicate keys within one batch must
    collapse to one entry.
    """
    if ids.size == 0:
        return
    ids, first = np.unique(ids, return_index=True)
    counts = counts[first]
    fresh = ~table.contains(ids)
    if fresh.any():
        table.add_counts(ids[fresh], counts[fresh].astype(np.uint64))


def _book_round(
    stack: LookupStack,
    n: int,
    ids: NDArray[np.uint64],
    counts: NDArray[np.uint32],
    stats: StatsSink,
) -> None:
    """Book the round's answers to ``n`` open keys of ``stack`` — the
    distinct keys ``ids`` with their ``counts`` — as ``remote``, and
    cache them in the stack's reads table under *add remote lookups*."""
    stats.bump(stack._remote_counter, n)
    stack._book(stats, len(stack.tiers), n, n)
    if stack.write_back is not None:
        # Global absence is cached too, as 0.
        add_fresh(stack.write_back, ids, counts)


def compile_stacks(
    comm: CommLike,
    spectra: RankSpectra,
    heuristics: HeuristicConfig,
    *,
    protocol: RemoteProtocol | None = None,
    timer: PhaseTimer | None = None,
) -> StackPair:
    """Build the rank's stacks from its spectra + heuristics, in the
    order :func:`tier_order` names.

    Compiled once per rank and shared by every resolution path.  A
    stack whose kind is not replicated sends what its tiers leave open
    to the owners through ``protocol``, in the pair's lookup rounds
    (:meth:`StackPair.pair_counts`), whose wait is booked on ``timer``.
    """

    def build(
        kind: str,
        space: KeySpace,
        owned: CountHash | SortedSpectrum,
        group: SortedSpectrum | None,
        reads: CountHash | None,
    ) -> LookupStack:
        tiers: list[Tier] = []
        to_owners = False
        for name in tier_order(heuristics, kind, comm.size):
            if name == "allgather":
                tiers.append(AuthorityTier(name, owned, None))
            elif name == "owned":
                tiers.append(AuthorityTier(
                    name, owned, range(comm.rank, comm.rank + 1)
                ))
            elif name == "group":
                assert group is not None
                tiers.append(AuthorityTier(name, group, spectra.group_ranks))
            elif name == "reads_table":
                assert reads is not None
                tiers.append(CacheTier(name, reads, f"reads_table_{kind}_hits"))
            else:
                to_owners = True
        return LookupStack(
            kind, space, tiers, comm, to_owners=to_owners,
            write_back=(
                reads if to_owners and heuristics.add_remote_lookups else None
            ),
        )

    kspace, tspace = key_spaces(spectra.shape)
    return StackPair(
        kmers=build(
            "kmer", kspace, spectra.kmers, spectra.group_kmers, spectra.reads_kmers
        ),
        tiles=build(
            "tile", tspace, spectra.tiles, spectra.group_tiles, spectra.reads_tiles
        ),
        protocol=protocol,
        timer=timer or PhaseTimer(),
    )


def tier_order(
    heuristics: HeuristicConfig, kind: str, nranks: int
) -> tuple[str, ...]:
    """The tier names :func:`compile_stacks` would emit for a kind in a
    world of ``nranks``.

    Derivable from the heuristics and the world size alone (no rank
    state), which is what lets the run report print the resolution order
    without access to the per-rank stack objects.  A one-rank world's
    shard is the whole spectrum, so it resolves through ``allgather``
    like a replicated kind.
    """
    if kind not in ("kmer", "tile"):
        raise ValueError(f"unknown lookup kind {kind!r}")
    replicated = nranks == 1 or (
        heuristics.allgather_kmers
        if kind == "kmer"
        else heuristics.allgather_tiles
    )
    if replicated:
        return ("allgather",)
    reads = (
        heuristics.read_kmers if kind == "kmer" else heuristics.read_tiles
    )
    order = ["owned"]
    if heuristics.replication_group > 1:
        order.append("group")
    if reads:
        order.append("reads_table")
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
