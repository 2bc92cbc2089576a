"""Property test: a compiled tier stack ≡ the pre-refactor ladder.

The refactor's central claim is that :class:`LookupStack` is a pure
restructuring — for every heuristic combination the stack resolves
exactly the counts the old hand-rolled ladder (owned → group →
reads-table → remote) produced.
Hypothesis drives random tables, flags and query batches through both;
``fixtures.json`` pins a handful of recorded cases so the behavior
stays fixed even where generation strategies drift.  The round a
:class:`StackPair` orders once is also held, counter by counter, to the
tier-by-tier round (``ladder.py``).
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.counthash import CountHash
from repro.kmer.tiles import TileShape
from repro.parallel.lookup.routing import KIND_KMER
from repro.parallel.lookup.stack import LookupRound, LookupStack, StackPair
from repro.parallel.lookup.tiers import AuthorityTier, CacheTier, Tally
from repro.parallel.ownership import KeySpace, key_spaces
from tests.parallel.lookup.ladder import ladder_round, oracle_fetch

FIXTURES = Path(__file__).with_name("fixtures.json")
#: The ids drawn are up to 48 bits; both kinds key them alike.
SPACE = KeySpace(48)


class _Stats:
    def __init__(self):
        self.counters = {}

    def bump(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def add(self, tally):
        for name, amount in tally.items():
            self.bump(name, amount)

    def get(self, name):
        return self.counters.get(name, 0)


class _Comm:
    def __init__(self, rank, size):
        self.rank = rank
        self.size = size
        self.stats = _Stats()


class _OracleProtocol:
    """Wire stand-in: answers from the authoritative global table.

    What the real protocol puts on the wire for a round — each distinct
    key once per owner — is pinned by ``test_wire_round.py``."""

    def __init__(self, table):
        self.table = table

    def ask(self, chunks):
        return {
            owner: tuple(self.table.lookup(keys).astype(np.uint32) for keys in kinds)
            for owner, kinds in chunks.items()
        }


def _table(pairs):
    """``(id, count)`` pairs stored under the ids' keys."""
    t = CountHash()
    if pairs:
        ids = np.array([int(k) for k, _ in pairs], dtype=np.uint64)
        counts = np.array([int(v) for _, v in pairs], dtype=np.uint64)
        t.add_counts(SPACE.keys(ids), counts)
    return t


def _owners(ids, nranks):
    return SPACE.owners(SPACE.keys(ids), nranks)


class World:
    """One randomized rank-local storage configuration."""

    def __init__(self, nranks, rank, universe, replicated, group_ranks,
                 reads_subset):
        self.nranks = nranks
        self.rank = rank
        self.universe = dict(universe)  # id -> global count
        self.replicated = replicated
        self.group_ranks = group_ranks
        ids = np.array(sorted(self.universe), dtype=np.uint64)
        owners = _owners(ids, nranks)
        self.global_table = _table(self.universe.items())
        if replicated:
            self.owned = self.global_table
        else:
            mine = ids[owners == rank]
            self.owned = _table([(i, self.universe[int(i)]) for i in mine])
        self.group_table = None
        if group_ranks is not None:
            in_group = ids[np.isin(owners, np.asarray(group_ranks))]
            group_ranks = range(group_ranks[0], group_ranks[-1] + 1)
            self.group_ranks = group_ranks
            self.group_table = _table(
                [(i, self.universe[int(i)]) for i in in_group]
            )
        self.reads_table = None
        if reads_subset is not None:
            self.reads_table = _table(
                [(i, self.universe.get(int(i), 0)) for i in reads_subset]
            )

    def build_stack(self, comm):
        """Mirror compile_stacks' ordering for this configuration."""
        if self.replicated:
            tiers = [AuthorityTier("allgather", self.owned, None)]
            return LookupStack("kmer", SPACE, tiers, comm)
        tiers = [
            AuthorityTier("owned", self.owned, range(self.rank, self.rank + 1))
        ]
        if self.group_table is not None:
            tiers.append(
                AuthorityTier("group", self.group_table, self.group_ranks)
            )
        if self.reads_table is not None:
            tiers.append(CacheTier(
                "reads_table", self.reads_table, "reads_table_kmer_hits"
            ))
        return LookupStack("kmer", SPACE, tiers, comm, to_owners=True)

    def build_pair(self, comm, tile_table):
        """The k-mer stack beside a replicated tile stack over
        ``tile_table``, with the oracle as the round's protocol."""
        tiles = LookupStack(
            "tile", SPACE, [AuthorityTier("allgather", tile_table, None)], comm
        )
        return StackPair(
            self.build_stack(comm), tiles, _OracleProtocol(self.global_table)
        )

    def resolve(self, comm, ids):
        """``ids`` as the k-mer side of one lookup round (an empty tile
        side): the stack and the counts."""
        pair = self.build_pair(comm, CountHash())
        counts, _ = pair.pair_counts(ids, np.empty(0, dtype=np.uint64))
        return pair.kmers, counts

    def ladder(self, comm, ids):
        """The same round, tier by tier (``ladder.py``): the k-mer
        resolution, which records what answered each id."""
        pair = self.build_pair(comm, CountHash())
        res, _ = ladder_round(
            pair, ids, np.empty(0, dtype=np.uint64),
            oracle_fetch(comm.stats, self.global_table),
        )
        return res

    def oracle(self, ids):
        """The pre-refactor ladder, re-derived independently."""
        ids = SPACE.keys(np.asarray(ids, dtype=np.uint64))
        counts = np.zeros(ids.size, dtype=np.uint32)
        open_ = np.ones(ids.size, dtype=bool)
        owners = SPACE.owners(ids, self.nranks)
        if self.replicated:
            counts[open_] = self.owned.lookup(ids[open_])
            open_[:] = False
        else:
            mine = open_ & (owners == self.rank)
            counts[mine] = self.owned.lookup(ids[mine])
            open_ &= ~mine
            if self.group_table is not None:
                grp = open_ & np.isin(owners, np.asarray(self.group_ranks))
                counts[grp] = self.group_table.lookup(ids[grp])
                open_ &= ~grp
            if self.reads_table is not None:
                idx = np.nonzero(open_)[0]
                hit = idx[self.reads_table.contains(ids[idx])]
                counts[hit] = self.reads_table.lookup(ids[hit])
                open_[hit] = False
            counts[open_] = self.global_table.lookup(ids[open_])
        return counts


@st.composite
def worlds(draw):
    nranks = draw(st.integers(1, 6))
    rank = draw(st.integers(0, nranks - 1))
    universe = draw(
        st.dictionaries(
            st.integers(0, 2**48 - 1), st.integers(1, 10_000), max_size=40
        )
    )
    replicated = draw(st.booleans())
    group_ranks = None
    if not replicated and draw(st.booleans()):
        # A replication group is consecutive ranks, this one among them.
        first = draw(st.integers(0, rank))
        group_ranks = list(range(first, draw(st.integers(rank, nranks - 1)) + 1))
    reads_subset = None
    pool = sorted(universe)
    if not replicated and pool and draw(st.booleans()):
        reads_subset = draw(st.lists(st.sampled_from(pool), unique=True))
    known = st.sampled_from(pool) if pool else st.nothing()
    absent = st.integers(0, 2**48 - 1).filter(lambda i: i not in universe)
    query = draw(st.lists(st.one_of(known, absent), max_size=60))
    return World(
        nranks, rank, universe, replicated, group_ranks, reads_subset
    ), query


@settings(max_examples=150, deadline=None)
@given(worlds())
def test_stack_matches_legacy_ladder(case):
    world, query = case
    comm = _Comm(world.rank, world.nranks)
    ids = np.asarray(query, dtype=np.uint64)

    stack, counts = world.resolve(comm, ids)

    assert np.array_equal(counts, world.oracle(ids))
    # What answered each id, from the tier-by-tier round: every id is
    # answered, by a tier or the owners (the stack's names, in order).
    res = world.ladder(_Comm(world.rank, world.nranks), ids)
    assert not res.unresolved.any()
    assert np.array_equal(res.counts, counts)
    if ids.size:
        assert res.resolved_by.min() >= 0
        assert res.resolved_by.max() < len(stack.names)
    # Per-tier ledger invariants: hits + misses == requests at every
    # tier, and the entry counter charges the whole batch once.
    stats = comm.stats
    assert stats.get("kmer_lookups") == ids.size
    resolved_per_tier = np.bincount(
        res.resolved_by[res.resolved_by >= 0], minlength=len(stack.names)
    )
    for index, name in enumerate(stack.names):
        requests = stats.get(f"lookup_{name}_requests")
        hits = stats.get(f"lookup_{name}_hits")
        misses = stats.get(f"lookup_{name}_misses")
        assert hits + misses == requests
        assert hits == int(resolved_per_tier[index])
        assert stats.get(f"lookup_{name}_bytes") == 12 * hits


@settings(max_examples=60, deadline=None)
@given(worlds())
def test_pair_counts_books_what_resolve_books(case):
    """A round through ``pair_counts`` — ordered once, its tiers walked
    over the order, no per-id resolution state — answers and counts
    exactly as the tier-by-tier round of per-stack ``resolve`` calls
    (``ladder.py``), either side empty or not."""
    world, query = case
    ids = np.asarray(query, dtype=np.uint64)
    for kmer_ids, tile_ids in ((ids, ids[:0]), (ids[:0], ids), (ids, ids)):
        booked = []
        for ordered in (True, False):
            comm = _Comm(world.rank, world.nranks)
            pair = world.build_pair(comm, world.global_table)
            if ordered:
                kcounts, tcounts = pair.pair_counts(kmer_ids, tile_ids)
            else:
                kres, tres = ladder_round(
                    pair, kmer_ids, tile_ids,
                    oracle_fetch(comm.stats, world.global_table),
                )
                kcounts, tcounts = kres.counts, tres.counts
            assert np.array_equal(kcounts, world.oracle(kmer_ids))
            assert np.array_equal(
                tcounts, world.global_table.lookup(SPACE.keys(tile_ids))
            )
            booked.append(comm.stats.counters)
        assert booked[0] == booked[1]


@settings(max_examples=60, deadline=None)
@given(worlds())
def test_local_only_leaves_exactly_foreign_unresolved(case):
    """A stack alone resolves locally (the planner's probe): what stays
    unresolved is exactly what no local tier could answer."""
    world, query = case
    comm = _Comm(world.rank, world.nranks)
    stack = world.build_stack(comm)
    ids = np.asarray(query, dtype=np.uint64)
    rnd, open_ = stack.local(SPACE.keys(ids), Tally())
    unresolved = np.zeros(ids.size, dtype=bool)
    unresolved[rnd.origins(KIND_KMER, open_)] = True
    counts, _ = rnd.answers()
    full = world.oracle(ids)
    assert np.array_equal(counts[~unresolved], full[~unresolved])
    assert (counts[unresolved] == 0).all()
    if world.replicated:
        assert not unresolved.any()
    assert comm.stats.counters == {}


class TestRecordedFixtures:
    """Pinned resolutions: same tables, same queries, same answers."""

    @pytest.fixture(scope="class")
    def cases(self):
        return json.loads(FIXTURES.read_text())["cases"]

    def test_fixture_resolutions_stable(self, cases):
        assert cases, "fixtures.json must hold at least one case"
        for case in cases:
            world = World(
                case["nranks"],
                case["rank"],
                {int(k): v for k, v in case["universe"].items()},
                case["replicated"],
                case["group_ranks"],
                case["reads_subset"],
            )
            comm = _Comm(world.rank, world.nranks)
            ids = np.asarray(case["query"], dtype=np.uint64)
            stack, counts = world.resolve(comm, ids)
            assert stack.describe() == case["order"], case["name"]
            assert counts.tolist() == case["expected_counts"], case["name"]
            res = world.ladder(_Comm(world.rank, world.nranks), ids)
            assert res.counts.tolist() == case["expected_counts"], case["name"]
            resolved_by = [stack.names[i] for i in res.resolved_by.tolist()]
            assert resolved_by == case["expected_tiers"], case["name"]


@settings(max_examples=60, deadline=None)
@given(
    nranks=st.sampled_from([1, 2, 3, 5, 8]),
    kmer_ids=st.lists(st.integers(0, 2**24 - 1), max_size=80),
    tile_ids=st.lists(st.integers(0, 2**40 - 1), max_size=80),
)
def test_round_owner_segments_ascend(nranks, kmer_ids, tile_ids):
    """A round is one sort per kind, cut by owner: the segments lie in
    (kind, owner) order, each holds its owner's keys, the keys ascend
    through the whole kind, and the answers come back in input order."""
    spaces = key_spaces(TileShape(12, 4))
    keys = [
        space.keys(np.array(ids, dtype=np.uint64))
        for space, ids in zip(spaces, (kmer_ids, tile_ids))
    ]
    assert keys[0].dtype == np.uint32
    rnd = LookupRound(*keys, spaces, nranks)
    assert rnd.bounds.shape == (2 * nranks + 1,)
    assert (np.diff(rnd.bounds) >= 0).all()
    assert rnd.bounds[-1] == len(kmer_ids) + len(tile_ids)
    for kind, space in enumerate(spaces):
        run = rnd.ids[rnd.positions(kind)]
        assert (np.diff(run.astype(np.int64) if kind == 0 else run) >= 0).all()
        for owner in range(nranks):
            lo, hi = rnd.bounds[kind * nranks + owner : kind * nranks + owner + 2]
            assert (space.owners(rnd.ids[lo:hi], nranks) == owner).all()
    rnd.counts[:] = np.arange(rnd.ids.shape[0], dtype=np.uint32)
    kcounts, tcounts = rnd.answers()
    assert rnd.ids[kcounts].tolist() == keys[0].tolist()
    assert rnd.ids[tcounts].tolist() == keys[1].tolist()
