"""Property test: a compiled tier stack ≡ the pre-refactor ladder.

The refactor's central claim is that :class:`LookupStack` is a pure
restructuring — for every heuristic combination the stack resolves
exactly the counts the old hand-rolled ladder (owned → group →
reads-table → remote, with an optional chunk cache in front) produced.
Hypothesis drives random tables, flags and query batches through both;
``fixtures.json`` pins a handful of recorded cases so the behavior
stays fixed even where generation strategies drift.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.counthash import CountHash
from repro.hashing.inthash import mix_to_rank
from repro.parallel.lookup.stack import LookupStack, StackPair
from repro.parallel.lookup.tiers import AuthorityTier, CacheTier

FIXTURES = Path(__file__).with_name("fixtures.json")


class _Stats:
    def __init__(self):
        self.counters = {}

    def bump(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + int(amount)

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
    id once per owner — is pinned by ``test_wire_round.py``."""

    def __init__(self, table):
        self.table = table

    def request_counts(self, kmer_ids, kmer_owners, tile_ids, tile_owners):
        return (
            self.table.lookup(kmer_ids).astype(np.uint32),
            self.table.lookup(tile_ids).astype(np.uint32),
        )


def _table(pairs):
    t = CountHash()
    if pairs:
        ids = np.array([int(k) for k, _ in pairs], dtype=np.uint64)
        counts = np.array([int(v) for _, v in pairs], dtype=np.uint64)
        t.add_counts(ids, counts)
    return t


class World:
    """One randomized rank-local storage configuration."""

    def __init__(self, nranks, rank, universe, replicated, group_ranks,
                 reads_subset, cache_subset):
        self.nranks = nranks
        self.rank = rank
        self.universe = dict(universe)  # id -> global count
        self.replicated = replicated
        self.group_ranks = group_ranks
        ids = np.array(sorted(self.universe), dtype=np.uint64)
        owners = (
            np.asarray(mix_to_rank(ids, nranks), dtype=np.int64)
            if ids.size else np.empty(0, dtype=np.int64)
        )
        self.global_table = _table(self.universe.items())
        if replicated:
            self.owned = self.global_table
        else:
            mine = ids[owners == rank]
            self.owned = _table([(i, self.universe[int(i)]) for i in mine])
        self.group_table = None
        if group_ranks is not None:
            in_group = ids[np.isin(owners, np.asarray(group_ranks))]
            self.group_table = _table(
                [(i, self.universe[int(i)]) for i in in_group]
            )
        self.reads_table = None
        if reads_subset is not None:
            self.reads_table = _table(
                [(i, self.universe.get(int(i), 0)) for i in reads_subset]
            )
        self.cache_table = None
        if cache_subset is not None:
            self.cache_table = _table(
                [(i, self.universe.get(int(i), 0)) for i in cache_subset]
            )

    def build_stack(self, comm):
        """Mirror compile_stacks' ordering for this configuration."""
        tiers = []
        if self.cache_table is not None:
            tiers.append(
                CacheTier("chunk_cache", self.cache_table, "prefetch_kmer_hits")
            )
        if self.replicated:
            tiers.append(AuthorityTier("allgather", self.owned, None))
            return LookupStack("kmer", tiers, comm)
        tiers.append(AuthorityTier("owned", self.owned, (self.rank,)))
        if self.group_table is not None:
            tiers.append(
                AuthorityTier("group", self.group_table, self.group_ranks)
            )
        if self.reads_table is not None:
            tiers.append(CacheTier(
                "reads_table", self.reads_table, "reads_table_kmer_hits"
            ))
        return LookupStack("kmer", tiers, comm, to_owners=True)

    def build_pair(self, comm, tile_table):
        """The k-mer stack beside a replicated tile stack over
        ``tile_table``, with the oracle as the round's protocol."""
        tiles = LookupStack(
            "tile", [AuthorityTier("allgather", tile_table, None)], comm
        )
        return StackPair(
            self.build_stack(comm), tiles, _OracleProtocol(self.global_table)
        )

    def resolve(self, comm, ids, record_stats=True):
        """``ids`` as the k-mer side of one lookup round (an empty tile
        side): the stack and its resolution."""
        pair = self.build_pair(comm, CountHash())
        res, _ = pair.resolve(
            ids, np.empty(0, dtype=np.uint64), record_stats=record_stats
        )
        return pair.kmers, res

    def oracle(self, ids):
        """The pre-refactor ladder, re-derived independently."""
        ids = np.asarray(ids, dtype=np.uint64)
        counts = np.zeros(ids.size, dtype=np.uint32)
        open_ = np.ones(ids.size, dtype=bool)
        owners = np.asarray(mix_to_rank(ids, self.nranks), dtype=np.int64)
        if self.cache_table is not None:
            got, found = self.cache_table.lookup_found(ids)
            counts[found] = got[found]
            open_ &= ~found
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
        others = sorted(
            draw(st.sets(st.integers(0, nranks - 1), max_size=nranks))
            | {rank}
        )
        group_ranks = others
    reads_subset = cache_subset = None
    pool = sorted(universe)
    if not replicated and pool and draw(st.booleans()):
        reads_subset = draw(st.lists(st.sampled_from(pool), unique=True))
    if pool and draw(st.booleans()):
        cache_subset = draw(st.lists(st.sampled_from(pool), unique=True))
    known = st.sampled_from(pool) if pool else st.nothing()
    absent = st.integers(0, 2**48 - 1).filter(lambda i: i not in universe)
    query = draw(st.lists(st.one_of(known, absent), max_size=60))
    return World(
        nranks, rank, universe, replicated, group_ranks,
        reads_subset, cache_subset,
    ), query


@settings(max_examples=150, deadline=None)
@given(worlds())
def test_stack_matches_legacy_ladder(case):
    world, query = case
    comm = _Comm(world.rank, world.nranks)
    ids = np.asarray(query, dtype=np.uint64)

    stack, res = world.resolve(comm, ids)

    assert np.array_equal(res.counts, world.oracle(ids))
    assert not res.unresolved.any()
    # resolved_by indexes the stack's names (tiers, then remote).
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
def test_record_stats_false_is_silent(case):
    world, query = case
    comm = _Comm(world.rank, world.nranks)
    ids = np.asarray(query, dtype=np.uint64)
    _, res = world.resolve(comm, ids, record_stats=False)
    assert np.array_equal(res.counts, world.oracle(ids))
    assert comm.stats.counters == {}


@settings(max_examples=60, deadline=None)
@given(worlds())
def test_pair_counts_books_what_resolve_books(case):
    """A round through ``pair_counts`` — which skips the resolution
    bookkeeping when both stacks are one replica tier — answers and
    counts exactly as a full ``resolve``, either side empty or not."""
    world, query = case
    ids = np.asarray(query, dtype=np.uint64)
    for kmer_ids, tile_ids in ((ids, ids[:0]), (ids[:0], ids), (ids, ids)):
        booked = []
        for fast in (True, False):
            comm = _Comm(world.rank, world.nranks)
            pair = world.build_pair(comm, world.global_table)
            if fast:
                kcounts, tcounts = pair.pair_counts(kmer_ids, tile_ids)
            else:
                kres, tres = pair.resolve(kmer_ids, tile_ids)
                kcounts, tcounts = kres.counts, tres.counts
            assert np.array_equal(kcounts, world.oracle(kmer_ids))
            assert np.array_equal(tcounts, world.global_table.lookup(tile_ids))
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
    res = stack.resolve(ids, record_stats=False)
    full = world.oracle(ids)
    assert np.array_equal(res.counts[~res.unresolved], full[~res.unresolved])
    if world.replicated:
        assert not res.unresolved.any()


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
                case["cache_subset"],
            )
            comm = _Comm(world.rank, world.nranks)
            ids = np.asarray(case["query"], dtype=np.uint64)
            stack, res = world.resolve(comm, ids)
            assert stack.describe() == case["order"], case["name"]
            assert res.counts.tolist() == case["expected_counts"], case["name"]
            resolved_by = [stack.names[i] for i in res.resolved_by.tolist()]
            assert resolved_by == case["expected_tiers"], case["name"]
