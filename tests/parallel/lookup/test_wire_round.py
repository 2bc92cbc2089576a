"""Property test: what one mixed lookup round puts on the wire.

A rank's round asks the owners for k-mer and tile counts together.  Run
through the real :class:`~repro.parallel.server.CorrectionProtocol` on
the cooperative engine — base and universal mode, ids repeating within
a kind, the same numeric id in both kinds, behind a replication group,
a prefilled reads table (with or without *add remote lookups*) or a
replicated k-mer spectrum — each owner must be sent, once per round,
the distinct k-mer keys no local tier answers, ascending, then those
tiles', ascending; the answers must be the global counts; under *add
remote lookups* the reads table must gain each fetched key once, with
its global count (0 when globally absent); and every counter and frame
of the round must be what the tier-by-tier round (``ladder.py``) books
on the same queries.
"""

from collections import defaultdict
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.counthash import CountHash
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.kmer.tiles import TileShape
from repro.parallel.build import RankSpectra
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.lookup.stack import compile_stacks
from repro.parallel.ownership import key_spaces
from repro.parallel.server import CorrectionProtocol
from repro.simmpi import run_spmd
from tests.parallel.lookup.ladder import ladder_round, wire_fetch

_ID_RANGE = 2**16
SHAPE = TileShape(12, 4)
SPACES = KSPACE, TSPACE = key_spaces(SHAPE)


def _keys(ids, space):
    return space.keys(np.asarray(ids, dtype=np.uint64))


def _owners(ids, nranks, space):
    return space.owners(_keys(ids, space), nranks)


def _foreign(start, rank, nranks):
    """The first id from ``start`` up that ``rank`` owns in neither kind."""
    i = start
    while rank in (_owners([i], nranks, s)[0] for s in SPACES):
        i += 1
    return i


def _table(counts, space, ids=None):
    """``counts`` (of ``ids``, default all) under the ids' keys."""
    table = CountHash()
    ids = np.array(sorted(counts if ids is None else ids), dtype=np.uint64)
    if ids.size:
        table.add_counts(
            _keys(ids, space),
            np.array([counts.get(int(i), 0) for i in ids], dtype=np.uint64),
        )
    return table


def _group(rank, nranks, size):
    """The replication group of ``rank`` (itself alone without one)."""
    first = rank // size * size
    return range(first, first + size)


@st.composite
def rounds(draw):
    nranks = draw(st.integers(2, 4))
    pool = draw(st.lists(
        st.integers(0, _ID_RANGE - 1), min_size=4, max_size=24, unique=True
    ))
    kmers = {i: draw(st.integers(1, 1000)) for i in pool if draw(st.booleans())}
    tiles = {i: draw(st.integers(1, 1000)) for i in pool if draw(st.booleans())}
    queries = []
    for rank in range(nranks):
        kq = draw(st.lists(st.sampled_from(pool), max_size=30))
        tq = draw(st.lists(st.sampled_from(pool), max_size=30))
        # Both kinds go remote, repeat within the kind, and share a
        # numeric id; one more id is absent from both spectra.
        shared = _foreign(draw(st.sampled_from(pool)), rank, nranks)
        absent = _foreign(_ID_RANGE + rank, rank, nranks)
        kq += [shared, shared, absent]
        tq += [shared, absent, shared]
        queries.append((
            np.array(draw(st.permutations(kq)), dtype=np.uint64),
            np.array(draw(st.permutations(tq)), dtype=np.uint64),
        ))
    reads = draw(st.booleans())
    heuristics = HeuristicConfig(
        universal=draw(st.booleans()),
        read_kmers=reads,
        read_tiles=reads,
        add_remote_lookups=reads and draw(st.booleans()),
        allgather_kmers=draw(st.booleans()),
        replication_group=2 if nranks % 2 == 0 and draw(st.booleans()) else 1,
    )
    # What each rank's reads tables already hold (global counts).
    prefill = [
        draw(st.lists(st.sampled_from(pool), unique=True)) if reads else []
        for _ in range(nranks)
    ]
    return nranks, kmers, tiles, queries, heuristics, prefill


def _run(case, ordered):
    """One round per rank, ordered once (``pair_counts``) or tier by
    tier (``ladder_round`` over a no-tier round of the protocol): per
    rank its counts, ledger and reads tables, and the chunks it sent."""
    nranks, kmers, tiles, queries, heuristics, prefill = case
    group = heuristics.replication_group
    sent = defaultdict(list)
    real_ask = CorrectionProtocol.ask

    def spy(self, chunks):
        for owner, (kmers, tiles) in chunks.items():
            sent[self.comm.rank].append((owner, kmers.tolist(), tiles.tolist()))
        return real_ask(self, chunks)

    def prog(comm):
        rank = comm.rank

        def owned(counts, ranks, space):
            ids = [i for i in counts if _owners([i], comm.size, space)[0] in ranks]
            return _table(counts, space, ids)

        sp = RankSpectra(
            shape=SHAPE, rank=rank, nranks=comm.size,
            kmers=owned(kmers, (rank,), KSPACE),
            tiles=owned(tiles, (rank,), TSPACE),
        )
        if heuristics.allgather_kmers:
            sp.kmers = _table(kmers, KSPACE)
        if group > 1:
            sp.group_ranks = _group(rank, comm.size, group)
            sp.group_tiles = SortedSpectrum.from_counthash(
                owned(tiles, sp.group_ranks, TSPACE)
            )
            if not heuristics.allgather_kmers:
                sp.group_kmers = SortedSpectrum.from_counthash(
                    owned(kmers, sp.group_ranks, KSPACE)
                )
        if heuristics.read_kmers:
            sp.reads_kmers = _table(kmers, KSPACE, prefill[rank])
            sp.reads_tiles = _table(tiles, TSPACE, prefill[rank])
        proto = CorrectionProtocol(
            comm, sp.kmers, sp.tiles, universal=heuristics.universal
        )
        stacks = compile_stacks(comm, sp, heuristics, protocol=proto)
        if ordered:
            kcounts, tcounts = stacks.pair_counts(*queries[rank])
        else:
            kres, tres = ladder_round(
                stacks, *queries[rank], wire_fetch(proto, SPACES)
            )
            kcounts, tcounts = kres.counts, tres.counts
        proto.finish()
        cached = [
            dict(zip(*(a.tolist() for a in t.items())))
            for t in (sp.reads_kmers, sp.reads_tiles) if t is not None
        ]
        stats = comm.stats
        ledger = (dict(stats.counters), stats.messages_sent, stats.bytes_sent)
        return kcounts, tcounts, ledger, cached

    with mock.patch.object(CorrectionProtocol, "ask", spy):
        results = run_spmd(prog, nranks, engine="cooperative").results
    return results, sent


@settings(max_examples=40, deadline=None)
@given(rounds())
def test_round_sends_each_owner_its_distinct_ids_once(case):
    nranks, kmers, tiles, queries, heuristics, prefill = case
    results, sent = _run(case, ordered=True)
    reference, reference_sent = _run(case, ordered=False)

    for rank, (kq, tq) in enumerate(queries):
        kcounts, tcounts, ledger, cached = results[rank]
        assert kcounts.tolist() == [kmers.get(int(i), 0) for i in kq]
        assert tcounts.tolist() == [tiles.get(int(i), 0) for i in tq]
        stats = ledger[0]
        # What no local tier answers: not this rank's (or its group's),
        # not replicated, not already in the reads table.
        local = _group(rank, nranks, heuristics.replication_group)
        remote = []
        for ids, replicated, space in (
            (kq, heuristics.allgather_kmers, KSPACE), (tq, False, TSPACE)
        ):
            if replicated:
                ids = ids[:0]
            ids = ids[~np.isin(_owners(ids, nranks, space), local)]
            remote.append(ids[~np.isin(ids, prefill[rank])])
        kremote, tremote = remote
        asked = kremote.size + tremote.size > 0
        assert stats.get("blocking_request_counts", 0) == int(asked)
        if asked:
            assert stats["remote_kmer_ids_deduped"] == (
                kremote.size - np.unique(kremote).size
            )
            assert stats["remote_tile_ids_deduped"] == (
                tremote.size - np.unique(tremote).size
            )
        # The wire: one chunk per owner, the distinct keys of its
        # k-mers and of its tiles, each ascending.
        expected = {}
        for owner in range(nranks):
            k, t = (
                np.unique(_keys(ids, space)[_owners(ids, nranks, space) == owner])
                for ids, space in ((kremote, KSPACE), (tremote, TSPACE))
            )
            if k.size or t.size:
                expected[owner] = (k.tolist(), t.tolist())
        chunks = sent[rank]
        assert sorted(owner for owner, _, _ in chunks) == sorted(expected)
        for owner, kchunk, tchunk in chunks:
            assert (kchunk, tchunk) == expected[owner], owner
        if heuristics.add_remote_lookups:
            # Every fetched key once, with its global count: nothing
            # doubled, absence cached as 0.
            assert cached == [
                {
                    int(_keys([i], space)[0]): counts.get(int(i), 0)
                    for i in np.append(remote_ids, prefill[rank])
                }
                for remote_ids, counts, space in (
                    (kremote, kmers, KSPACE), (tremote, tiles, TSPACE)
                )
            ]
        # Counts, counters, frames, bytes and tables as the tier-by-tier
        # round books them, and the same chunks on the wire.
        kref, tref, ref_ledger, ref_cached = reference[rank]
        assert np.array_equal(kcounts, kref) and np.array_equal(tcounts, tref)
        assert ledger == ref_ledger
        assert cached == ref_cached
        assert chunks == reference_sent[rank]
