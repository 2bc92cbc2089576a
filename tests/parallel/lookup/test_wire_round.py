"""Property test: what one mixed lookup round puts on the wire.

A rank's round asks the owners for k-mer and tile counts together.  Run
through the real :class:`~repro.parallel.server.CorrectionProtocol` on
the cooperative engine — base and universal mode, ids repeating within
a kind, the same numeric id in both kinds — each owner must be sent,
once per round, its distinct k-mer ids ascending, then its distinct
tile ids ascending; the answers must be the global counts; and under
*add remote lookups* the reads table must gain each fetched id once,
with its global count (0 when globally absent).
"""

from collections import defaultdict
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.counthash import CountHash
from repro.hashing.inthash import mix_to_rank
from repro.kmer.tiles import TileShape
from repro.parallel.build import RankSpectra
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.lookup.stack import compile_stacks
from repro.parallel.server import CorrectionProtocol
from repro.simmpi import run_spmd

_ID_RANGE = 2**16


def _owner(i, nranks):
    return int(mix_to_rank(np.array([i], dtype=np.uint64), nranks)[0])


def _foreign(start, rank, nranks):
    """The first id from ``start`` up that ``rank`` does not own."""
    i = start
    while _owner(i, nranks) == rank:
        i += 1
    return i


def _table(counts, ids=None):
    table = CountHash()
    keys = np.array(sorted(counts if ids is None else ids), dtype=np.uint64)
    if keys.size:
        table.add_counts(
            keys, np.array([counts[int(k)] for k in keys], dtype=np.uint64)
        )
    return table


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
    universal = draw(st.booleans())
    write_back = draw(st.booleans())
    return nranks, kmers, tiles, queries, universal, write_back


def _foreign_of(ids, rank, nranks):
    return ids[mix_to_rank(ids, nranks) != rank] if ids.size else ids


@settings(max_examples=40, deadline=None)
@given(rounds())
def test_round_sends_each_owner_its_distinct_ids_once(case):
    nranks, kmers, tiles, queries, universal, write_back = case
    heuristics = HeuristicConfig(
        universal=universal,
        read_kmers=write_back,
        read_tiles=write_back,
        add_remote_lookups=write_back,
    )
    sent = defaultdict(list)
    real_send = CorrectionProtocol._send

    def spy(self, owner, chunk, n_kmer):
        sent[self.comm.rank].append((owner, np.array(chunk), int(n_kmer)))
        return real_send(self, owner, chunk, n_kmer)

    def prog(comm):
        rank = comm.rank

        def mine(counts):
            return [i for i in counts if _owner(i, comm.size) == rank]

        sp = RankSpectra(
            shape=TileShape(12, 4), rank=rank, nranks=comm.size,
            kmers=_table(kmers, mine(kmers)), tiles=_table(tiles, mine(tiles)),
        )
        if write_back:
            sp.reads_kmers, sp.reads_tiles = CountHash(), CountHash()
        proto = CorrectionProtocol(comm, sp.kmers, sp.tiles, universal=universal)
        stacks = compile_stacks(comm, sp, heuristics, protocol=proto)
        stats = comm.stats
        before = stats.get("blocking_request_counts")
        kres, tres = stacks.resolve(*queries[rank])
        rounds_run = stats.get("blocking_request_counts") - before
        proto.finish()
        cached = [
            dict(zip(*(a.tolist() for a in t.items())))
            for t in (sp.reads_kmers, sp.reads_tiles) if t is not None
        ]
        return (
            kres.counts, tres.counts, rounds_run,
            stats.get("remote_kmer_ids_deduped"),
            stats.get("remote_tile_ids_deduped"),
            cached,
        )

    with mock.patch.object(CorrectionProtocol, "_send", spy):
        results = run_spmd(prog, nranks, engine="cooperative").results

    for rank, (kq, tq) in enumerate(queries):
        kcounts, tcounts, rounds_run, kdup, tdup, cached = results[rank]
        assert kcounts.tolist() == [kmers.get(int(i), 0) for i in kq]
        assert tcounts.tolist() == [tiles.get(int(i), 0) for i in tq]
        assert rounds_run == 1
        kforeign = _foreign_of(kq, rank, nranks)
        tforeign = _foreign_of(tq, rank, nranks)
        assert kdup == kforeign.size - np.unique(kforeign).size
        assert tdup == tforeign.size - np.unique(tforeign).size
        # The wire: one chunk per owner, distinct k-mers then distinct
        # tiles, each ascending.
        expected = {}
        for owner in range(nranks):
            k = np.unique(kforeign[mix_to_rank(kforeign, nranks) == owner])
            t = np.unique(tforeign[mix_to_rank(tforeign, nranks) == owner])
            if k.size or t.size:
                expected[owner] = (np.concatenate([k, t]).tolist(), k.size)
        chunks = sent[rank]
        assert sorted(owner for owner, _, _ in chunks) == sorted(expected)
        for owner, chunk, n_kmer in chunks:
            assert (chunk.tolist(), n_kmer) == expected[owner], owner
        if write_back:
            # Every fetched id once, with its global count: nothing
            # doubled, absence cached as 0.
            assert cached == [
                {int(i): kmers.get(int(i), 0) for i in kforeign},
                {int(i): tiles.get(int(i), 0) for i in tforeign},
            ]
