"""Tests for the Step IV request/response protocol."""

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.faults import CrashFault, FaultPlan
from repro.hashing.counthash import CountHash
from repro.parallel.ownership import KeySpace
from repro.parallel.server import CorrectionProtocol
from repro.simmpi import run_spmd
from repro.simmpi.message import Tags
from tests.parallel.lookup.ladder import wire_fetch

_NONE = np.empty(0, np.uint64)
#: Both kinds' keys, 24 bits wide, so ``key + 2`` fits a count.
SPACE = KeySpace(24)


def _keys(n):
    """The keys of ids ``0 .. n-1``: spread over every owner."""
    return SPACE.keys(np.arange(n, dtype=np.uint64)).astype(np.uint64)


def _owners(keys, nranks):
    return SPACE.owners(keys, nranks)


def _request(proto, kmer_keys, tile_keys):
    """``(k-mer counts, tile counts)`` of keys owned elsewhere, in one
    blocking lookup round with no local tier."""
    return wire_fetch(proto, (SPACE, SPACE))(kmer_keys, tile_keys)


def _owned_tables(rank, nranks, universe=500):
    """Rank's owned k-mer/tile tables: count = key + 1 (tiles: key + 2)."""
    keys = _keys(universe)
    mine = keys[_owners(keys, nranks) == rank]
    kmers, tiles = CountHash(), CountHash()
    kmers.add_counts(mine, mine + np.uint64(1))
    tiles.add_counts(mine, mine + np.uint64(2))
    return kmers, tiles


@pytest.mark.parametrize("universal", [False, True], ids=["probe", "universal"])
class TestRequestResponse:
    def test_cross_rank_lookup(self, universal):
        def prog(comm):
            kmers, tiles = _owned_tables(comm.rank, comm.size)
            proto = CorrectionProtocol(comm, kmers, tiles, universal=universal)
            # Every rank asks for keys it does not own.
            keys = _keys(100)
            foreign = keys[_owners(keys, comm.size) != comm.rank]
            # One round asks for both kinds of the same keys.
            counts, tcounts = _request(proto, foreign, foreign)
            assert np.array_equal(counts, (foreign + 1).astype(np.uint32))
            assert np.array_equal(tcounts, (foreign + 2).astype(np.uint32))
            # And each kind alone.
            only_tiles = _request(proto, _NONE, foreign)
            assert only_tiles[0].shape == (0,)
            assert np.array_equal(only_tiles[1], tcounts)
            proto.finish()
            return comm.stats.get("requests_served")

        res = run_spmd(prog, 4, engine="cooperative")
        assert sum(res.results) > 0

    def test_absent_key_reported_zero(self, universal):
        def prog(comm):
            kmers, tiles = CountHash(), CountHash()
            proto = CorrectionProtocol(comm, kmers, tiles, universal=universal)
            if comm.rank == 0:
                keys = np.array([12345678], dtype=np.uint64)
                if _owners(keys, comm.size)[0] != 0:
                    counts, tcounts = _request(proto, keys, keys)
                    assert counts.tolist() == tcounts.tolist() == [0]
            proto.finish()

        run_spmd(prog, 3, engine="cooperative")

    def test_duplicate_ids_in_request(self, universal):
        def prog(comm):
            kmers, tiles = _owned_tables(comm.rank, comm.size)
            proto = CorrectionProtocol(comm, kmers, tiles, universal=universal)
            k7, k13 = (int(k) for k in _keys(14)[[7, 13]])
            keys = np.array([k7, k7, k13, k7], dtype=np.uint64)
            if (_owners(keys, comm.size) != comm.rank).all():
                counts, tcounts = _request(proto, keys, keys[:2])
                assert counts.tolist() == [k7 + 1, k7 + 1, k13 + 1, k7 + 1]
                assert tcounts.tolist() == [k7 + 2, k7 + 2]
            proto.finish()

        run_spmd(prog, 2, engine="cooperative")

    def test_empty_request_returns_empty(self, universal):
        def prog(comm):
            proto = CorrectionProtocol(
                comm, CountHash(), CountHash(), universal=universal
            )
            out = _request(proto, _NONE, _NONE)
            assert [o.shape for o in out] == [(0,), (0,)]
            assert comm.stats.get("blocking_request_counts") == 0
            proto.finish()

        run_spmd(prog, 2, engine="cooperative")


class TestTermination:
    def test_finish_is_idempotent(self):
        def prog(comm):
            proto = CorrectionProtocol(comm, CountHash(), CountHash())
            proto.finish()
            proto.finish()  # second call is a no-op
            return True

        assert run_spmd(prog, 3, engine="cooperative").results == [True] * 3

    def test_request_after_finish_rejected(self):
        def prog(comm):
            proto = CorrectionProtocol(comm, CountHash(), CountHash())
            proto.finish()
            if comm.rank == 0:
                # The top key of the space is rank 1's.
                with pytest.raises(CommunicatorError):
                    _request(proto, np.array([2**24 - 1], np.uint64), _NONE)
            return True

        run_spmd(prog, 2, engine="cooperative")

    def test_stragglers_served_while_others_finished(self):
        """Ranks that finish early keep serving until global shutdown."""

        def prog(comm):
            kmers, tiles = _owned_tables(comm.rank, comm.size, universe=100)
            proto = CorrectionProtocol(comm, kmers, tiles)
            if comm.rank == comm.size - 1:
                # The straggler issues lookups after everyone else is done.
                for _ in range(5):
                    keys = _keys(50)
                    sel = _owners(keys, comm.size) != comm.rank
                    counts, _ = _request(proto, keys[sel], _NONE)
                    assert np.array_equal(
                        counts, (keys[sel] + 1).astype(np.uint32)
                    )
            proto.finish()
            return True

        res = run_spmd(prog, 4, engine="cooperative")
        assert res.results == [True] * 4

    def test_a_round_on_part_of_the_world(self):
        """Ranks 1 and 2 correct and terminate among themselves (rooted
        at rank 1) while ranks 0 and 3 serve their lookups from a
        standing pump; then a one-rank round (rank 2) sends no
        termination frame at all."""
        GO = 99

        def correct(proto, comm, ranks):
            keys = _keys(100)
            sel = _owners(keys, comm.size) != comm.rank
            counts, _ = _request(proto, keys[sel], _NONE)
            assert np.array_equal(counts, (keys[sel] + 1).astype(np.uint32))
            proto.finish(ranks)
            if comm.rank == ranks[0]:
                for dest in range(comm.size):
                    if dest not in ranks:
                        comm.send(dest, None, tag=GO)

        def prog(comm):
            kmers, tiles = _owned_tables(comm.rank, comm.size)
            proto = CorrectionProtocol(comm, kmers, tiles)
            for ranks in ((1, 2), (2,)):
                proto.reset_round()
                if comm.rank in ranks:
                    correct(proto, comm, ranks)
                else:
                    arrived = proto.serve_until(GO, 1)
                    assert [m.source for m in arrived] == [ranks[0]]
            return dict(comm.stats.messages_by_tag), comm.stats.get(
                "requests_served"
            )

        results = run_spmd(prog, 4, engine="cooperative").results
        sent = [tags for tags, _ in results]
        assert [tags.get(Tags.WORKER_DONE, 0) for tags in sent] == [0, 0, 1, 0]
        assert [tags.get(Tags.SHUTDOWN, 0) for tags in sent] == [0, 1, 0, 0]
        assert all(served for _, served in results)

    def test_a_done_taken_before_the_round_opens_counts(self):
        """A peer may finish before the round's root has opened the
        round; the DONE the root's standing pump takes counts for it."""

        def prog(comm):
            proto = CorrectionProtocol(comm, CountHash(), CountHash())
            if comm.rank == 0:
                while comm.iprobe(1, Tags.WORKER_DONE) is None:
                    pass
                assert proto.pump(block=True)  # takes the DONE
                proto.reset_round()  # only now does the root open it
            proto.finish()
            return True

        assert run_spmd(prog, 2, engine="cooperative").results == [True] * 2

    def test_locally_owned_id_rejected(self):
        def prog(comm):
            kmers, tiles = _owned_tables(comm.rank, comm.size)
            proto = CorrectionProtocol(comm, kmers, tiles)
            keys = _keys(50)
            mine = keys[_owners(keys, comm.size) == comm.rank]
            if mine.size:
                with pytest.raises(CommunicatorError):
                    _request(proto, _NONE, mine)
            proto.finish()

        run_spmd(prog, 2, engine="cooperative")


@pytest.mark.parametrize("universal", [False, True], ids=["base", "universal"])
class TestFailover:
    """Rank 2 is doomed and rank 0, its recovery partner, holds its
    replica: a round that asks owner 2 is answered here, from the
    replica, each kind into its own slot, with no frame."""

    PLAN = FaultPlan(crashes=(CrashFault(rank=2),))

    @staticmethod
    def _round(universal, chunks_of):
        """Run one round of rank 0's, ``chunks_of(ward keys, owner-1
        keys)``; returns what it asked, its answers and its ledger."""

        def prog(comm):
            if comm.rank == 2:
                return None  # doomed: never asked, never asks
            kmers, tiles = _owned_tables(comm.rank, comm.size)
            proto = CorrectionProtocol(
                comm, kmers, tiles, universal=universal, faults=TestFailover.PLAN
            )
            out = None
            if comm.rank == 0:
                proto.shards.bind_ward(2, *_owned_tables(2, comm.size))
                keys = _keys(200)
                owners = _owners(keys, comm.size)
                chunks = chunks_of(keys[owners == 2], keys[owners == 1])
                answers = proto.ask(chunks)
                stats = comm.stats
                out = (chunks, answers, dict(stats.messages_by_tag),
                       stats.get("failover_requests_served"))
            proto.finish([0, 1, 2])
            return out

        return run_spmd(prog, 3, engine="cooperative").results[0]

    def test_a_ward_is_answered_from_its_replica_with_no_frame(self, universal):
        def chunks_of(ward, _):
            half = ward.size // 2
            return {2: (ward[:half], ward[half:])}

        chunks, answers, frames, failovers = self._round(universal, chunks_of)
        kmers, tiles = chunks[2]
        assert kmers.size and tiles.size
        got_kmers, got_tiles = answers[2]
        assert np.array_equal(got_kmers, (kmers + 1).astype(np.uint32))
        assert np.array_equal(got_tiles, (tiles + 2).astype(np.uint32))
        assert frames == {}
        assert failovers == 1

    def test_an_owner_asked_one_kind_gets_one_frame(self, universal):
        """Beside the ward, owner 1 is asked its tiles alone: one frame
        goes out, to owner 1, and the k-mer slot comes back empty."""

        def chunks_of(ward, theirs):
            return {1: (_NONE, theirs), 2: (ward, _NONE)}

        chunks, answers, frames, failovers = self._round(universal, chunks_of)
        tag = Tags.UNIVERSAL_REQUEST if universal else Tags.TILE_REQUEST
        assert frames == {tag: 1}
        assert failovers == 1
        theirs, ward = chunks[1][1], chunks[2][0]
        assert [a.size for a in answers[1]] == [0, theirs.size]
        assert np.array_equal(answers[1][1], (theirs + 2).astype(np.uint32))
        assert np.array_equal(answers[2][0], (ward + 1).astype(np.uint32))
        assert answers[2][1].size == 0


class TestThreadedEngineProtocol:
    @pytest.mark.parametrize("universal", [False, True], ids=["base", "universal"])
    def test_protocol_under_real_concurrency(self, universal):
        def prog(comm):
            kmers, tiles = _owned_tables(comm.rank, comm.size)
            proto = CorrectionProtocol(comm, kmers, tiles, universal=universal)
            keys = _keys(200)
            sel = _owners(keys, comm.size) != comm.rank
            counts, tcounts = _request(proto, keys[sel], keys[sel])
            assert np.array_equal(counts, (keys[sel] + 1).astype(np.uint32))
            assert np.array_equal(tcounts, (keys[sel] + 2).astype(np.uint32))
            proto.finish()
            return True

        res = run_spmd(prog, 4, engine="threaded")
        assert res.results == [True] * 4
