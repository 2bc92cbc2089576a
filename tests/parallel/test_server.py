"""Tests for the Step IV request/response protocol."""

import numpy as np
import pytest

from repro.errors import CommunicatorError
from repro.hashing.counthash import CountHash
from repro.hashing.inthash import mix_to_rank
from repro.parallel.server import CorrectionProtocol
from repro.simmpi import run_spmd

_NONE = np.empty(0, np.uint64)


def _owned_tables(rank, nranks, universe=500):
    """Rank's owned k-mer/tile tables: count = key + 1 (tiles: key + 2)."""
    keys = np.arange(universe, dtype=np.uint64)
    mine = keys[mix_to_rank(keys, nranks) == rank]
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
            keys = np.arange(100, dtype=np.uint64)
            owners = np.asarray(mix_to_rank(keys, comm.size))
            foreign = keys[owners != comm.rank]
            # One round asks for both kinds of the same ids.
            foreign_owners = owners[owners != comm.rank]
            counts, tcounts = proto.request_counts(
                foreign, foreign_owners, foreign, foreign_owners
            )
            assert np.array_equal(counts, (foreign + 1).astype(np.uint32))
            assert np.array_equal(tcounts, (foreign + 2).astype(np.uint32))
            # And each kind alone.
            only_tiles = proto.request_counts(
                _NONE, foreign_owners[:0], foreign, foreign_owners
            )
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
                keys = np.array([123456789], dtype=np.uint64)
                owner = int(mix_to_rank(keys, comm.size)[0])
                if owner != 0:
                    counts, tcounts = proto.request_counts(
                        keys, np.array([owner]), keys, np.array([owner])
                    )
                    assert counts.tolist() == tcounts.tolist() == [0]
            proto.finish()

        run_spmd(prog, 3, engine="cooperative")

    def test_duplicate_ids_in_request(self, universal):
        def prog(comm):
            kmers, tiles = _owned_tables(comm.rank, comm.size)
            proto = CorrectionProtocol(comm, kmers, tiles, universal=universal)
            keys = np.array([7, 7, 13, 7], dtype=np.uint64)
            owners = np.asarray(mix_to_rank(keys, comm.size))
            if (owners != comm.rank).all():
                counts, tcounts = proto.request_counts(
                    keys, owners, keys[:2], owners[:2]
                )
                assert counts.tolist() == [8, 8, 14, 8]
                assert tcounts.tolist() == [9, 9]
            proto.finish()

        run_spmd(prog, 2, engine="cooperative")

    def test_empty_request_returns_empty(self, universal):
        def prog(comm):
            proto = CorrectionProtocol(
                comm, CountHash(), CountHash(), universal=universal
            )
            out = proto.request_counts(
                _NONE, np.empty(0, np.int64), _NONE, np.empty(0, np.int64)
            )
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
                with pytest.raises(CommunicatorError):
                    proto.request_counts(
                        np.array([1], np.uint64),
                        np.array([1], np.int64),
                        _NONE,
                        np.empty(0, np.int64),
                    )
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
                    keys = np.arange(50, dtype=np.uint64)
                    owners = np.asarray(mix_to_rank(keys, comm.size))
                    sel = owners != comm.rank
                    counts, _ = proto.request_counts(
                        keys[sel], owners[sel], _NONE, owners[:0]
                    )
                    assert np.array_equal(
                        counts, (keys[sel] + 1).astype(np.uint32)
                    )
            proto.finish()
            return True

        res = run_spmd(prog, 4, engine="cooperative")
        assert res.results == [True] * 4

    def test_locally_owned_id_rejected(self):
        def prog(comm):
            kmers, tiles = _owned_tables(comm.rank, comm.size)
            proto = CorrectionProtocol(comm, kmers, tiles)
            keys = np.arange(50, dtype=np.uint64)
            owners = np.asarray(mix_to_rank(keys, comm.size))
            mine = keys[owners == comm.rank]
            if mine.size:
                with pytest.raises(CommunicatorError):
                    proto.request_counts(
                        _NONE, owners[:0], mine, np.full(mine.size, comm.rank)
                    )
            proto.finish()

        run_spmd(prog, 2, engine="cooperative")


class TestThreadedEngineProtocol:
    @pytest.mark.parametrize("universal", [False, True], ids=["base", "universal"])
    def test_protocol_under_real_concurrency(self, universal):
        def prog(comm):
            kmers, tiles = _owned_tables(comm.rank, comm.size)
            proto = CorrectionProtocol(comm, kmers, tiles, universal=universal)
            keys = np.arange(200, dtype=np.uint64)
            owners = np.asarray(mix_to_rank(keys, comm.size))
            sel = owners != comm.rank
            counts, tcounts = proto.request_counts(
                keys[sel], owners[sel], keys[sel], owners[sel]
            )
            assert np.array_equal(counts, (keys[sel] + 1).astype(np.uint32))
            assert np.array_equal(tcounts, (keys[sel] + 2).astype(np.uint32))
            proto.finish()
            return True

        res = run_spmd(prog, 4, engine="threaded")
        assert res.results == [True] * 4
