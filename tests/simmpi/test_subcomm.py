"""Tests for sub-communicators (MPI_Comm_split semantics)."""

import numpy as np
import pytest

from repro.errors import CommunicatorError, RankMismatchError
from repro.simmpi import ANY_SOURCE, ANY_TAG, run_spmd

ENGINES = ["cooperative", "threaded"]


def _collectives(comm):
    """Every collective once, on whatever communicator it is given; the
    values depend only on the rank within ``comm``."""
    chunks = [np.array([comm.rank * 10 + d]) for d in range(comm.size)]
    return (
        comm.allreduce(comm.rank + 1),
        comm.allgather(comm.rank),
        [int(a[0]) for a in comm.alltoallv(chunks)],
        comm.gather(comm.rank * 3, root=comm.size - 1),
        comm.bcast(f"from {comm.rank}", root=comm.size - 1),
        comm.reduce(comm.rank + 1, op=max, root=comm.size - 1),
        comm.barrier(),
    )


def _group_collectives(comm):
    # Module level, so the process engine can pickle it.
    return _collectives(comm.split(comm.rank % 2))


class TestSplit:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_group_membership_and_ranks(self, engine):
        def prog(comm):
            group = comm.split(comm.rank % 2)
            return (group.rank, group.size, group.members)

        res = run_spmd(prog, 6, engine=engine)
        evens = [r for r in range(6) if r % 2 == 0]
        odds = [r for r in range(6) if r % 2 == 1]
        for world_rank, (g_rank, g_size, members) in enumerate(res.results):
            expected = evens if world_rank % 2 == 0 else odds
            assert members == tuple(expected)
            assert g_size == 3
            assert members[g_rank] == world_rank

    @pytest.mark.parametrize("engine", ENGINES)
    def test_p2p_within_group(self, engine):
        def prog(comm):
            group = comm.split(comm.rank // 2)  # pairs
            peer = 1 - group.rank
            group.send(peer, f"from {comm.rank}", tag=4)
            msg = group.recv(source=peer, tag=4)
            assert msg.source == peer
            return msg.payload

        res = run_spmd(prog, 6, engine=engine)
        for world_rank, payload in enumerate(res.results):
            partner = world_rank + 1 if world_rank % 2 == 0 else world_rank - 1
            assert payload == f"from {partner}"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_groups_do_not_cross_talk(self, engine):
        """Same tags in two groups stay separate."""

        def prog(comm):
            group = comm.split(comm.rank % 2)
            # Everyone sends its world rank to group rank 0 under tag 1.
            if group.rank != 0:
                group.send(0, comm.rank, tag=1)
                group.barrier()
                return None
            got = sorted(
                group.recv(ANY_SOURCE, tag=1).payload
                for _ in range(group.size - 1)
            )
            group.barrier()
            return got

        res = run_spmd(prog, 6, engine=engine)
        assert res.results[0] == [2, 4]  # even group members only
        assert res.results[1] == [3, 5]  # odd group members only

    @pytest.mark.parametrize("engine", [*ENGINES, "process"])
    def test_group_collectives(self, engine):
        """Each group of two answers every collective as a world of two
        does, on every engine."""
        groups = run_spmd(_group_collectives, 4, engine=engine).results
        world = run_spmd(_collectives, 2, engine=engine).results
        assert groups == [world[0], world[0], world[1], world[1]]
        assert world[0] == (3, [0, 1], [0, 10], None, "from 1", None, None)
        assert world[1] == (3, [0, 1], [1, 11], [0, 3], "from 1", 2, None)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_parent_usable_alongside_group(self, engine):
        def prog(comm):
            group = comm.split(comm.rank % 2)
            # Parent-level collective between group operations.
            world_total = comm.allreduce(1)
            group_total = group.allreduce(1)
            return world_total, group_total

        res = run_spmd(prog, 6, engine=engine)
        assert all(w == 6 and g == 3 for w, g in res.results)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_singleton_group(self, engine):
        def prog(comm):
            group = comm.split(comm.rank)  # every rank alone
            assert group.size == 1
            assert group.allreduce(5) == 5
            return True

        assert all(run_spmd(prog, 3, engine=engine).results)


class TestRestrictions:
    def test_any_tag_rejected(self):
        def prog(comm):
            group = comm.split(0)
            with pytest.raises(CommunicatorError):
                group.recv(tag=ANY_TAG)
            comm.barrier()
            return True

        # Give the recv something to fail *before* blocking.
        assert all(run_spmd(prog, 2, engine="cooperative").results)

    def test_out_of_range_tag(self):
        def prog(comm):
            group = comm.split(0)
            with pytest.raises(CommunicatorError):
                group.send(0, None, tag=1 << 21)
            comm.barrier()
            return True

        run_spmd(prog, 2, engine="cooperative")

    def test_bad_group_peer(self):
        def prog(comm):
            group = comm.split(comm.rank % 2)
            with pytest.raises(CommunicatorError):
                group.send(group.size, None, tag=1)
            comm.barrier()
            return True

        run_spmd(prog, 4, engine="cooperative")

    def test_alltoallv_chunk_count(self):
        def prog(comm):
            group = comm.split(0)
            with pytest.raises(RankMismatchError):
                group.alltoallv([None] * (group.size + 1))
            comm.barrier()
            return True

        run_spmd(prog, 3, engine="cooperative")

    def test_group_does_not_split(self):
        def prog(comm):
            group = comm.split(0)
            with pytest.raises(CommunicatorError):
                group.split(0)
            comm.barrier()
            return True

        assert all(run_spmd(prog, 2, engine="cooperative").results)

    def test_consecutive_splits_isolated(self):
        """Two sequential splits of the same world don't collide."""

        def prog(comm):
            g1 = comm.split(comm.rank % 2)
            g2 = comm.split(comm.rank % 2)
            g1.send((g1.rank + 1) % g1.size, "one", tag=3)
            g2.send((g2.rank + 1) % g2.size, "two", tag=3)
            a = g1.recv(tag=3).payload
            b = g2.recv(tag=3).payload
            return a, b

        res = run_spmd(prog, 4, engine="cooperative")
        assert all(r == ("one", "two") for r in res.results)
