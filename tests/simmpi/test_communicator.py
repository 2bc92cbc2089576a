"""Tests for communicator p2p semantics and collectives."""

import functools
import time

import numpy as np
import pytest

from repro.errors import CommunicatorError, RankMismatchError
from repro.simmpi import ANY_SOURCE, ANY_TAG, Tags, run_spmd
from repro.simmpi.engine import ProcessEngine, ThreadedEngine

ENGINES = ["cooperative", "threaded"]


@pytest.mark.parametrize("engine", ENGINES)
class TestPointToPoint:
    def test_send_to_bad_rank(self, engine):
        def prog(comm):
            with pytest.raises(CommunicatorError):
                comm.send(99, None, tag=1)
            comm.barrier()

        run_spmd(prog, 2, engine=engine)

    def test_negative_tag_rejected(self, engine):
        """Negative and reserved tags are refused on every verb; a
        reserved one would otherwise pose as a collective's frame."""
        def prog(comm):
            for tag in (-5, Tags.COLLECTIVE_BASE):
                for call in (lambda: comm.send(0, None, tag=tag),
                             lambda: comm.recv(tag=tag),
                             lambda: comm.iprobe(tag=tag),
                             lambda: comm.take_queued(tags=(tag,))):
                    with pytest.raises(CommunicatorError):
                        call()
            comm.barrier()
            return comm.iprobe()

        assert run_spmd(prog, 2, engine=engine).results == [None, None]

    def test_iprobe_nonblocking(self, engine):
        def prog(comm):
            if comm.rank == 0:
                # No one can have sent yet: rank 1 only sends after the
                # first barrier, which needs rank 0's participation.
                assert comm.iprobe(tag=5) is None
                comm.barrier()
                comm.barrier()
                # Send happened strictly between the two barriers.
                found = comm.iprobe(tag=5)
                assert found is not None
                assert found.source == 1
                msg = comm.recv(source=1, tag=5)
                assert msg.payload == "x"
            else:
                comm.barrier()
                if comm.rank == 1:
                    comm.send(0, "x", tag=5)
                comm.barrier()

        run_spmd(prog, 3, engine=engine)

    def test_wildcard_source_and_tag(self, engine):
        def prog(comm):
            if comm.rank == 0:
                seen = set()
                for _ in range(comm.size - 1):
                    msg = comm.recv(ANY_SOURCE, ANY_TAG)
                    seen.add((msg.source, msg.tag))
                return seen
            comm.send(0, None, tag=comm.rank * 10)
            return None

        res = run_spmd(prog, 4, engine=engine)
        assert res.results[0] == {(1, 10), (2, 20), (3, 30)}


@pytest.mark.parametrize("engine", ENGINES)
class TestCollectives:
    def test_barrier_orders_effects(self, engine):
        def prog(comm):
            if comm.rank == 1:
                comm.send(0, "pre", tag=9)
            comm.barrier()
            if comm.rank == 0:
                assert comm.iprobe(tag=9) is not None
            comm.barrier()

        run_spmd(prog, 3, engine=engine)

    def test_alltoallv_arrays(self, engine):
        def prog(comm):
            chunks = [
                np.full(d + 1, comm.rank * 100 + d, dtype=np.int32)
                for d in range(comm.size)
            ]
            got = comm.alltoallv(chunks)
            for src, arr in enumerate(got):
                assert arr.shape == (comm.rank + 1,)
                assert (arr == src * 100 + comm.rank).all()

        run_spmd(prog, 5, engine=engine)

    def test_alltoallv_wrong_chunk_count(self, engine):
        def prog(comm):
            with pytest.raises(RankMismatchError):
                comm.alltoallv([None])
            comm.barrier()

        run_spmd(prog, 3, engine=engine)

    def test_allgather(self, engine):
        def prog(comm):
            return comm.allgather(comm.rank ** 2)

        res = run_spmd(prog, 4, engine=engine)
        assert all(r == [0, 1, 4, 9] for r in res.results)

    def test_gather_root_only(self, engine):
        def prog(comm):
            return comm.gather(comm.rank, root=2)

        res = run_spmd(prog, 4, engine=engine)
        assert res.results[2] == [0, 1, 2, 3]
        assert res.results[0] is None

    def test_bcast(self, engine):
        def prog(comm):
            value = {"k": 7} if comm.rank == 1 else None
            return comm.bcast(value, root=1)

        res = run_spmd(prog, 3, engine=engine)
        assert all(r == {"k": 7} for r in res.results)

    def test_reduce_custom_op(self, engine):
        def prog(comm):
            return comm.reduce(comm.rank + 1, op=lambda a, b: a * b, root=0)

        res = run_spmd(prog, 4, engine=engine)
        assert res.results[0] == 24
        assert res.results[3] is None

    def test_allreduce_default_sum(self, engine):
        def prog(comm):
            return comm.allreduce(comm.rank)

        res = run_spmd(prog, 5, engine=engine)
        assert all(r == 10 for r in res.results)

    def test_allreduce_max(self, engine):
        def prog(comm):
            return comm.allreduce(comm.rank * 3, op=max)

        res = run_spmd(prog, 4, engine=engine)
        assert all(r == 9 for r in res.results)

    def test_back_to_back_collectives_do_not_cross(self, engine):
        """Generation tagging keeps consecutive collectives separate."""

        def prog(comm):
            a = comm.allgather(("first", comm.rank))
            b = comm.allgather(("second", comm.rank))
            assert all(x[0] == "first" for x in a)
            assert all(x[0] == "second" for x in b)
            for _ in range(5):
                comm.barrier()
            return comm.allreduce(1)

        res = run_spmd(prog, 4, engine=engine)
        assert all(r == 4 for r in res.results)

    def test_single_rank_collectives(self, engine):
        def prog(comm):
            assert comm.allgather(5) == [5]
            assert comm.allreduce(5) == 5
            comm.barrier()
            return comm.alltoallv([np.array([1])])[0].tolist()

        res = run_spmd(prog, 1, engine=engine)
        assert res.results == [[1]]

    def test_collective_payload_isolation(self, engine):
        """alltoallv's self-chunk is copied like a real message."""

        def prog(comm):
            mine = np.array([comm.rank])
            got = comm.alltoallv([mine] * comm.size)
            mine[0] = 999
            return got[comm.rank][0]

        res = run_spmd(prog, 3, engine=engine)
        assert res.results == [0, 1, 2]


def _wildcard_beside_collective(comm, grouped):
    """Rank 0 takes one wildcard receive while rank 2's arrival at a
    barrier — the world's, or with ``grouped`` the barrier of the group
    {0, 2} — already waits in its mailbox; rank 1's tag-7 frame lands
    after it.  Module level, so the process engine can pickle it."""
    coll = comm.split(int(comm.rank == 1)) if grouped else comm
    if comm.rank == 0:
        msg = comm.recv(ANY_SOURCE, ANY_TAG)
        coll.barrier()
        return msg.source, msg.tag, msg.payload
    if comm.rank == 1:
        comm.recv(2, tag=3)
        time.sleep(0.05)  # rank 2 is in the barrier by now
        comm.send(0, "user", tag=7)
    else:
        comm.send(1, None, tag=3)
    coll.barrier()
    return None


@pytest.mark.parametrize("grouped", [False, True], ids=["world", "group"])
@pytest.mark.parametrize("engine", ["cooperative", "threaded", "process"])
def test_wildcard_never_matches_a_collective(engine, grouped):
    """``ANY_TAG`` matches user tags only, as in MPI: a wildcard receive
    skips a collective's frame (a barrier arrival under a reserved tag)
    and returns the user frame, and the barrier still completes."""
    engine = {
        "cooperative": "cooperative",
        "threaded": ThreadedEngine(timeout=10.0),
        "process": ProcessEngine(timeout=10.0),
    }[engine]
    res = run_spmd(
        functools.partial(_wildcard_beside_collective, grouped=grouped), 3,
        engine=engine,
    )
    assert res.results == [(1, 7, "user"), None, None]
