"""Tests for the shared-nothing multiprocessing engine.

Rank programs here are module-level functions: the process engine ships
them to spawned interpreters by pickle, which closures cannot survive
(that failure mode has its own test below).
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.errors import CommunicatorError, DeadlockError
from repro.simmpi import ProcessEngine, run_spmd, wire


# ----------------------------------------------------------------------
# rank programs (module-level, picklable)
# ----------------------------------------------------------------------
def _ring(comm):
    data = np.full(4, comm.rank, dtype=np.int64)
    comm.send((comm.rank + 1) % comm.size, data, tag=3)
    msg = comm.recv(source=(comm.rank - 1) % comm.size, tag=3)
    return msg.payload.tolist()


def _collectives(comm):
    total = comm.allreduce(comm.rank + 1)
    gathered = comm.allgather(np.full(2, comm.rank, dtype=np.uint64))
    comm.barrier()
    root_value = comm.bcast("from-root" if comm.rank == 0 else None, root=0)
    return (total, [g.tolist() for g in gathered], root_value)


_SCRIPT = [
    (1, np.arange(10, dtype=np.uint64)),
    (2, (np.zeros(3, dtype=np.float64), 7, "ok")),
    (3, {"control": "stop"}),  # noqa: MPI006 - exercising the fallback
    (4, None),
]


def _scripted_sender(comm):
    if comm.rank == 0:
        for tag, payload in _SCRIPT:
            comm.send(1, payload, tag=tag)
        comm.recv(source=1, tag=9)
    else:
        for tag, _payload in _SCRIPT:
            comm.recv(source=0, tag=tag)
        comm.send(0, None, tag=9)
    return comm.stats.bytes_sent


def _aliasing_probe(comm):
    if comm.rank == 0:
        arrays = (np.arange(4, dtype=np.int64), np.ones(2))
        comm.send(1, arrays, tag=2)
        comm.recv(source=1, tag=3)
        return arrays[0].tolist()
    msg = comm.recv(source=0, tag=2)
    msg.payload[0][:] = -1
    comm.send(0, None, tag=3)
    return msg.payload[0].tolist()


def _boom(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    comm.recv(tag=1)  # never satisfied; the error must still win


def _stuck(comm):
    comm.recv(tag=99)


def _steady_for_three_seconds(comm):
    """Barriers and allreduces for 3 s; every rank stops on the same
    round (the allreduce agrees on whether any rank saw 3 s pass)."""
    start = time.monotonic()
    rounds = 0
    while True:
        comm.barrier()
        rounds += 1
        if comm.allreduce(int(time.monotonic() - start >= 3.0)):
            return rounds


class _ImpatientEngine(ProcessEngine):
    """A process engine with a short grace for dead children's reports
    (module-level: the spawned ranks unpickle it)."""

    _GRACE = 0.5


def _bump_counters(comm):
    comm.stats.bump("remote_tile_lookups", 10 + comm.rank)
    comm.barrier()
    return comm.rank


# ----------------------------------------------------------------------
class TestBasicExecution:
    def test_ring_pass(self):
        res = run_spmd(_ring, 3, engine="process")
        assert res.results == [[2] * 4, [0] * 4, [1] * 4]

    def test_collectives(self):
        res = run_spmd(_collectives, 3, engine="process")
        expected_gather = [[0, 0], [1, 1], [2, 2]]
        assert res.results == [(6, expected_gather, "from-root")] * 3

    def test_single_rank(self):
        res = run_spmd(_collectives, 1, engine="process")
        assert res.results == [(1, [[0, 0]], "from-root")]

    def test_stats_shipped_back(self):
        res = run_spmd(_bump_counters, 2, engine="process")
        assert res.stats[0].get("remote_tile_lookups") == 10
        assert res.stats[1].get("remote_tile_lookups") == 11
        assert res.total_stats().get("remote_tile_lookups") == 21


class TestExactByteAccounting:
    @pytest.mark.parametrize("engine",
                             ["cooperative", "threaded", "process"])
    def test_bytes_sent_is_sum_of_encoded_frames(self, engine):
        """Acceptance: for a scripted exchange, every engine's ledger
        equals the sum of the exact encoded frame lengths."""
        expected_rank0 = sum(
            len(wire.encode_frame(0, tag, payload))
            for tag, payload in _SCRIPT
        )
        expected_rank1 = len(wire.encode_frame(1, 9, None))
        res = run_spmd(_scripted_sender, 2, engine=engine)
        assert res.stats[0].bytes_sent == expected_rank0
        assert res.stats[1].bytes_sent == expected_rank1
        # The per-rank return value saw the same ledger from inside.
        assert res.results == [expected_rank0, expected_rank1]


class TestPayloadSemantics:
    def test_copy_on_send_across_processes(self):
        """The aliasing regression of test_engine.py, across real
        process boundaries (trivially safe here, by construction)."""
        res = run_spmd(_aliasing_probe, 2, engine="process")
        assert res.results[1] == [-1, -1, -1, -1]
        assert res.results[0] == [0, 1, 2, 3]


class TestFailureModes:
    def test_exception_propagates(self):
        """The error wins, and the rank still parked in its receive is
        terminated at once rather than waited for."""
        start = time.monotonic()
        with pytest.raises(ValueError, match="rank 1 exploded"):
            run_spmd(_boom, 2, engine="process")
        assert time.monotonic() - start < 3.0
        assert multiprocessing.active_children() == []

    def test_a_healthy_run_may_outlast_timeout_and_grace(self):
        """The parent waits while its children are alive: a run longer
        than the receive timeout plus the grace is not a failure."""
        res = run_spmd(
            _steady_for_three_seconds, 2, engine=_ImpatientEngine(timeout=1.0)
        )
        assert res.results[0] == res.results[1] > 1

    def test_deadlock_times_out(self):
        with pytest.raises(DeadlockError):
            run_spmd(_stuck, 2, engine=ProcessEngine(timeout=1.0))

    def test_unpicklable_fn_is_rejected_clearly(self):
        with pytest.raises(CommunicatorError, match="picklable"):
            run_spmd(lambda comm: comm.rank, 2, engine="process")

    def test_verify_unsupported(self):
        with pytest.raises(CommunicatorError, match="process engine"):
            run_spmd(_ring, 2, engine="process", verify=True)

    def test_timeout_validation(self):
        with pytest.raises(CommunicatorError):
            ProcessEngine(timeout=0)
