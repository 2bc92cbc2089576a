"""Tests for the SPMD execution engines."""

import threading

import numpy as np
import pytest

from repro.errors import CommunicatorError, DeadlockError
from repro.simmpi import (
    ANY_SOURCE,
    ANY_TAG,
    CooperativeEngine,
    ThreadedEngine,
    run_spmd,
    wire,
)

# The in-memory engines, which accept closure rank functions.  The
# process engine needs picklable programs and is exercised in
# test_process_engine.py.
ENGINES = ["cooperative", "threaded"]


@pytest.mark.parametrize("engine", ENGINES)
class TestBasicExecution:
    def test_results_collected_per_rank(self, engine):
        res = run_spmd(lambda comm: comm.rank * 10, 5, engine=engine)
        assert res.results == [0, 10, 20, 30, 40]

    def test_single_rank(self, engine):
        res = run_spmd(lambda comm: comm.size, 1, engine=engine)
        assert res.results == [0 + 1]

    def test_exception_propagates(self, engine):
        def boom(comm):
            if comm.rank == 2:
                raise ValueError("rank 2 exploded")
            comm.barrier()

        with pytest.raises(ValueError, match="rank 2 exploded"):
            run_spmd(boom, 4, engine=engine)

    def test_ring_pass(self, engine):
        def ring(comm):
            comm.send((comm.rank + 1) % comm.size, comm.rank, tag=1)
            return comm.recv(tag=1).payload

        res = run_spmd(ring, 6, engine=engine)
        assert res.results == [(r - 1) % 6 for r in range(6)]

    def test_out_of_order_tag_matching(self, engine):
        """A recv for tag B must skip an earlier tag-A message."""

        def prog(comm):
            if comm.rank == 0:
                comm.send(1, "first", tag=10)
                comm.send(1, "second", tag=20)
            elif comm.rank == 1:
                b = comm.recv(source=0, tag=20).payload
                a = comm.recv(source=0, tag=10).payload
                return (a, b)
            return None

        res = run_spmd(prog, 2, engine=engine)
        assert res.results[1] == ("first", "second")

    def test_stats_recorded(self, engine):
        payload = np.zeros(100, dtype=np.int64)
        # The ledger counts the exact encoded frame: header + typed
        # array encoding, not just the raw data bytes.
        expected = len(wire.encode_frame(0, 3, payload))
        assert expected > payload.nbytes

        def prog(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(100, dtype=np.int64), tag=3)
            elif comm.rank == 1:
                comm.recv(tag=3)

        res = run_spmd(prog, 2, engine=engine)
        assert res.stats[0].messages_sent == 1
        assert res.stats[0].bytes_sent == expected
        assert res.stats[0].bytes_by_tag == {3: expected}
        assert res.total_stats().messages_sent == 1


class TestDeadlockDetection:
    def test_cooperative_detects_cycle(self):
        def prog(comm):
            # Everyone waits for a message that never comes.
            comm.recv(tag=99)

        with pytest.raises(DeadlockError):
            run_spmd(prog, 3, engine="cooperative")

    def test_threaded_times_out(self):
        def prog(comm):
            comm.recv(tag=99)

        with pytest.raises(DeadlockError):
            run_spmd(prog, 2, engine=ThreadedEngine(timeout=0.2))

    def test_partial_deadlock_detected(self):
        """One rank finishes; the others are stuck — still detected."""

        def prog(comm):
            if comm.rank == 0:
                return "done"
            comm.recv(tag=42)

        with pytest.raises(DeadlockError):
            run_spmd(prog, 3, engine="cooperative")


class TestCooperativeDeterminism:
    def test_identical_interleaving(self):
        """Event sequence is identical across runs of the same program."""

        def make_prog(log):
            lock = threading.Lock()

            def prog(comm):
                for i in range(3):
                    comm.send((comm.rank + 1) % comm.size, i, tag=5)
                    msg = comm.recv(tag=5)
                    with lock:
                        log.append((comm.rank, msg.source, msg.payload))
                return None

            return prog

        log1, log2 = [], []
        run_spmd(make_prog(log1), 4, engine="cooperative")
        run_spmd(make_prog(log2), 4, engine="cooperative")
        assert log1 == log2

    def test_shared_object_needs_no_lock(self):
        """Only one rank runs at a time between comm points."""
        counter = {"n": 0}

        def prog(comm):
            for _ in range(100):
                counter["n"] += 1  # unsynchronized on purpose
            comm.barrier()

        run_spmd(prog, 8, engine="cooperative")
        assert counter["n"] == 800


class TestEngineConstruction:
    def test_unknown_engine_name(self):
        for name in ("quantum", "sequential"):
            with pytest.raises(CommunicatorError):
                run_spmd(lambda c: None, 2, engine=name)

    def test_nranks_validation(self):
        with pytest.raises(CommunicatorError):
            run_spmd(lambda c: None, 0)

    def test_threaded_timeout_validation(self):
        with pytest.raises(CommunicatorError):
            ThreadedEngine(timeout=0)

    def test_engine_instance_accepted(self):
        res = run_spmd(lambda c: c.rank, 3, engine=CooperativeEngine())
        assert res.results == [0, 1, 2]


class TestPayloadSemantics:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_send_copies_arrays(self, engine):
        """Mutating the buffer after send must not affect the receiver."""

        def prog(comm):
            if comm.rank == 0:
                buf = np.array([1, 2, 3])
                comm.send(1, buf, tag=1)
                buf[:] = 99
            else:
                return comm.recv(tag=1).payload.tolist()

        res = run_spmd(prog, 2, engine=engine)
        assert res.results[1] == [1, 2, 3]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_receiver_mutation_cannot_corrupt_sender(self, engine):
        """Regression: tuple-wrapped arrays used to be delivered by
        reference (only a top-level ndarray was copied), so a receiver
        writing into its delivered payload silently corrupted the
        sender's arrays.  Encode-at-the-boundary makes every delivery an
        independent deep copy."""

        def prog(comm):
            if comm.rank == 0:
                arrays = (np.arange(4, dtype=np.int64),
                          np.ones(2, dtype=np.float64))
                comm.send(1, arrays, tag=2)
                comm.recv(source=1, tag=3)  # receiver has mutated its copy
                return arrays[0].tolist()
            msg = comm.recv(source=0, tag=2)
            msg.payload[0][:] = -1
            comm.send(0, None, tag=3)
            return msg.payload[0].tolist()

        res = run_spmd(prog, 2, engine=engine)
        assert res.results[1] == [-1, -1, -1, -1]  # receiver's copy changed
        assert res.results[0] == [0, 1, 2, 3]      # sender's did not

    @pytest.mark.parametrize("engine", ENGINES)
    def test_self_send(self, engine):
        def prog(comm):
            comm.send(comm.rank, "hello me", tag=7)
            return comm.recv(source=comm.rank, tag=7).payload

        res = run_spmd(prog, 2, engine=engine)
        assert res.results == ["hello me", "hello me"]
