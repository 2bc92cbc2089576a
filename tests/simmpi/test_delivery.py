"""Where a send is a frame and where it is a copy.

On the in-memory engines a send of a typed payload never becomes bytes:
the communicator books the frame's exact length and delivers the copy
decoding that frame would give (``wire.frame_copy``).  A frame is still
encoded wherever something reads it: in a spawned rank of the process
engine, under an armed :class:`~repro.faults.FaultPlan`, and on an
engine that overrides ``deposit`` to observe frames, as the benchmark's
tracing engine does.  Such an observer must see every frame the ledger
books, byte for byte.

Rank programs that run on the process engine are module-level
functions, so they survive the pickle to a spawned interpreter.
"""

import numpy as np
import pytest

from repro.bench.harness import small_scale
from repro.faults import FaultPlan
from repro.parallel import HeuristicConfig, ParallelReptile
from repro.simmpi import run_spmd, wire
from repro.simmpi.engine import CooperativeEngine

NRANKS = 4


@pytest.fixture(scope="module")
def scale():
    return small_scale("E.Coli", genome_size=2_000, seed=5, chunk_size=250)


def _run(scale, engine="cooperative", faults=None):
    return ParallelReptile(
        scale.config, HeuristicConfig(universal=True), nranks=NRANKS,
        engine=engine, faults=faults,
    ).run(scale.dataset.block)


def _ledger(result):
    return [
        (s.messages_by_tag, s.bytes_by_tag, s.messages_by_peer,
         s.bytes_by_peer, s.counters)
        for s in result.stats
    ]


def _same_output(a, b):
    assert np.array_equal(a.corrected_block.ids, b.corrected_block.ids)
    assert np.array_equal(a.corrected_block.codes, b.corrected_block.codes)


class FrameObserver(CooperativeEngine):
    """The cooperative engine, counting every frame deposited."""

    def __init__(self):
        self.frames = 0
        self.frame_bytes = 0

    def deposit(self, world, rank, dest, frame):
        self.frames += 1
        self.frame_bytes += len(frame)
        super().deposit(world, rank, dest, frame)


def _counting_codec(calls):
    """``encode_frame`` / ``decode_frame`` wrappers counting into ``calls``."""
    encode, decode = wire.encode_frame, wire.decode_frame

    def counting_encode(source, tag, payload):
        calls["encode"] += 1
        return encode(source, tag, payload)

    def counting_decode(frame):
        calls["decode"] += 1
        return decode(frame)

    return counting_encode, counting_decode


@pytest.fixture
def frame_calls(monkeypatch):
    """Counts ``encode_frame`` / ``decode_frame`` calls in this process."""
    calls = {"encode": 0, "decode": 0}
    encode, decode = _counting_codec(calls)
    monkeypatch.setattr(wire, "encode_frame", encode)
    monkeypatch.setattr(wire, "decode_frame", decode)
    return calls


@pytest.fixture
def typed_frames_refused(monkeypatch):
    """``encode_frame`` / ``decode_frame`` raise on a typed payload."""
    encode, decode = wire.encode_frame, wire.decode_frame

    def refusing_encode(source, tag, payload):
        if wire.is_wire_codable(payload):
            raise AssertionError(f"typed payload under tag {tag} encoded")
        return encode(source, tag, payload)

    def refusing_decode(frame):
        msg = decode(frame)
        if wire.is_wire_codable(msg.payload):
            raise AssertionError(f"typed payload under tag {msg.tag} decoded")
        return msg

    monkeypatch.setattr(wire, "encode_frame", refusing_encode)
    monkeypatch.setattr(wire, "decode_frame", refusing_decode)


@pytest.fixture(scope="module")
def reference(scale):
    """The plain cooperative run: the ledger and output to match."""
    return _run(scale)


class TestFrameObserver:
    def test_observer_sees_every_booked_frame(self, scale, reference):
        observer = FrameObserver()
        observed = _run(scale, engine=observer)
        assert observer.frames == sum(s.messages_sent for s in observed.stats)
        assert observer.frame_bytes == sum(s.bytes_sent for s in observed.stats)
        # Observed or not, the ledger and the output are the same.
        assert _ledger(observed) == _ledger(reference)
        _same_output(observed, reference)

    def test_observer_takes_the_frame_path(self, scale, frame_calls):
        observer = FrameObserver()
        _run(scale, engine=observer)
        assert frame_calls["encode"] == observer.frames > 0
        assert frame_calls["decode"] == observer.frames


class TestInMemoryEnginesCopy:
    @pytest.mark.parametrize("engine", ["cooperative", "threaded"])
    def test_no_typed_payload_is_encoded(self, scale, reference, engine,
                                         typed_frames_refused):
        result = _run(scale, engine=engine)
        _same_output(result, reference)
        assert sum(s.bytes_sent for s in result.stats) == \
            sum(s.bytes_sent for s in reference.stats)


class TestFramePathStays:
    def test_fault_plan_run_encodes_every_send(self, scale, reference,
                                               frame_calls):
        plan = FaultPlan(seed=11, drop_rate=0.05, max_drops_per_frame=2,
                         base_timeout_s=0.1, max_retries=8)
        result = _run(scale, faults=plan)
        _same_output(result, reference)
        assert frame_calls["encode"] == sum(s.messages_sent for s in result.stats)
        assert frame_calls["decode"] > 0

    def test_process_engine_encodes(self):
        """Each spawned rank counts its own calls (a monkeypatch here
        would not reach it)."""
        ranks = run_spmd(_count_frame_calls, 2, engine="process").results
        assert ranks == [{"encode": 3, "decode": 3}] * 2

    def test_in_memory_ring_is_not_encoded(self, frame_calls):
        ranks = run_spmd(_send_ring, 2, engine="cooperative").results
        assert ranks == [[1, 1, 1], [0, 0, 0]]
        assert frame_calls == {"encode": 0, "decode": 0}


def _send_ring(comm):
    """An allgather and one send around the ring; what arrived."""
    comm.allgather(np.arange(4, dtype=np.uint64))
    comm.send((comm.rank + 1) % comm.size,
              np.full(3, comm.rank, dtype=np.uint64), tag=1)
    return comm.recv(tag=1).payload.tolist()


def _count_frame_calls(comm):
    """``_send_ring``'s and a barrier's ``encode_frame`` /
    ``decode_frame`` calls in this rank's process: on two ranks, one
    allgather frame, one send and one barrier frame each way."""
    calls = {"encode": 0, "decode": 0}
    codec = wire.encode_frame, wire.decode_frame
    wire.encode_frame, wire.decode_frame = _counting_codec(calls)
    try:
        _send_ring(comm)
        comm.barrier()
    finally:
        wire.encode_frame, wire.decode_frame = codec
    return calls
