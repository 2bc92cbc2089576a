"""Tests for communication accounting."""

import pickle
import threading

import numpy as np

from repro.simmpi import run_spmd, wire
from repro.simmpi.instrument import CommStats, total_stats


def sent(payload, tag=5):
    """The bytes rank 0's ledger charges for sending ``payload`` to rank 1."""

    def prog(comm):
        if comm.rank == 0:
            comm.send(1, payload, tag=tag)
        else:
            comm.recv(source=0, tag=tag)
        return comm.stats.bytes_sent

    return run_spmd(prog, 2, engine="cooperative").results[0]


def frame_nbytes(payload, tag=5):
    return len(wire.encode_frame(0, tag, payload))


class TestPayloadSizing:
    """A send is charged its exact encoded frame length, whatever the
    payload and whichever way the engine delivers it."""

    def test_ndarray(self):
        payload = np.zeros(10, dtype=np.float64)
        assert sent(payload) == frame_nbytes(payload)

    def test_bytes(self):
        assert sent(b"abcd") == frame_nbytes(b"abcd")

    def test_nested_tuple(self):
        payload = (np.zeros(2, np.uint64), np.zeros(3, np.uint8))
        assert sent(payload) == frame_nbytes(payload)

    def test_dict_sized_by_encoding(self):
        """Regression: a dict used to count as one 8-byte machine word;
        it is charged its actual encoded length."""
        payload = {"served": 12345, "phase": "correction"}
        assert sent(payload) == frame_nbytes(payload)
        assert frame_nbytes(payload) > len(wire.encode_payload(payload)) > 8

    def test_string_sized_by_encoding(self):
        assert sent("x" * 100) == frame_nbytes("x" * 100) > 100


class TestCommStats:
    def test_record_send(self):
        s = CommStats()
        s.record_send(5, 1, 32)
        s.record_send(5, 1, 8)
        s.record_send(7, 2, 8)
        assert s.messages_sent == 3
        assert s.bytes_sent == 32 + 8 + 8
        assert s.messages_by_tag == {5: 2, 7: 1}
        assert s.bytes_by_tag[5] == 40
        assert s.bytes_by_peer == {1: 40, 2: 8}

    def test_counters(self):
        s = CommStats()
        s.bump("remote_tile_lookups", 100)
        s.bump("remote_tile_lookups")
        assert s.get("remote_tile_lookups") == 101
        assert s.get("never") == 0

    def test_record_send_with_dict_payload_pins_encoded_bytes(self):
        """Regression for the 8-bytes-per-dict undercount: bytes_by_tag
        and bytes_by_peer carry the payload's true encoded frame size."""
        payload = {"remote_lookups": 7, "reads": [1, 2, 3]}
        expected = frame_nbytes(payload, tag=9)

        def prog(comm):
            if comm.rank == 0:
                comm.send(1, payload, tag=9)
            else:
                comm.recv(source=0, tag=9)
            return dict(comm.stats.bytes_by_tag), dict(comm.stats.bytes_by_peer)

        by_tag, by_peer = run_spmd(prog, 2, engine="cooperative").results[0]
        assert by_tag == {9: expected}
        assert by_peer == {1: expected}
        assert expected > 8

    def test_pickle_roundtrip_rebuilds_lock(self):
        """The process engine ships ledgers across processes by pickle;
        the thread lock is dropped and rebuilt."""
        s = CommStats()
        s.record_send(2, 1, 3)
        s.bump("served", 3)
        t = pickle.loads(pickle.dumps(s))
        assert t.bytes_sent == s.bytes_sent
        assert t.counters == {"served": 3}
        assert isinstance(t._lock, type(threading.Lock()))
        t.bump("served")  # the rebuilt lock actually works
        assert t.get("served") == 4

    def test_merge(self):
        a, b = CommStats(), CommStats()
        a.record_send(1, 0, 2)
        b.record_send(1, 0, 1)
        b.record_send(2, 0, 1)
        b.bump("served", 5)
        a.merge(b)
        assert a.messages_sent == 3
        assert a.bytes_sent == 4
        assert a.messages_by_tag == {1: 2, 2: 1}
        assert a.get("served") == 5

    def test_total_stats_folds_every_rank(self):
        a, b = CommStats(), CommStats()
        a.record_send(1, 1, 2)
        b.record_send(1, 0, 3)
        b.bump("served", 5)
        total = total_stats([a, b])
        assert total is not a and total is not b
        assert total.messages_sent == 2
        assert total.bytes_sent == 5
        assert total.bytes_by_peer == {0: 3, 1: 2}
        assert total.get("served") == 5
        assert a.messages_sent == 1  # the inputs are left as they were
