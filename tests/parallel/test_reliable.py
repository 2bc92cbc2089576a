"""The reliable-request layer on its own: sequence, window, wait, stale rule."""

import pytest

from repro.errors import CommunicatorError, LookupTimeoutError
from repro.faults import FaultPlan
from repro.parallel.reliable import ReliableRequests
from repro.simmpi.instrument import CommStats

PLAN = FaultPlan(drop_rate=0.5, base_timeout_s=0.001, backoff=1.0, max_retries=2)


class Wire:
    """The slice of a communicator the layer uses; sends are recorded."""

    rank = 0
    probe_yields = True

    def __init__(self):
        self.stats = CommStats()
        self.sent = []

    def send(self, dest, payload, tag=0):
        self.sent.append((dest, payload, tag))


def test_sequence_is_per_communicator_and_outlives_the_layer():
    comm, other = Wire(), Wire()
    first = [ReliableRequests(comm).open() for _ in range(3)]
    assert first == sorted(set(first))
    assert ReliableRequests(comm, PLAN).open() > first[-1]
    assert ReliableRequests(other).open() == first[0]


def test_unarmed_tracks_peers_but_retains_nothing():
    comm = Wire()
    layer = ReliableRequests(comm, FaultPlan())  # a plan that drops nothing
    assert not layer.armed
    seq = layer.open()
    layer.send(3, 3, "ids", 7)
    assert comm.sent == [(3, "ids", 7)]
    assert layer._window == {3: None}
    turns = []

    def progress(block):
        turns.append(block)
        return layer.settle(seq, 3)

    layer.wait(progress)
    assert turns == [True]  # one blocking turn, no polling
    assert not layer._window
    with pytest.raises(CommunicatorError, match="unmatched"):
        layer.settle(seq, 3)


def test_one_round_is_open_at_a_time():
    """A second round cannot open while one is open; its wait closes
    it, even one that fails, and a late answer to it is then stale."""
    comm = Wire()
    layer = ReliableRequests(comm, PLAN)
    seq = layer.open()
    layer.send(1, 1, "a", 9)
    with pytest.raises(CommunicatorError, match=f"round {seq} is still open"):
        layer.open()
    with pytest.raises(LookupTimeoutError):
        layer.wait(lambda block: False)
    assert layer.open() == seq + 1
    assert not layer.settle(seq, 1)
    assert comm.stats.get("stale_responses") == 1
    layer.wait(lambda block: pytest.fail("nothing was sent"))
    assert layer.open() == seq + 2


def test_armed_answer_settles_once_then_counts_stale():
    comm = Wire()
    layer = ReliableRequests(comm, PLAN)
    seq = layer.open()
    layer.send(1, 2, "ids", 9)  # owner 1 answered for by partner 2
    assert layer.settle(seq, 1)
    assert not layer.settle(seq, 1)      # duplicate
    assert not layer.settle(seq - 1, 1)  # a round long over
    assert comm.stats.get("stale_responses") == 2
    layer.wait(lambda block: pytest.fail("nothing left to wait for"))


def test_armed_wait_resends_pending_then_gives_up_with_the_budget():
    comm = Wire()
    layer = ReliableRequests(comm, PLAN)
    seq = layer.open()
    layer.send(1, 1, "a", 9)
    layer.send(2, 2, "b", 9)
    layer.settle(seq, 2)
    with pytest.raises(LookupTimeoutError) as err:
        layer.wait(lambda block: False)
    assert (err.value.rank, err.value.pending, err.value.attempts) == (0, [1], 3)
    assert f"({PLAN.total_budget():.2f}s budget)" in str(err.value)
    # The first send plus one resend per retry, of the pending frame only.
    assert comm.sent == [(1, "a", 9), (2, "b", 9)] + [(1, "a", 9)] * 2
    assert comm.stats.get("lookup_retries") == 2
    assert comm.stats.get("lookup_timeouts") == 3


def test_empty_blocking_progress_is_a_protocol_error():
    """A blocking turn returns with a message or raises; one that comes
    back empty-handed fails the wait at once instead of spinning."""
    layer = ReliableRequests(Wire())
    layer.open()
    layer.send(1, 1, "a", 1)
    turns = []
    with pytest.raises(CommunicatorError, match="empty-handed"):
        layer.wait(lambda block: turns.append(block))  # None: nothing came
    assert turns == [True]

