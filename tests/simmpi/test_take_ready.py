"""``Communicator.take_ready``: the non-blocking, non-yielding receive.

Rank programs are module-level so the process engine can pickle them;
the same programs run on all three engines.
"""

import time

import pytest

from repro.simmpi import ANY_SOURCE, ANY_TAG, run_spmd

ENGINES = ["cooperative", "threaded", "process"]

#: What each sender deposits for rank 0, in order: (tag, sequence number).
_SCRIPT = [(5, 0), (6, 1), (5, 2)]
_DONE = 9


def _filters(comm):
    """Ranks 1 and 2 send the script and a marker; rank 0 receives both
    markers — after which everything before them is delivered — and
    takes the queued messages apart with ``take_ready``."""
    if comm.rank != 0:
        for tag, number in _SCRIPT:
            comm.send(0, (comm.rank, number), tag=tag)
        comm.send(0, None, tag=_DONE)
        return None
    comm.recv(source=1, tag=_DONE)
    comm.recv(source=2, tag=_DONE)
    taken = {
        "no such tag": comm.take_ready(source=1, tag=7),
        "no such source": comm.take_ready(source=0, tag=5),
        # Skips rank 2's tag-5 head and rank 1's messages.
        "by source and tag": comm.take_ready(source=2, tag=6).payload,
        "by tag": comm.take_ready(tag=6).payload,
        "by source": comm.take_ready(source=1).payload,
    }
    rest = []
    while (msg := comm.take_ready(ANY_SOURCE, ANY_TAG)) is not None:
        rest.append((msg.source, msg.tag, msg.payload[1]))
    start = time.perf_counter()
    misses = [comm.take_ready() for _ in range(100)]
    taken["miss seconds"] = time.perf_counter() - start
    taken["misses"] = misses
    taken["rest"] = rest
    return taken


@pytest.mark.parametrize("engine", ENGINES)
def test_filters_order_and_misses(engine):
    taken = run_spmd(_filters, 3, engine=engine).results[0]
    assert taken["no such tag"] is None
    assert taken["no such source"] is None
    assert taken["by source and tag"] == (2, 1)
    # Rank 2's tag-6 message is gone, so the only tag-6 left is rank 1's.
    assert taken["by tag"] == (1, 1)
    assert taken["by source"] == (1, 0)
    # What the filters passed over stayed queued, in order per sender.
    rest = taken["rest"]
    assert [(t, n) for s, t, n in rest if s == 1] == [(5, 2)]
    assert [(t, n) for s, t, n in rest if s == 2] == [(5, 0), (5, 2)]
    assert len(rest) == 3
    # An empty mailbox is a miss at once — a blocking receive here would
    # sit in the engine's 120 s timeout.
    assert taken["misses"] == [None] * 100
    assert taken["miss seconds"] < 5.0


def _undelivered(comm):
    """Rank 1 sends only after rank 0 says it has looked: the look must
    come back empty instead of waiting for the send."""
    if comm.rank == 0:
        early = comm.take_ready(source=1, tag=4)
        comm.send(1, None, tag=3)
        late = comm.recv(source=1, tag=4).payload
        return early, late
    comm.recv(source=0, tag=3)
    comm.send(0, "sent afterwards", tag=4)
    return None


@pytest.mark.parametrize("engine", ENGINES)
def test_never_waits_for_a_message_not_yet_sent(engine):
    early, late = run_spmd(_undelivered, 2, engine=engine).results[0]
    assert early is None
    assert late == "sent afterwards"


def test_a_miss_keeps_the_turn_on_the_cooperative_engine():
    """Exactly one rank runs at a time there, and control moves only at
    communication points.  ``iprobe`` is one (a miss hands the CPU to
    the next runnable rank); ``take_ready`` must not be."""
    events = []

    def prog(comm):
        if comm.rank == 0:
            for _ in range(50):
                assert comm.take_ready() is None
            events.append("rank 0 after 50 misses")
            assert comm.iprobe() is None
            events.append("rank 0 after a probe miss")
        else:
            events.append("rank 1 ran")

    run_spmd(prog, 2, engine="cooperative")
    assert events == [
        "rank 0 after 50 misses",
        "rank 1 ran",
        "rank 0 after a probe miss",
    ]


def test_hit_keeps_the_turn_too():
    """Taking a delivered message is not a scheduling point either."""
    events = []

    def prog(comm):
        if comm.rank == 0:
            comm.send(0, "to self", tag=2)
            assert comm.take_ready(tag=2).payload == "to self"
            events.append("rank 0 took its message")
        else:
            events.append("rank 1 ran")

    run_spmd(prog, 2, engine="cooperative")
    assert events == ["rank 0 took its message", "rank 1 ran"]
