"""``Communicator.take_queued``: the non-blocking, non-yielding drain of
every delivered message under a set of tags, in one mailbox scan.

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
    takes the queued messages apart with ``take_queued``."""
    if comm.rank != 0:
        for tag, number in _SCRIPT:
            comm.send(0, (comm.rank, number), tag=tag)
        comm.send(0, None, tag=_DONE)
        return None
    comm.recv(source=1, tag=_DONE)
    comm.recv(source=2, tag=_DONE)
    def payloads(messages):
        return [msg.payload for msg in messages]

    taken = {
        "no such tag": comm.take_queued(source=1, tags=(7,)),
        "no such source": comm.take_queued(source=0, tags=(5,)),
        # Skips rank 2's tag-5 head and rank 1's messages.
        "by source and tag": payloads(comm.take_queued(source=2, tags=(6,))),
        "by tag": payloads(comm.take_queued(tags=(6,))),
        "by source": payloads(comm.take_queued(source=1, tags=(5,))),
    }
    rest = [
        (msg.source, msg.tag, msg.payload[1])
        for msg in comm.take_queued(ANY_SOURCE, (5, 6))
    ]
    start = time.perf_counter()
    misses = [comm.take_queued(ANY_SOURCE, (5, 6)) for _ in range(100)]
    taken["miss seconds"] = time.perf_counter() - start
    taken["misses"] = misses
    taken["rest"] = rest
    return taken


@pytest.mark.parametrize("engine", ENGINES)
def test_filters_order_and_misses(engine):
    taken = run_spmd(_filters, 3, engine=engine).results[0]
    assert taken["no such tag"] == []
    assert taken["no such source"] == []
    assert taken["by source and tag"] == [(2, 1)]
    # Rank 2's tag-6 message is gone, so the only tag-6 left is rank 1's.
    assert taken["by tag"] == [(1, 1)]
    assert taken["by source"] == [(1, 0), (1, 2)]
    # What the filters passed over stayed queued, in order per sender.
    assert taken["rest"] == [(2, 5, 0), (2, 5, 2)]
    # An empty mailbox is a miss at once — a blocking receive here would
    # sit in the engine's 120 s timeout.
    assert taken["misses"] == [[]] * 100
    assert taken["miss seconds"] < 5.0


def _undelivered(comm):
    """Rank 1 sends only after rank 0 says it has looked: the look must
    come back empty instead of waiting for the send."""
    if comm.rank == 0:
        early = comm.take_queued(source=1, tags=(4,))
        comm.send(1, None, tag=3)
        late = comm.recv(source=1, tag=4).payload
        return early, late
    comm.recv(source=0, tag=3)
    comm.send(0, "sent afterwards", tag=4)
    return None


@pytest.mark.parametrize("engine", ENGINES)
def test_never_waits_for_a_message_not_yet_sent(engine):
    early, late = run_spmd(_undelivered, 2, engine=engine).results[0]
    assert early == []
    assert late == "sent afterwards"


def test_a_miss_keeps_the_turn_on_the_cooperative_engine():
    """Exactly one rank runs at a time there, and control moves only at
    communication points.  ``iprobe`` is one (a miss hands the CPU to
    the next runnable rank); ``take_queued`` must not be."""
    events = []

    def prog(comm):
        if comm.rank == 0:
            for _ in range(50):
                assert comm.take_queued(tags=(2,)) == []
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
            assert [m.payload for m in comm.take_queued(tags=(2,))] == ["to self"]
            events.append("rank 0 took its message")
        else:
            events.append("rank 1 ran")

    run_spmd(prog, 2, engine="cooperative")
    assert events == ["rank 0 took its message", "rank 1 ran"]


def _drains(comm):
    """Rank 0 drains the script of ranks 1 and 2 twice over, on two
    queues filled alike: once by a ``take_queued`` per tag, once by one
    ``take_queued`` of both; a group takes through its shifted tags."""
    group = comm.split(0)
    if comm.rank != 0:
        for _ in range(2):
            for tag, number in _SCRIPT:
                comm.send(0, (comm.rank, number), tag=tag)
            comm.send(0, None, tag=_DONE)
            comm.recv(source=0, tag=_DONE)
        group.send(0, "in the group", tag=5)
        group.send(0, None, tag=_DONE)
        return None

    def settled(where):
        where.recv(source=1, tag=_DONE)
        where.recv(source=2, tag=_DONE)

    def release():
        # Only once a queue is drained may the senders fill the next.
        for sender in (1, 2):
            comm.send(sender, None, tag=_DONE)

    settled(comm)
    one_by_one = [
        (msg.source, msg.tag, msg.payload)
        for tag in (6, 5)
        for msg in comm.take_queued(ANY_SOURCE, (tag,))
    ]
    release()
    settled(comm)
    from_rank_2 = comm.take_queued(2, (6,))
    drained = comm.take_queued(ANY_SOURCE, (6, 5))
    empty = comm.take_queued(ANY_SOURCE, (6, 5))
    release()
    settled(group)
    in_group = group.take_queued(ANY_SOURCE, (5,))
    return {
        "one by one": one_by_one,
        "from rank 2": [(m.source, m.tag, m.payload) for m in from_rank_2],
        "drained": [(m.source, m.tag, m.payload) for m in drained],
        "empty": empty,
        "in group": [(m.source, m.tag, m.payload) for m in in_group],
        "left": comm.take_queued(ANY_SOURCE, (5, 6)),
    }


@pytest.mark.parametrize("engine", ENGINES)
def test_take_queued_drains_by_tag_then_arrival(engine):
    got = run_spmd(_drains, 3, engine=engine).results[0]
    assert got["from rank 2"] == [(2, 6, (2, 1))]
    # What a drain per tag takes, less what was taken before:
    # grouped by tag in the order asked, each sender's in the order sent.
    drained = got["drained"]
    assert sorted(drained) == sorted(
        m for m in got["one by one"] if m != (2, 6, (2, 1))
    )
    assert [m[1] for m in drained] == [6, 5, 5, 5, 5]
    assert [m[2] for m in drained if m[0] == 2] == [(2, 0), (2, 2)]
    assert [m[2] for m in drained if m[0] == 1] == [(1, 1), (1, 0), (1, 2)]
    assert got["empty"] == []
    # Group ranks and tags come back in the group's coordinates.
    assert sorted(got["in group"]) == [(1, 5, "in the group"), (2, 5, "in the group")]
    assert got["left"] == []


def test_take_queued_refuses_a_wildcard_or_reserved_tag():
    from repro.errors import CommunicatorError
    from repro.simmpi.message import Tags

    def prog(comm):
        for tags in ((ANY_TAG,), (5, Tags.COLLECTIVE_BASE)):
            with pytest.raises(CommunicatorError):
                comm.take_queued(ANY_SOURCE, tags)
        return True

    assert run_spmd(prog, 1, engine="cooperative").results == [True]


def test_take_queued_keeps_the_turn():
    """A drain, hit or miss, is not a scheduling point."""
    events = []

    def prog(comm):
        if comm.rank == 0:
            assert comm.take_queued(ANY_SOURCE, (2, 3)) == []
            comm.send(0, "to self", tag=3)
            assert [m.payload for m in comm.take_queued(ANY_SOURCE, (2, 3))] == [
                "to self"
            ]
            events.append("rank 0 drained")
        else:
            events.append("rank 1 ran")

    run_spmd(prog, 2, engine="cooperative")
    assert events == ["rank 0 drained", "rank 1 ran"]
