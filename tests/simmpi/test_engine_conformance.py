"""One behaviour on every engine: a spawned rank acts like an in-memory one.

Most of ``tests/simmpi`` runs its closures on the two in-memory engines
only, since the process engine ships a rank program by pickle.  The rank
programs here are module-level, so each case runs on all three engines.
"""

import pytest

from repro.errors import DeadlockError
from repro.faults import CrashedRank, CrashFault, FaultPlan
from repro.simmpi import ANY_SOURCE, ANY_TAG, Tags, run_spmd
from repro.simmpi.engine import ProcessEngine, ThreadedEngine

ENGINES = ["cooperative", "threaded", "process"]


def short_timeout(name):
    """The engine ``name`` with a receive timeout short enough for a
    deliberate deadlock; the cooperative engine detects one instead."""
    if name == "threaded":
        return ThreadedEngine(timeout=0.5)
    if name == "process":
        return ProcessEngine(timeout=1.0)
    return name


# ----------------------------------------------------------------------
# rank programs (module-level, picklable)
# ----------------------------------------------------------------------
def _crash_at_second_send(comm):
    """Rank 1 dies at its second correction-phase send (the plan's
    CrashFault); rank 0 takes the one frame that left before."""
    if comm.rank == 1:
        comm.fault_injector.enter_phase(1, "correction")
        comm.send(0, "first", tag=1)
        comm.send(0, "never sent", tag=1)
        return "unreachable"
    return comm.recv(source=1, tag=1).payload


def _unanswered(comm):
    if comm.rank == 0:
        comm.recv(source=1, tag=7)
    return comm.rank


def _reserved_then_user(comm):
    """Rank 1 sends a collective (reserved-tag) frame, then a user one;
    rank 0's ANY_TAG receive must skip the first and take the second."""
    if comm.rank == 1:
        comm.bcast("collective", root=1)
        comm.send(0, "user", tag=3)
        return None
    msg = comm.recv(ANY_SOURCE, ANY_TAG)
    return msg.tag, msg.payload, comm.bcast(None, root=1)


def _empty_looks(comm):
    looks = (comm.iprobe(), comm.take_queued(tags=(3,)))
    comm.barrier()
    return looks


def _request_reply(comm):
    """A lookup-plane request (delayable) and its reply (not)."""
    if comm.rank == 0:
        comm.send(1, "request", tag=Tags.KMER_REQUEST)
        return comm.recv(source=1, tag=9).payload
    comm.recv(source=0, tag=Tags.KMER_REQUEST)
    comm.send(0, "reply", tag=9)
    return None


# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_scripted_crash_yields_crashed_rank_and_keeps_its_stats(engine):
    plan = FaultPlan(crashes=(CrashFault(rank=1, after_events=2),))
    res = run_spmd(_crash_at_second_send, 2, engine=engine, faults=plan)
    assert res.results == ["first", CrashedRank(1)]
    assert res.stats[1].messages_sent == 1
    assert res.stats[1].get("crashes_injected") == 1


@pytest.mark.parametrize("engine", ENGINES)
def test_unanswered_receive_raises_deadlock_naming_rank_and_pattern(engine):
    with pytest.raises(DeadlockError) as exc:
        run_spmd(_unanswered, 2, engine=short_timeout(engine))
    assert "rank 0 blocked in recv(source=1, tag=7)" in str(exc.value)


@pytest.mark.parametrize("engine", ENGINES)
def test_any_tag_skips_reserved_tags(engine):
    res = run_spmd(_reserved_then_user, 2, engine=engine)
    assert res.results[0] == (3, "user", "collective")


@pytest.mark.parametrize("engine", ENGINES)
def test_looks_at_an_empty_mailbox_return_none(engine):
    """A probe finds None and a drain an empty list, at once."""
    res = run_spmd(_empty_looks, 2, engine=engine)
    assert res.results == [(None, []), (None, [])]


@pytest.mark.parametrize("engine", ENGINES)
def test_delayed_request_still_reaches_its_server(engine):
    """The request waits in the sender's delay buffer, which only the
    sender's own transport events drain: a parked sender must keep
    ticking that clock."""
    res = run_spmd(_request_reply, 2, engine=engine,
                   faults=FaultPlan(delay_rate=1.0))
    assert res.results[0] == "reply"
    assert res.total_stats().get("frames_delayed") == 1
