"""Transports: how encoded frames move between ranks.

The delivery contract factored out of the engines: a transport accepts
encoded wire frames addressed to a rank (:meth:`Transport.enqueue`) and
answers (source, tag)-pattern queries against that rank's pending
messages (:meth:`Transport.poll`).  Scheduling — who runs, how a rank
blocks when its poll comes up empty — stays with the engines.

Two implementations:

* :class:`LocalTransport` — one decoded-message deque per rank in shared
  memory, used by both in-memory engines (the cooperative
  scheduler and the free-threaded one).  Frames are decoded on enqueue,
  so delivery is a deep copy and the caller's engine can match against
  :class:`~repro.simmpi.message.Message` objects directly.  Callers
  synchronize with the world lock.
* :class:`ProcessTransport` — the shared-nothing transport behind the
  process engine.  Every rank lives in its own spawned interpreter; a
  frame travels as bytes over the destination's multiprocessing queue
  and is decoded into the destination's private inbox when that rank
  next polls or blocks.

This module also hosts the process engine's per-rank machinery (the
world object, the engine endpoint and the child main function) because
the spawned interpreter imports it by module path.
"""

from __future__ import annotations

import pickle
import queue as queue_mod
import threading
import time
import traceback
from collections import deque

from repro.errors import CommunicatorError, DeadlockError
from repro.simmpi import wire
from repro.simmpi.instrument import CommStats
from repro.simmpi.message import Message

#: How long a process-engine drain sleeps per queue poll; short enough
#: that a frame drained by a sibling thread is noticed promptly.
_DRAIN_SLICE = 0.05


class Transport:
    """Delivery contract shared by every engine (see module docstring)."""

    def enqueue(self, dest: int, frame: bytes) -> Message:
        """Deliver an encoded frame to ``dest``; returns the decoded
        message when the transport decodes eagerly (local delivery)."""
        raise NotImplementedError

    def poll(self, rank: int, source: int, tag: int,
             remove: bool) -> Message | None:
        """First pending message for ``rank`` matching the pattern."""
        raise NotImplementedError


class LocalTransport(Transport):
    """Shared-memory frame delivery: one message deque per rank.

    Thread safety is the caller's: the in-memory engines invoke every
    method while holding the world lock.
    """

    def __init__(self, nranks: int) -> None:
        self.boxes: list[deque[Message]] = [deque() for _ in range(nranks)]

    def enqueue(self, dest: int, frame: bytes) -> Message:
        """Decode the frame (the copy-on-send boundary) and queue it."""
        msg = wire.decode_frame(frame)
        self.boxes[dest].append(msg)
        return msg

    def poll(self, rank: int, source: int, tag: int,
             remove: bool) -> Message | None:
        """First queued message for ``rank`` matching (source, tag)."""
        box = self.boxes[rank]
        for i, msg in enumerate(box):
            if msg.matches(source, tag):
                if remove:
                    del box[i]
                return msg
        return None


class ProcessTransport(Transport):
    """Frames over multiprocessing queues; decoded into a private inbox.

    One instance lives inside each spawned rank.  ``queues[d]`` is rank
    ``d``'s delivery queue; sending is a queue put of the raw frame
    bytes, receiving drains this rank's own queue into ``inbox``.  The
    inbox lock keeps the transport safe when several threads of one
    rank's program share the inbox.
    """

    def __init__(self, queues, rank: int) -> None:
        self.queues = queues
        self.rank = rank
        self.inbox: deque[Message] = deque()
        self.lock = threading.Lock()

    def enqueue(self, dest: int, frame: bytes) -> None:
        """Put the raw frame bytes on the destination rank's queue."""
        self.queues[dest].put(frame)

    def poll(self, rank: int, source: int, tag: int,
             remove: bool) -> Message | None:
        """First inbox message matching (source, tag); own rank only."""
        if rank != self.rank:
            raise CommunicatorError(
                f"process transport of rank {self.rank} polled for {rank}"
            )
        with self.lock:
            for i, msg in enumerate(self.inbox):
                if msg.matches(source, tag):
                    if remove:
                        del self.inbox[i]
                    return msg
        return None

    def drain(self, block: bool = False) -> bool:
        """Move arrived frames from the queue into the inbox.

        Non-blocking by default; with ``block=True`` waits up to one
        drain slice for the first frame.  Returns True if anything
        arrived.
        """
        got = False
        while True:
            try:
                frame = self.queues[self.rank].get(
                    timeout=_DRAIN_SLICE if (block and not got) else 0
                )
            except queue_mod.Empty:
                return got
            with self.lock:
                self.inbox.append(wire.decode_frame(frame))
            got = True


# ----------------------------------------------------------------------
# process-engine per-rank runtime (imported by the spawned interpreter)
# ----------------------------------------------------------------------
class _ProcessWorld:
    """One spawned rank's private world: shared-nothing by construction.

    Mirrors the attribute surface the communicator needs (``nranks``,
    ``stats``, ``verifier``); only this rank's entry in ``stats`` is
    ever touched.
    """

    def __init__(self, nranks: int, rank: int,
                 transport: ProcessTransport) -> None:
        self.nranks = nranks
        self.rank = rank
        self.transport = transport
        self.stats = [CommStats() for _ in range(nranks)]
        self.verifier = None
        self.fault_plan = None
        self.injector = None

    def find_message(self, rank: int, source: int, tag: int,
                     remove: bool) -> Message | None:
        return self.transport.poll(rank, source, tag, remove)


class _ProcessEndpoint:
    """Engine-side of a spawned rank: blocking semantics over the queue.

    Implements the same deposit/wait/probe/take surface the in-memory engines
    give the communicator, with the threaded engine's discipline: every
    blocking receive carries a timeout, and expiry raises
    :class:`DeadlockError` instead of hanging the process tree.
    """

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout

    def deposit(self, world: _ProcessWorld, rank: int, dest: int,
                frame: bytes) -> None:
        world.transport.enqueue(dest, frame)

    def wait_message(self, world: _ProcessWorld, rank: int, source: int,
                     tag: int) -> Message:
        transport = world.transport
        deadline = time.monotonic() + self.timeout
        while True:
            msg = transport.poll(rank, source, tag, remove=True)
            if msg is not None:
                return msg
            transport.drain(block=True)
            if time.monotonic() > deadline:
                from repro.faults import describe_faults

                raise DeadlockError.from_blocked(
                    {rank: (source, tag)},
                    detail=f"no matching message within the "
                           f"{self.timeout}s receive timeout "
                           "(process engine)",
                    faults=describe_faults(world),
                )

    def probe(self, world: _ProcessWorld, rank: int, source: int,
              tag: int) -> Message | None:
        world.transport.drain(block=False)
        return world.transport.poll(rank, source, tag, remove=False)

    def take_ready(self, world: _ProcessWorld, rank: int, source: int,
                   tag: int) -> Message | None:
        world.transport.drain(block=False)
        return world.transport.poll(rank, source, tag, remove=True)


def _portable_exception(exc: BaseException) -> BaseException:
    """The exception itself when it pickles cleanly, else a
    :class:`CommunicatorError` carrying its rendering."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return CommunicatorError(
            f"{type(exc).__name__}: {exc}\n"
            + "".join(traceback.format_exception(exc))
        )


def process_rank_main(rank: int, nranks: int, fn, queues, result_queue,
                      timeout: float, fault_plan=None) -> None:
    """Entry point of one spawned rank (must be importable by spawn).

    Builds the rank's private world, runs ``fn(comm)``, and reports
    ``("ok", rank, result, stats)``, ``("error", rank, exc, None)``, or
    — when the rank's scripted :class:`~repro.faults.CrashFault` fires —
    ``("crashed", rank, None, stats)`` on the result queue.

    Each child builds its *own* injector from the shared picklable
    ``fault_plan``.  Fault decisions are drawn from the frame's content
    hash keyed by the plan seed, so per-child injectors agree with a
    single shared one frame-for-frame.
    """
    from repro.errors import RankCrashError
    from repro.simmpi.communicator import Communicator

    try:
        world = _ProcessWorld(nranks, rank, ProcessTransport(queues, rank))
        if fault_plan is not None:
            from repro.faults import FaultInjector, FaultyTransport

            injector = FaultInjector(fault_plan, nranks, stats=world.stats)
            world.transport = FaultyTransport(world.transport, injector)
            world.fault_plan = fault_plan
            world.injector = injector
        comm = Communicator(world, rank, _ProcessEndpoint(timeout))
        result = fn(comm)
        result_queue.put(("ok", rank, result, world.stats[rank]))
    except RankCrashError:
        # Scripted crash: report the partial stats so the parent's
        # ledger stays complete, then die with exit code 0 — the
        # engine's child-exit sweep must not flag a planned death.
        result_queue.put(("crashed", rank, None, world.stats[rank]))
        raise SystemExit(0)
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        try:
            result_queue.put(("error", rank, _portable_exception(exc), None))
        finally:
            raise SystemExit(1)
