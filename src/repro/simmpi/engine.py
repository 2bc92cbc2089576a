"""Execution engines: how SPMD ranks are scheduled.

Delivery itself lives one layer down, in :mod:`repro.simmpi.transport`:
an engine receives *encoded wire frames* from the communicator
(:meth:`Engine.deposit`) and hands them to a transport — or, on an
in-memory world where nothing reads frames
(:meth:`Engine.delivers_copies`), messages the communicator already
copied by the wire's rules (:meth:`Engine.deliver`).  Copy-on-send and
exact byte accounting hold identically everywhere.  The engines differ
only in scheduling.

All three engines share one skeleton, :class:`Engine`: delivery, the
blocking receive, probe and take, the rank body (verifier calls, the
scripted-crash mapping, first-error recording) and the fault-transport
wrap.  Each supplies only how a rank parks, how a delivery wakes it,
what a probe miss does and how its ranks start:

* :class:`CooperativeEngine` — exactly one rank runs at a time, and control
  switches only at communication points (blocking receive, probe-yield,
  rank completion).  Given the same program and inputs, every run executes
  the same interleaving: fully deterministic, and Python objects shared
  between ranks need no locking.  Deadlocks are *detected* (no runnable
  rank, someone waiting) and reported as :class:`DeadlockError` instead of
  hanging.

* :class:`ThreadedEngine` — ranks run freely on threads of one process
  and block on condition variables; this exercises the Step IV protocol
  (each rank serving peers from its pump while it waits) under real
  concurrency.  Blocking receives take a timeout so an accidental
  deadlock surfaces as an error.

* :class:`ProcessEngine` — every rank is a spawned interpreter with
  shared-nothing state, and frames cross real process boundaries over
  the :class:`~repro.simmpi.transport.ProcessTransport`.  A spawned rank
  is a one-rank user of the skeleton: an ordinary world over its
  transport, the same rank body and fault wrap.  It parks by a sliced
  receive from its own queue, and a delivery wakes no one in its
  process.  This is the closest analogue of the paper's MPI deployment
  and the only engine that scales past the GIL.
"""

from __future__ import annotations

import functools
import pickle
import queue as queue_mod
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, NoReturn

from repro.errors import CommunicatorError, DeadlockError, RankCrashError
from repro.simmpi.instrument import CommStats, total_stats
from repro.simmpi.message import Message
from repro.simmpi.transport import LocalTransport, ProcessTransport


class _World:
    """State shared by all ranks of one in-memory SPMD run."""

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self.transport = LocalTransport(nranks)
        self.stats: list[CommStats] = [CommStats() for _ in range(nranks)]
        self.error: BaseException | None = None
        self.lock = threading.RLock()
        #: Optional :class:`~repro.analysis.verifier.RuntimeVerifier`;
        #: attached by ``run_spmd(..., verify=True)``.
        self.verifier = None
        #: Optional :class:`~repro.faults.FaultPlan` /
        #: :class:`~repro.faults.FaultInjector`; attached by
        #: ``run_spmd(..., faults=plan)``.  ``None`` on fault-free runs,
        #: keeping the hot path a single attribute check.
        self.fault_plan = None
        self.injector = None

    @property
    def mailboxes(self) -> list[deque[Message]]:
        """The transport's per-rank decoded-message queues (the verifier
        and white-box tests inspect these directly)."""
        return self.transport.boxes

    def fail(self, error: BaseException) -> None:
        """Record the run's first error (caller holds the lock)."""
        if self.error is None:
            self.error = error

    def find_message(self, rank: int, source: int, tag: int, remove: bool) -> Message | None:
        """First matching message in ``rank``'s mailbox (caller holds lock)."""
        return self.transport.poll(rank, source, tag, remove)


class Engine:
    """How ranks run and reach their mailboxes (see module docstring).

    The communicator calls an engine through ``deposit`` (or
    ``deliver``), ``wait_message``, ``probe`` and ``take_queued``, and
    ``run_spmd`` through ``run``.  A rank has three ways to look at its mailbox, and
    they differ in what they do on a miss: :meth:`wait_message` blocks
    until a match arrives, :meth:`probe` peeks and may hand the CPU to
    another rank, and :meth:`take_queued` removes every match of a set
    of tags that was *already delivered*, in one mailbox scan, and
    otherwise returns an empty list at once — it never blocks and never
    gives up the rank's turn.

    This class is the skeleton: every entry point above, the rank body
    :meth:`_run_rank`, the verifier calls, the scripted crash →
    :class:`~repro.faults.CrashedRank` mapping and the fault-transport
    wrap live here once, all under ``world.lock``.  A subclass supplies
    only its scheduling, through these hooks (each called with the lock
    held):

    * :meth:`_delivered` — how a delivery wakes a parked receiver;
    * :meth:`_park` — how a rank blocks until something is delivered;
    * :meth:`_wake_all` — how every parked rank is released after a failure;
    * :meth:`_probe_miss` — what a probe that found nothing does;
    * :meth:`_enter` / :meth:`_leave` — how a rank's turn starts and ends.
    """

    #: Seconds a parked receive waits before it fails with
    #: :class:`DeadlockError`; None where the engine detects deadlock.
    timeout: float | None = None

    def create_world(self, nranks: int) -> _World:
        """The state one run's ranks share."""
        return _World(nranks)

    def deposit(self, world: _World, rank: int, dest: int, frame: bytes) -> None:
        """Deliver an encoded frame into ``dest``'s mailbox (called by ``rank``)."""
        with world.lock:
            if world.error is not None:
                raise world.error
            # enqueue returns None when a fault injector swallowed the
            # frame (dropped / delayed): nothing to match.
            self._delivered(world, dest, world.transport.enqueue(dest, frame))

    def deliver(self, world: _World, rank: int, dest: int, msg: Message) -> None:
        """Deliver ``msg`` — already a copy, as decoding its frame would
        give — into ``dest``'s mailbox (called by ``rank``): what
        :meth:`deposit` does after the decode.  Only for a world whose
        :meth:`delivers_copies` holds."""
        with world.lock:
            if world.error is not None:
                raise world.error
            world.transport.append(dest, msg)
            self._delivered(world, dest, msg)

    def delivers_copies(self, world: _World) -> bool:
        """True when sends on ``world`` may skip the frame bytes and go
        through :meth:`deliver`: its transport is a plain
        :class:`LocalTransport` — not the process transport, and not the
        wrapper every armed fault plan puts around it, whose verdicts
        hash the bytes — and this engine keeps the stock
        :meth:`deposit`, so nothing observes frames."""
        return (
            type(world.transport) is LocalTransport
            and getattr(self.deposit, "__func__", None) is Engine.deposit
        )

    def wait_message(self, world: _World, rank: int, source: int, tag: int) -> Message:
        """Block ``rank`` until a matching message arrives; remove it."""
        with world.lock:
            while True:
                if world.error is not None:
                    raise world.error
                msg = world.find_message(rank, source, tag, remove=True)
                if msg is not None:
                    if world.verifier is not None:
                        world.verifier.end_wait(rank)
                    return msg
                if world.verifier is not None:
                    err = world.verifier.begin_wait(rank, source, tag)
                    if err is not None:
                        self._abort(world, err)
                        raise err
                self._park(world, rank, source, tag)

    def probe(self, world: _World, rank: int, source: int, tag: int) -> Message | None:
        """Non-blocking peek; a miss is the engine's :meth:`_probe_miss`."""
        with world.lock:
            if world.error is not None:
                raise world.error
            msg = world.find_message(rank, source, tag, remove=False)
            if msg is not None:
                return msg
            return self._probe_miss(world, rank, source, tag)

    def take_queued(self, world: _World, rank: int, source: int,
                    tags: tuple[int, ...]) -> list[Message]:
        """Remove and return every already delivered message under one
        of ``tags``, grouped in tag order, each group in arrival order.

        One locked mailbox scan, no scheduling.  A hit completes a
        receive as far as the runtime verifier is concerned."""
        with world.lock:
            if world.error is not None:
                raise world.error
            taken = world.transport.take_all(rank, source, tags)
            if taken and world.verifier is not None:
                world.verifier.end_wait(rank)
            return taken

    def run(self, fn: Callable[[Any], Any], world: _World,
            make_comm: Callable[[_World, int], Any]) -> list[Any]:
        """Execute ``fn(comm)`` on one thread per rank; returns per-rank results."""
        results: list[Any] = [None] * world.nranks
        threads = [
            threading.Thread(target=self._run_rank,
                             args=(fn, world, make_comm, results, rank),
                             name=f"rank-{rank}", daemon=True)
            for rank in range(world.nranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if world.error is not None:
            raise world.error
        return results

    def _run_rank(self, fn: Callable[[Any], Any], world: _World,
                  make_comm: Callable[[_World, int], Any],
                  results: list[Any], rank: int) -> None:
        """The rank body: run ``fn(comm)`` into ``results[rank]``; a
        failure becomes ``world.error``."""
        from repro.faults import CrashedRank

        if not self._enter(world, rank):
            return
        try:
            results[rank] = fn(make_comm(world, rank))
        except RankCrashError:
            # A scripted crash: this rank is dead, the run goes on —
            # recovery (replay by the partner) happens at the protocol
            # layer, not here.
            results[rank] = CrashedRank(rank)
        except BaseException as exc:  # noqa: BLE001 - repropagated by run
            with world.lock:
                # A rank's own exception explains a deadlock the others
                # then diagnosed, so it replaces one.
                if world.error is None or isinstance(world.error, DeadlockError):
                    world.error = exc
                self._wake_all(world)
        finally:
            with world.lock:
                if world.verifier is not None:
                    err = world.verifier.mark_finished(rank)
                    if err is not None:
                        self._abort(world, err)
                self._leave(world, rank)

    def attach_faults(self, world: _World, plan) -> None:
        """Arm a :class:`~repro.faults.FaultPlan` on this world.

        Builds the injector and wraps the transport.  A frame that a
        delay releases later is flushed inside some deposit or poll,
        under the lock, and wakes its receiver as a deposit does.
        """
        from repro.faults import FaultInjector, FaultyTransport

        world.fault_plan = plan
        world.injector = FaultInjector(plan, world.nranks, stats=world.stats)
        transport = FaultyTransport(world.transport, world.injector)
        transport.on_deliver = functools.partial(self._delivered, world)
        world.transport = transport

    # -- scheduling hooks (callers hold world.lock) ----------------------
    def _abort(self, world: _World, error: BaseException) -> None:
        """Record the run's first error and release every parked rank."""
        world.fail(error)
        self._wake_all(world)

    def _delivered(self, world: _World, dest: int, msg: Message | None) -> None:
        """A message (None: swallowed by a fault) reached ``dest``."""
        raise NotImplementedError

    def _park(self, world: _World, rank: int, source: int, tag: int) -> None:
        """Block ``rank`` until a delivery may match; lock held throughout
        except while parked."""
        raise NotImplementedError

    def _wake_all(self, world: _World) -> None:
        """Release every parked rank so it can see ``world.error``."""
        raise NotImplementedError

    def _probe_miss(self, world: _World, rank: int, source: int,
                    tag: int) -> Message | None:
        """A probe found nothing: report that."""
        return None

    def _enter(self, world: _World, rank: int) -> bool:
        """A rank thread starts; False when the run already failed."""
        return True

    def _leave(self, world: _World, rank: int) -> None:
        """A rank's program returned or raised."""


# ----------------------------------------------------------------------
# Cooperative (deterministic) engine
# ----------------------------------------------------------------------
class _CoopState:
    """Scheduler bookkeeping attached to a cooperative world: rank 0
    holds the first turn, the others queue behind it in rank order.

    A rank's turn is a *gate*, a plain lock: the rank blocks on it to
    park, and the scheduler releases it to hand the turn over.  A gate
    is held while its rank runs and is released at most once per park
    (every release happens under ``world.lock``), so a hand-over is one
    C-level release and one acquire — no condition variable."""

    def __init__(self, nranks: int) -> None:
        self.gates = [threading.Lock() for _ in range(nranks)]
        for gate in self.gates[1:]:
            gate.acquire()
        self.runnable: deque[int] = deque(range(1, nranks))
        # rank -> (source, tag) it blocks on; only set while waiting.
        self.waiting: dict[int, tuple[int, int]] = {}
        self.finished: set[int] = set()
        self.current: int | None = 0

    def open(self, rank: int) -> None:
        """Let ``rank`` through its gate (caller holds ``world.lock``)."""
        gate = self.gates[rank]
        if gate.locked():
            gate.release()


class CooperativeEngine(Engine):
    """Deterministic turn-taking engine (the default for tests/benchmarks)."""

    #: A probe miss yields one scheduler turn, so resilient spin loops
    #: make progress without sleeping (read by Communicator.probe_yields).
    PROBE_YIELDS = True

    def create_world(self, nranks: int) -> _World:
        """World plus the cooperative scheduler state."""
        world = _World(nranks)
        world.coop = _CoopState(nranks)  # type: ignore[attr-defined]
        return world

    def _schedule_next(self, world: _World) -> None:
        st: _CoopState = world.coop  # type: ignore[attr-defined]
        if st.runnable:
            nxt = st.runnable.popleft()
            st.current = nxt
            st.open(nxt)
            return
        st.current = None
        live_waiting = set(st.waiting) - st.finished
        if live_waiting:
            # Nobody can run and someone is blocked: deadlock.  Keep the
            # first diagnosis — teardown re-entries would otherwise
            # overwrite it with a shrinking rank list.
            from repro.faults import describe_faults

            world.fail(DeadlockError.from_blocked(
                {r: st.waiting[r] for r in live_waiting},
                detail="all runnable ranks exhausted with no matching "
                       "messages in flight",
                faults=describe_faults(world),
            ))
            for r in live_waiting:
                st.open(r)

    def _hand_over(self, world: _World, rank: int) -> None:
        """Give up the CPU; return when scheduled again (lock held on entry
        and re-acquired before returning)."""
        st: _CoopState = world.coop  # type: ignore[attr-defined]
        self._schedule_next(world)
        world.lock.release()
        try:
            st.gates[rank].acquire()
        finally:
            world.lock.acquire()

    # -- scheduling hooks -----------------------------------------------
    def _delivered(self, world: _World, dest: int, msg: Message | None) -> None:
        """Re-arm ``dest`` if it is parked on a pattern ``msg`` matches."""
        st: _CoopState = world.coop  # type: ignore[attr-defined]
        pattern = st.waiting.get(dest)
        if msg is not None and pattern is not None and msg.matches(*pattern):
            del st.waiting[dest]
            st.runnable.append(dest)

    def _park(self, world: _World, rank: int, source: int, tag: int) -> None:
        """Record the pattern and hand the CPU over until re-armed."""
        st: _CoopState = world.coop  # type: ignore[attr-defined]
        st.waiting[rank] = (source, tag)
        self._hand_over(world, rank)
        st.current = rank

    def _wake_all(self, world: _World) -> None:
        st: _CoopState = world.coop  # type: ignore[attr-defined]
        for rank in range(len(st.gates)):
            st.open(rank)

    def _probe_miss(self, world: _World, rank: int, source: int,
                    tag: int) -> Message | None:
        """Yield one turn so producers can run, then re-check once: spin
        loops thus make progress round-robin."""
        st: _CoopState = world.coop  # type: ignore[attr-defined]
        st.runnable.append(rank)
        self._hand_over(world, rank)
        if world.error is not None:
            raise world.error
        st.current = rank
        return world.find_message(rank, source, tag, remove=False)

    def _enter(self, world: _World, rank: int) -> bool:
        """Wait for the rank's first turn."""
        world.coop.gates[rank].acquire()  # type: ignore[attr-defined]
        return world.error is None

    def _leave(self, world: _World, rank: int) -> None:
        """Retire the rank and pass its turn on."""
        st: _CoopState = world.coop  # type: ignore[attr-defined]
        st.finished.add(rank)
        st.waiting.pop(rank, None)
        if st.current == rank:
            self._schedule_next(world)


# ----------------------------------------------------------------------
# Engines whose blocking receive times out
# ----------------------------------------------------------------------
class _TimedEngine(Engine):
    """An engine whose parked receive gives up: ``timeout`` bounds every
    blocking receive, and expiry raises :class:`DeadlockError` (a real
    MPI job would hang instead)."""

    timeout: float

    def __init__(self, timeout: float = 120.0) -> None:
        if timeout <= 0:
            raise CommunicatorError("timeout must be positive")
        self.timeout = timeout

    def _time_out(self, world: _World, rank: int, source: int,
                  tag: int) -> NoReturn:
        """Fail ``rank``'s receive: nothing came within the timeout."""
        from repro.faults import describe_faults

        err = DeadlockError.from_blocked(
            {rank: (source, tag)},
            detail=f"no matching message within the "
                   f"{self.timeout}s receive timeout",
            faults=describe_faults(world),
        )
        self._abort(world, err)
        raise err


# ----------------------------------------------------------------------
# Free-running threaded engine
# ----------------------------------------------------------------------
class ThreadedEngine(_TimedEngine):
    """Concurrent engine: ranks are ordinary threads blocking on conditions."""

    def create_world(self, nranks: int) -> _World:
        """World plus one condition variable per rank mailbox."""
        world = _World(nranks)
        world.conds = [  # type: ignore[attr-defined]
            threading.Condition(world.lock) for _ in range(nranks)
        ]
        return world

    def _delivered(self, world: _World, dest: int, msg: Message | None) -> None:
        world.conds[dest].notify_all()  # type: ignore[attr-defined]

    def _park(self, world: _World, rank: int, source: int, tag: int) -> None:
        """Wait on the rank's condition, at most ``timeout`` seconds."""
        if not world.conds[rank].wait(timeout=self.timeout):  # type: ignore[attr-defined]
            self._time_out(world, rank, source, tag)

    def _wake_all(self, world: _World) -> None:
        for cond in world.conds:  # type: ignore[attr-defined]
            cond.notify_all()


# ----------------------------------------------------------------------
# Shared-nothing multiprocessing engine
# ----------------------------------------------------------------------
class ProcessEngine(_TimedEngine):
    """One spawned interpreter per rank; frames cross real process
    boundaries (see :class:`~repro.simmpi.transport.ProcessTransport`).

    The rank function must be picklable (a module-level function or a
    picklable callable object — the driver's rank programs are).  Each
    spawned rank runs :meth:`_spawned_rank`: its own world, fault plan,
    communicator and stats ledger under the shared skeleton.  The parent
    only distributes the program, collects results and folds the
    children's :class:`CommStats` back into ``world.stats``.  The
    parent's world holds ``nranks`` and, after the run, those stats; its
    transport and mailboxes are never used.

    ``timeout`` bounds every blocking receive inside the children, as on
    the threaded engine, so a rank stuck in a receive fails itself and
    reports its :class:`~repro.errors.DeadlockError`.  The parent waits
    as long as its children are alive, however long the run lasts, and
    watches for a child dying without reporting (a crash surfaces as
    :class:`CommunicatorError` rather than a hang).  A failed run
    terminates the children still alive at once; a successful one joins
    them.
    """

    #: How long the parent waits for a dead child's report to surface
    #: before it diagnoses a death without one.
    _GRACE = 2.0
    #: How long a parked rank waits on its queue before it re-polls, so
    #: a frame its own fault injector delayed still leaves on time.
    _PARK_SLICE = 0.05

    def _delivered(self, world: _World, dest: int, msg: Message | None) -> None:
        """A delivery leaves this process on a queue: nobody to wake."""

    def _wake_all(self, world: _World) -> None:
        """A spawned rank is its process's only rank: nobody to release."""

    def _park(self, world: _World, rank: int, source: int, tag: int) -> None:
        """Receive from the rank's own queue in slices, the lock released
        while waiting, until a frame arrives or a re-poll matches."""
        deadline = time.monotonic() + self.timeout
        transport = world.transport
        while True:
            world.lock.release()
            try:
                frame = transport.take(self._PARK_SLICE)
            finally:
                world.lock.acquire()
            if frame is not None:
                transport.admit(frame)
                return
            # The re-poll ticks the fault injector's delayed-frame clock.
            if world.find_message(rank, source, tag, remove=False) is not None:
                return
            if time.monotonic() > deadline:
                self._time_out(world, rank, source, tag)

    def _spawned_rank(self, rank: int, nranks: int, fn, queues,
                      result_queue, fault_plan) -> None:
        """Entry point of one spawned rank: a one-rank run of the skeleton.

        Reports ``("ok", rank, result, stats)`` — a scripted crash's
        result is its :class:`~repro.faults.CrashedRank` — or
        ``("error", rank, exc, None)`` on the result queue.  Each child
        arms its *own* injector from the shared picklable ``fault_plan``;
        fault decisions are drawn from the frame's content hash keyed by
        the plan seed, so per-child injectors agree with a single shared
        one frame-for-frame.
        """
        from repro.simmpi.communicator import Communicator

        world = _World(nranks)
        world.transport = ProcessTransport(queues, rank)
        if fault_plan is not None:
            self.attach_faults(world, fault_plan)
        results: list[Any] = [None] * nranks
        self._run_rank(fn, world, lambda w, r: Communicator(w, r, self),
                       results, rank)
        if world.error is None:
            result_queue.put(("ok", rank, results[rank], world.stats[rank]))
            return
        result_queue.put(("error", rank, _portable_exception(world.error), None))
        raise SystemExit(1)

    def run(self, fn, world: _World, make_comm) -> list[Any]:
        """Spawn all ranks, collect per-rank results and stats."""
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        n = world.nranks
        queues = [ctx.Queue() for _ in range(n)]
        result_queue = ctx.Queue()
        procs: list = []
        failed = True
        try:
            for rank in range(n):
                proc = ctx.Process(
                    target=self._spawned_rank,
                    args=(rank, n, fn, queues, result_queue,
                          world.fault_plan),
                    name=f"proc-rank-{rank}",
                )
                try:
                    proc.start()
                except (pickle.PicklingError, AttributeError, TypeError) as exc:
                    raise CommunicatorError(
                        "the process engine requires a picklable rank "
                        "function (module-level, no closures); pickling "
                        f"failed: {exc}"
                    ) from exc
                procs.append(proc)
            results: list[Any] = [None] * n
            pending = n
            while pending:
                try:
                    status = result_queue.get(timeout=1.0)
                except queue_mod.Empty:
                    self._check_children(procs, result_queue)
                    continue
                kind, rank, value, stats = status
                if kind == "error":
                    raise value
                results[rank] = value
                world.stats[rank] = stats
                pending -= 1
            failed = False
            return results
        finally:
            self._teardown(procs, queues, result_queue, failed)

    def _check_children(self, procs, result_queue) -> None:
        """No result within the poll slice: diagnose dead ranks.

        While every child is alive, or has exited cleanly beside a live
        one, the run is healthy however long it lasts.  A child that died,
        or a world whose children all exited with a report missing, is
        not."""
        dead = [p for p in procs if not p.is_alive() and p.exitcode != 0]
        if not dead:
            if any(p.is_alive() for p in procs):
                return
            dead = procs
        # A failing child reports before exiting; give that report a
        # moment to surface so the real exception wins over the
        # generic died-without-reporting diagnosis.
        try:
            status = result_queue.get(timeout=self._GRACE)
        except queue_mod.Empty:
            codes = ", ".join(f"{p.name} exit code {p.exitcode}" for p in dead)
            raise CommunicatorError(
                f"rank process(es) died without reporting: {codes}"
            ) from None
        kind, rank, value, _stats = status
        if kind == "error":
            raise value
        # A success slipped in; push it back through the main loop.
        result_queue.put(status)

    @staticmethod
    def _teardown(procs, queues, result_queue, failed: bool) -> None:
        """Drain, join and reap the process world.

        Draining the data queues first unblocks any child whose queue
        feeder thread is still flushing frames nobody will receive.  A
        successful run's children are exiting, so they are joined; after
        a failure the others may be parked in a receive until their own
        timeout, so they are terminated at once.
        """
        for q in [*queues, result_queue]:
            try:
                while True:
                    q.get_nowait()
            except (queue_mod.Empty, OSError, ValueError):
                pass
        if not failed:
            for p in procs:
                p.join(timeout=10.0)
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        for q in [*queues, result_queue]:
            q.close()


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


# ----------------------------------------------------------------------
@dataclass
class SpmdResult:
    """Return bundle of :func:`run_spmd`."""

    results: list[Any]
    stats: list[CommStats] = field(default_factory=list)

    def total_stats(self) -> CommStats:
        """All ranks' traffic folded together."""
        return total_stats(self.stats)


def run_spmd(
    fn: Callable[[Any], Any],
    nranks: int,
    engine: Engine | str = "cooperative",
    verify: bool = False,
    faults=None,
) -> SpmdResult:
    """Run ``fn(comm)`` as an SPMD program on ``nranks`` ranks.

    ``engine`` may be an :class:`Engine` instance or one of the names
    ``"cooperative"``, ``"threaded"``, or ``"process"``.  With ``verify=True`` the run is instrumented by
    :class:`~repro.analysis.verifier.RuntimeVerifier`: wait-for-graph
    deadlock detection at every blocking receive, and a finalize-time
    audit (undrained mailboxes, unmatched sends, collective generation
    skew) that raises :class:`~repro.errors.VerifierError` after an
    otherwise successful run.  The verifier needs a shared-memory view
    of every mailbox, so it is unavailable on the process engine.

    ``faults`` optionally arms a :class:`~repro.faults.FaultPlan`: the
    engine's transport is wrapped by a
    :class:`~repro.faults.FaultyTransport` (frame faults) and scripted
    crash/stall faults are injected at the communicator's send boundary.
    A rank killed by its CrashFault yields a
    :class:`~repro.faults.CrashedRank` sentinel in ``results`` instead
    of failing the run.  Plans that swallow or reorder frames are
    incompatible with the verifier's mailbox audit, so ``verify=True``
    only combines with stall-only plans.
    Returns per-rank results and the per-rank communication statistics.
    """
    from repro.simmpi.communicator import Communicator

    if nranks < 1:
        raise CommunicatorError("nranks must be >= 1")
    if isinstance(engine, str):
        if engine == "cooperative":
            engine = CooperativeEngine()
        elif engine == "threaded":
            engine = ThreadedEngine()
        elif engine == "process":
            engine = ProcessEngine()
        else:
            raise CommunicatorError(f"unknown engine {engine!r}")
    if verify and isinstance(engine, ProcessEngine):
        raise CommunicatorError(
            "verify=True needs a shared-memory view of every mailbox and "
            "is not supported on the shared-nothing process engine"
        )
    if faults is not None:
        faults.validate(nranks)
        if verify and not faults.stall_only:
            raise CommunicatorError(
                "verify=True audits that every send is matched, which a "
                "FaultPlan that drops, duplicates, delays, or "
                "crashes violates by design; only stall-only plans can be "
                "verified"
            )
    world = engine.create_world(nranks)
    if faults is not None:
        engine.attach_faults(world, faults)
    if verify:
        from repro.analysis.verifier import RuntimeVerifier

        world.verifier = RuntimeVerifier(world)

    def make_comm(w: _World, rank: int) -> Communicator:
        comm = Communicator(w, rank, engine)
        if w.verifier is not None:
            w.verifier.register_comm(comm)
        return comm

    results = engine.run(fn, world, make_comm)
    if world.verifier is not None:
        world.verifier.finalize()
    return SpmdResult(results=results, stats=world.stats)
