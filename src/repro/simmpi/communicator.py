"""The per-rank communicator: tagged p2p plus MPI-style collectives.

Every verb reaches the engine through one internal point-to-point path,
:meth:`Communicator._send` / :meth:`Communicator._receive`, in the
communicator's own rank and tag coordinates.  The public verbs check the
tag first: user tags lie in ``[0, Tags.COLLECTIVE_BASE)`` (``ANY_TAG``
too, for receives and probes).  The collectives are built on the
internal path with reserved tags.  Each collective call consumes one
*generation* number per rank; SPMD programs invoke collectives in the
same order on every rank (the MPI contract), so generations line up and
messages from different collectives can never cross-match even when
buffered out of order.

A group from :meth:`Communicator.split` is a communicator too
(:class:`~repro.simmpi.subcomm.SubCommunicator`): it overrides only its
identity and the internal path, so it has every verb and collective.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence, cast

from repro.errors import CommunicatorError, RankMismatchError
from repro.simmpi import wire
from repro.simmpi.engine import Engine, _World
from repro.simmpi.instrument import CommStats
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Message, Tags

if TYPE_CHECKING:
    from repro.faults import FaultInjector, FaultPlan
    from repro.simmpi.subcomm import SubCommunicator

#: An engine's ``wait_message`` or ``probe``: (world, rank, source, tag).
Receive = Callable[[_World, int, int, int], Message | None]


def _check_tag(tag: int, wildcard: bool) -> None:
    """Refuse a tag outside the user range (reserved for collectives and
    groups); ``ANY_TAG`` passes where ``wildcard`` allows it."""
    if not (0 <= tag < Tags.COLLECTIVE_BASE or (wildcard and tag == ANY_TAG)):
        raise CommunicatorError(
            f"tag {tag} is outside the user range [0, {Tags.COLLECTIVE_BASE})"
        )


class Communicator:
    """One rank's endpoint in an SPMD run (cf. ``MPI_COMM_WORLD``)."""

    def __init__(self, world: _World, rank: int, engine: Engine) -> None:
        self._world = world
        self._engine = engine
        self._rank = rank
        self._generation = 0
        # Armed only when a FaultPlan is active; cached so the fault-free
        # send path pays exactly one `is not None` check.
        self._injector: FaultInjector | None = getattr(world, "injector", None)
        # True when a send may deliver a copy instead of a frame.
        self._copies = engine.delivers_copies(world)

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank in [0, size)."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of ranks in the run."""
        return self._world.nranks

    @property
    def stats(self) -> CommStats:
        """This rank's :class:`~repro.simmpi.instrument.CommStats`."""
        stats: CommStats = self._world.stats[self._rank]
        return stats

    @property
    def fault_plan(self) -> FaultPlan | None:
        """The active :class:`~repro.faults.FaultPlan`, or None."""
        plan: FaultPlan | None = getattr(self._world, "fault_plan", None)
        return plan

    @property
    def fault_injector(self) -> FaultInjector | None:
        """The active :class:`~repro.faults.FaultInjector`, or None."""
        return self._injector

    @property
    def probe_yields(self) -> bool:
        """True when an empty probe yields the rank's turn (cooperative
        engine), so resilient retry loops need no wall-clock sleeps."""
        return bool(getattr(self._engine, "PROBE_YIELDS", False))

    @property
    def receive_timeout(self) -> float | None:
        """Seconds a blocking receive may wait before the engine fails it
        with :class:`~repro.errors.DeadlockError`; None when the engine
        detects deadlock itself (cooperative)."""
        timeout: float | None = self._engine.timeout
        return timeout

    # ------------------------------------------------------------------
    # point to point
    # ------------------------------------------------------------------
    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        """Deliver ``payload`` to ``dest`` under ``tag`` (non-blocking).

        The payload crosses the communicator boundary as a wire frame,
        or on an in-memory engine as the deep copy decoding that frame
        would give (:func:`~repro.simmpi.wire.frame_copy`): the receiver
        always gets an independent copy (copy-on-send, on every
        engine), and the stats ledger records the frame's exact encoded
        length.  Self-sends are legal (the message lands in this rank's
        own mailbox).
        """
        _check_tag(tag, wildcard=False)
        self._send(dest, payload, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Message:
        """Block until a matching message arrives; remove and return it."""
        _check_tag(tag, wildcard=True)
        return self._recv(source, tag)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Message | None:
        """Non-blocking probe: the first matching message, left in place.

        Mirrors ``MPI_Iprobe`` — the universal heuristic exists precisely to
        avoid this call, so the driver uses it only in non-universal mode.
        """
        _check_tag(tag, wildcard=True)
        return self._receive(self._engine.probe, source, tag)

    def take_queued(
        self, source: int = ANY_SOURCE, tags: Sequence[int] = ()
    ) -> list[Message]:
        """Remove and return every message under one of ``tags`` that
        has *already been delivered*, in one mailbox scan: grouped in the
        order of ``tags``, each group in arrival order.

        The drain primitive: unlike :meth:`iprobe` it never blocks and
        never gives up the turn, hit or miss, on any engine, so a server
        can empty its mailbox of queued requests in one go; an empty
        list when nothing is queued.  ``tags`` are user tags, none a
        wildcard.
        """
        tags = tuple(tags)
        for tag in tags:
            _check_tag(tag, wildcard=False)
        return self._take(source, tags)

    def split(self, color: int) -> SubCommunicator:
        """Partition the world by ``color`` (cf. ``MPI_Comm_split``).

        Collective.  Returns this rank's group as a
        :class:`~repro.simmpi.subcomm.SubCommunicator` with dense local
        ranks in world-rank order; a group has every verb and collective
        of this class.
        """
        from repro.simmpi.subcomm import split as _split

        return _split(self, color)

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise CommunicatorError(
                f"peer rank {peer} out of range for size {self.size}"
            )

    # ------------------------------------------------------------------
    # the internal point-to-point path (any tag; groups override it)
    # ------------------------------------------------------------------
    def _send(self, dest: int, payload: Any, tag: int) -> None:
        """Account and deliver one frame: a copy of what it would decode
        to where the engine takes copies, else the encoded frame."""
        self._check_peer(dest)
        if self._injector is not None:
            self._injector.at_event(self._rank)
        if self._copies:
            sized = wire.frame_copy(payload)
            if sized is not None:
                nbytes, value = sized
                self.stats.record_send(tag, dest, nbytes)
                self._engine.deliver(self._world, self._rank, dest,
                                     Message(self._rank, tag, value))
                return
        frame = wire.encode_frame(self._rank, tag, payload)
        self.stats.record_send(tag, dest, len(frame))
        self._engine.deposit(self._world, self._rank, dest, frame)

    def _receive(self, call: Receive, source: int, tag: int) -> Message | None:
        """``call`` — the engine's ``wait_message`` or ``probe`` — on
        this rank's mailbox."""
        return call(self._world, self._rank, source, tag)

    def _take(self, source: int, tags: tuple[int, ...]) -> list[Message]:
        """:meth:`take_queued` on the internal path."""
        return self._engine.take_queued(self._world, self._rank, source, tags)

    def _recv(self, source: int, tag: int) -> Message:
        """Blocking receive on the internal path."""
        # wait_message returns a message or raises.
        return cast(Message, self._receive(self._engine.wait_message, source, tag))

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _next_tag(self) -> int:
        tag = Tags.COLLECTIVE_BASE + self._generation
        self._generation += 1
        return tag

    def barrier(self) -> None:
        """Block until every rank has entered the barrier."""
        tag = self._next_tag()
        if self._rank == 0:
            for _ in range(self.size - 1):
                self._recv(ANY_SOURCE, tag)
            for dest in range(1, self.size):
                self._send(dest, None, tag)
        else:
            self._send(0, None, tag)
            self._recv(0, tag)

    def alltoallv(self, chunks: Sequence[Any]) -> list[Any]:
        """Exchange one chunk with every rank (cf. ``MPI_Alltoallv``).

        ``chunks[d]`` goes to rank ``d``; the result's element ``s`` is the
        chunk rank ``s`` addressed to this rank.  Chunks are typically
        numpy arrays but any payload works.
        """
        if len(chunks) != self.size:
            raise RankMismatchError(
                f"alltoallv needs exactly {self.size} chunks, got {len(chunks)}"
            )
        tag = self._next_tag()
        out: list[Any] = [None] * self.size
        for dest in range(self.size):
            if dest == self._rank:
                # Self-delivery never crosses an engine but must behave
                # as if it had: the wire's copy is the exact semantics.
                out[dest] = wire.clone(chunks[dest])
            else:
                self._send(dest, chunks[dest], tag)
        for _ in range(self.size - 1):
            msg = self._recv(ANY_SOURCE, tag)
            out[msg.source] = msg.payload
        return out

    def allgather(self, value: Any) -> list[Any]:
        """Every rank's ``value``, indexed by rank (cf. ``MPI_Allgatherv``)."""
        return self.alltoallv([value] * self.size)

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Collect every rank's value at ``root`` (None elsewhere)."""
        self._check_peer(root)
        tag = self._next_tag()
        if self._rank == root:
            out: list[Any] = [None] * self.size
            out[root] = value
            for _ in range(self.size - 1):
                msg = self._recv(ANY_SOURCE, tag)
                out[msg.source] = msg.payload
            return out
        self._send(root, value, tag)
        return None

    def bcast(self, value: Any, root: int = 0) -> Any:
        """Root's value on every rank."""
        self._check_peer(root)
        tag = self._next_tag()
        if self._rank == root:
            for dest in range(self.size):
                if dest != root:
                    self._send(dest, value, tag)
            return value
        return self._recv(root, tag).payload

    def reduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = lambda a, b: a + b,
        root: int = 0,
    ) -> Any | None:
        """Fold every rank's value at ``root`` (cf. ``MPI_Reduce``)."""
        gathered = self.gather(value, root=root)
        if gathered is None:
            return None
        acc = gathered[0]
        for v in gathered[1:]:
            acc = op(acc, v)
        return acc

    def allreduce(
        self, value: Any, op: Callable[[Any, Any], Any] = lambda a, b: a + b
    ) -> Any:
        """Fold every rank's value, result on all ranks."""
        reduced = self.reduce(value, op=op, root=0)
        return self.bcast(reduced, root=0)
