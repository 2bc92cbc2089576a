"""The per-rank communicator: tagged p2p plus MPI-style collectives.

All collectives are built on the engine's point-to-point layer with
reserved tags.  Each collective call consumes one *generation* number per
rank; SPMD programs invoke collectives in the same order on every rank
(the MPI contract), so generations line up and messages from different
collectives can never cross-match even when buffered out of order.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import CommunicatorError, RankMismatchError
from repro.simmpi import wire
from repro.simmpi.instrument import CommStats
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Message, Tags


class Communicator:
    """One rank's endpoint in an SPMD run (cf. ``MPI_COMM_WORLD``)."""

    def __init__(self, world, rank: int, engine) -> None:
        self._world = world
        self._engine = engine
        self._rank = rank
        self._generation = 0
        # Armed only when a FaultPlan is active; cached so the fault-free
        # send path pays exactly one `is not None` check.
        self._injector = getattr(world, "injector", None)

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
    def fault_plan(self):
        """The active :class:`~repro.faults.FaultPlan`, or None."""
        return getattr(self._world, "fault_plan", None)

    @property
    def fault_injector(self):
        """The active :class:`~repro.faults.FaultInjector`, or None."""
        return self._injector

    @property
    def probe_yields(self) -> bool:
        """True when an empty probe yields the rank's turn (cooperative
        engine), so resilient retry loops need no wall-clock sleeps."""
        return getattr(self._engine, "PROBE_YIELDS", False)

    # ------------------------------------------------------------------
    # point to point
    # ------------------------------------------------------------------
    def send(self, dest: int, payload: Any, tag: int = 0) -> None:
        """Deliver ``payload`` to ``dest`` under ``tag`` (non-blocking).

        The payload is encoded to a wire frame here, at the communicator
        boundary: the receiver always gets an independent deep copy
        (copy-on-send, on every engine), and the stats ledger records
        the frame's exact encoded length.  Self-sends are legal (the
        message lands in this rank's own mailbox).
        """
        self._check_peer(dest)
        if tag < 0:
            raise CommunicatorError(f"tag must be non-negative, got {tag}")
        if self._injector is not None:
            self._injector.at_event(self._rank)
        frame = wire.encode_frame(self._rank, tag, payload)
        self.stats.record_send(tag, payload, dest=dest, nbytes=len(frame))
        self._engine.deposit(self._world, self._rank, dest, frame)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Message:
        """Block until a matching message arrives; remove and return it."""
        return self._engine.wait_message(self._world, self._rank, source, tag)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Message | None:
        """Non-blocking probe: the first matching message, left in place.

        Mirrors ``MPI_Iprobe`` — the universal heuristic exists precisely to
        avoid this call, so the driver uses it only in non-universal mode.
        """
        return self._engine.probe(self._world, self._rank, source, tag)

    def take_ready(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Message | None:
        """Remove and return a matching message that has *already been
        delivered*, else None — at once, without giving up the turn.

        The drain primitive: unlike :meth:`iprobe` a miss costs no
        scheduler hand-off on any engine, so a server can empty its
        mailbox of queued requests in one go.
        """
        return self._engine.take_ready(self._world, self._rank, source, tag)

    def isend(self, dest: int, payload: Any, tag: int = 0):
        """Nonblocking send; completes at issue (sends are buffered)."""
        from repro.simmpi.request import SendRequest

        self.send(dest, payload, tag=tag)
        return SendRequest()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Post a nonblocking receive; returns a testable/waitable request."""
        from repro.simmpi.request import RecvRequest

        return RecvRequest(self, source, tag)

    def split(self, color: int):
        """Partition the world by ``color`` (cf. ``MPI_Comm_split``).

        Collective.  Returns this rank's group as a
        :class:`~repro.simmpi.subcomm.SubCommunicator` with dense local
        ranks in world-rank order.
        """
        from repro.simmpi.subcomm import split as _split

        return _split(self, color)

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise CommunicatorError(
                f"peer rank {peer} out of range for size {self.size}"
            )

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
                self.recv(source=ANY_SOURCE, tag=tag)
            for dest in range(1, self.size):
                self.send(dest, None, tag=tag)
        else:
            self.send(0, None, tag=tag)
            self.recv(source=0, tag=tag)

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
                # as if it had: a wire round-trip is the exact semantics.
                out[dest] = wire.clone(chunks[dest])
            else:
                self.send(dest, chunks[dest], tag=tag)
        for _ in range(self.size - 1):
            msg = self.recv(source=ANY_SOURCE, tag=tag)
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
                msg = self.recv(source=ANY_SOURCE, tag=tag)
                out[msg.source] = msg.payload
            return out
        self.send(root, value, tag=tag)
        return None

    def bcast(self, value: Any, root: int = 0) -> Any:
        """Root's value on every rank."""
        self._check_peer(root)
        tag = self._next_tag()
        if self._rank == root:
            for dest in range(self.size):
                if dest != root:
                    self.send(dest, value, tag=tag)
            return value
        return self.recv(source=root, tag=tag).payload

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
