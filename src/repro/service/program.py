"""The persistent serving loop and its command wire.

One :class:`ServingProgram` is the whole backend fleet: ``run_spmd``
runs it on every rank, and it serves commands until told to shut down.
The control path is deliberately in-band:

* two **queues** (thread queues in-process, spawn-context
  ``multiprocessing`` ones across the process engine's boundary) carry
  commands from the front-end to *rank 0 only* and its answers back —
  it is the one rank that talks to the outside world;
* rank 0 **relays** each command as a normal tagged message
  (:data:`SERVICE_CMD_TAG`) — of an op's block, each rank is sent only
  the rows it holds — so command delivery obeys the same transport,
  accounting and fault injection as every other frame.  A correct
  command goes to the ranks of its **window** alone (the ``parts``
  ranks from ``first`` that the relay carries); ingest, checkpoint and
  shutdown go to every rank;
* every rank **waits** for its next command in its Step IV pump, as
  the paper's communication thread serves lookups the whole time, so a
  rank outside a round's window answers the window's requests and does
  nothing else for that round;
* a rank executes a command through the shared
  :class:`~repro.parallel.session.SessionOpRunner` — the service layer
  never touches spectrum state except through the
  :class:`~repro.parallel.session.CorrectionSession` verbs.

A correct round runs on its window: its ranks correct, terminate among
themselves (DONE/SHUTDOWN rooted at the window's first rank; a one-rank
window sends no handshake frame), and each sends its slice to rank 0
(:data:`SERVICE_RESULT_TAG`), which serves from its own pump until the
slices are in, then posts the merged round on the answer queue.  Rank 0
takes slices for the whole round, its own correct included: when rank 0
is a window rank but not its root, a peer the root released first may
send its slice before the root's SHUTDOWN reaches rank 0.  Only a
collective placement (load balancing over more than one rank) calls on
the other ranks, which join its alltoallv and go back to serving.  A
crash round's window is the whole fleet, and its gather skips the ranks
the fault plan dooms (a partner's slice carries its dead ward's
replayed reads).  Rank 0 relays the next command only after the
gather, so no handshake or result frame of one round is still in flight
when the next begins.

Command frames are wire-codable tuples (no dicts — MPI006): the head is
the verb name, then the sequence number, then the verb's payload.
"""

from __future__ import annotations

import queue
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.config import ReptileConfig
from repro.core.corrector import CorrectionResult
from repro.errors import ServiceError, SessionError
from repro.io.partition import slice_bounds
from repro.io.records import ReadBlock
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.loadbalance import redistribute_reads
from repro.parallel.session import (
    CheckpointOp,
    CorrectionSession,
    CorrectOp,
    IngestOp,
    SessionOpRunner,
    SessionRankReport,
)
from repro.simmpi.communicator import Communicator

#: Service control tags.  1-15 are the correction protocol's, 16/17 the
#: dynamic balancer's; the service claims the next two.
SERVICE_CMD_TAG = 18
SERVICE_RESULT_TAG = 19


# ----------------------------------------------------------------------
# wire helpers (tuples of arrays/scalars only — wire-codable, MPI006)
# ----------------------------------------------------------------------
def encode_result(result: CorrectionResult) -> tuple:
    """One rank's correct-round outcome as a RESULT frame payload."""
    return (
        *result.block.to_wire(),
        result.corrections_per_read,
        result.reads_reverted.astype(np.uint8),
        int(result.tiles_examined),
        int(result.tiles_below_threshold),
    )


def merge_results(parts: list[tuple]) -> tuple:
    """Fold every live rank's RESULT frame into one id-ordered round.

    Each rank corrected an arbitrary slice of the round's reads (load
    balancing may have moved them), so the merge is a concat + stable
    sort by read id; corrected codes are invariant to which rank held a
    read, so the merged round is bit-identical to any other execution
    order."""
    merged = ReadBlock.concat(ReadBlock.from_wire(p[:4]) for p in parts)
    corrections = np.concatenate([p[4] for p in parts])
    reverted = np.concatenate([p[5] for p in parts])
    order = np.argsort(merged.ids, kind="stable")
    merged = merged.select(order)
    return (
        *merged.to_wire(),
        corrections[order],
        reverted[order],
        int(sum(p[6] for p in parts)),
        int(sum(p[7] for p in parts)),
    )


# ----------------------------------------------------------------------
# the serving loop
# ----------------------------------------------------------------------
@dataclass
class ServingProgram:
    """The SPMD rank program of a long-lived correction service.

    Commands (wire-codable tuples):

    * ``("ingest", seq, ids, codes, lengths, quals)``
    * ``("correct", seq, ids, codes, lengths, quals)``
    * ``("checkpoint", seq, directory)``
    * ``("shutdown",)``

    That is what the command queue carries.  On the relay a block
    command becomes ``(kind, seq, parts, first, ids, codes, lengths,
    quals)``: the op's window — ``parts`` ranks from rank ``first``
    (:meth:`_window`) — and only the rows the receiving rank holds
    (:meth:`_relay`).  A correct goes to its window's ranks alone; every
    other command to every rank.  When the command queue stays quiet,
    rank 0 relays ``("idle",)`` instead (see :meth:`_next_command`).

    A rank waits for its next command in its Step IV pump
    (:meth:`_await`), serving every lookup that reaches it, so a rank
    outside a round's window is a pure server for that round and books
    no op for it.

    Every command is acknowledged on the answer queue as ``(seq,
    payload)`` once rank 0 has completed it (``payload`` is the merged round for a
    correct, else ``None``); shutdown is acknowledged by the
    fleet's ``run_spmd`` return value itself — each rank's
    :class:`~repro.parallel.session.SessionRankReport`."""

    config: ReptileConfig
    heuristics: HeuristicConfig
    #: Front-end -> rank 0: the commands, read by rank 0 alone.
    commands: Any
    #: Rank 0 -> front-end: one ``(seq, payload)`` answer a command.
    answers: Any
    resume_dir: str | None = None

    def __call__(self, comm: Communicator) -> SessionRankReport:
        if self.resume_dir is not None:
            session = CorrectionSession.resume(
                comm, self.config, self.heuristics, self.resume_dir
            )
        else:
            session = CorrectionSession(comm, self.config, self.heuristics)
        runner = SessionOpRunner(session)
        turn = 0  # rank 0: the ops relayed so far (they turn the window)
        with session:
            while True:
                if comm.rank == 0:
                    cmd = self._next_command(comm)
                    # Sends are buffered, so a peer a crash fault has
                    # already killed is relayed to as well: its frames
                    # simply go unread, and the session contract (a
                    # crash round is the session's last collective)
                    # guarantees nothing after the crash waits on it.
                    with runner.timer.phase("read_input"):
                        relayed = self._relay(cmd, turn, comm)
                    for peer in range(1, comm.size):
                        if relayed[peer] is not None:
                            comm.send(peer, relayed[peer], SERVICE_CMD_TAG)
                    cmd = relayed[0]
                    turn += cmd[0] in ("ingest", "correct", "checkpoint")
                else:
                    cmd = self._await(session)
                kind = cmd[0]
                if kind == "shutdown":
                    break
                if kind == "idle":
                    continue
                seq = int(cmd[1])
                if kind == "ingest":
                    # Every rank ingests, and the op's finalize runs on
                    # every rank: no correct round needs a collective.
                    runner.run_op(IngestOp(self._place(runner, cmd)), seq)
                elif kind == "correct":
                    self._correct(runner, cmd, seq)
                elif kind == "checkpoint":
                    runner.run_op(CheckpointOp(str(cmd[2])), seq)
                else:
                    raise ServiceError(
                        f"unknown service command {kind!r} on rank "
                        f"{comm.rank}"
                    )
                if comm.rank == 0 and kind != "correct":
                    self.answers.put((seq, None))
            return runner.report()

    def _next_command(self, comm: Communicator) -> tuple:
        """Rank 0: the next queued command, or ``("idle",)`` when none
        comes within half the fleet's receive timeout.

        The peers wait in a receive meanwhile; relaying the no-op to
        every one of them ends each standing pump before it times out.
        It runs no op, so the placement window stays put."""
        timeout = comm.receive_timeout
        try:
            return self.commands.get(
                timeout=None if timeout is None else timeout / 2
            )
        except queue.Empty:
            return ("idle",)

    @staticmethod
    def _await(session: CorrectionSession) -> tuple:
        """A peer's next relayed command, served for from the rank's
        Step IV pump meanwhile.  Before the first ingest there is
        nothing to serve: a plain receive."""
        protocol = session.endpoint()
        if protocol is None:
            return session.comm.recv(0, SERVICE_CMD_TAG).payload
        return protocol.serve_until(SERVICE_CMD_TAG, 1)[0].payload

    # ------------------------------------------------------------------
    # placement: decided here, where a block enters the fleet
    # ------------------------------------------------------------------
    def _window(
        self, n_reads: int, turn: int, comm: Communicator
    ) -> tuple[int, int]:
        """Grain-aware placement of op ``turn``'s block: ``(parts, first)``.

        A block is never cut below the chunk grain: it goes to
        ``parts = min(P, ceil(n_reads / chunk_size))`` ranks — a round
        no larger than one chunk is corrected by one rank against P-1
        shard servers, so each dependent lookup step costs ``parts x
        owners`` request frames instead of ``P x owners`` nearly empty
        ones — and any block of more than (P-1) chunks is placed on all
        P, as a batch run places its dataset.  The window of ``parts``
        ranks starts at rank ``first``, which advances with the op
        index, so small rounds take turns over the fleet.

        Under a fault plan that dooms ranks the window is the whole
        fleet: a crash round needs every rank (its state replication is
        collective, and a dead rank's partner replays its reads).
        """
        size = comm.size
        plan = comm.fault_plan
        if plan is not None and plan.doomed_ranks():
            return size, 0
        parts = max(1, min(size, -(-n_reads // self.config.chunk_size)))
        return parts, turn * parts % size

    def _collective(self, parts: int) -> bool:
        """Is a window's placement the world's alltoallv?  (Load
        balancing over more than one rank: :func:`redistribute_reads`.)"""
        return self.heuristics.load_balance and parts > 1

    def _relay(
        self, cmd: tuple, turn: int, comm: Communicator
    ) -> list[tuple | None]:
        """The command as each rank is sent it (indexed by rank; ``None``
        for a rank it does not go to).

        Of op ``turn``'s block a rank is shipped the op's window and
        only the rows it holds before load balancing: its contiguous
        slice of the window, an empty range outside it.  A correct goes
        to the window's ranks only — unless its placement is collective,
        when every rank joins the exchange — and rank 0 always keeps its
        copy, as it gathers the round.  Other commands relay as they
        are, to every rank."""
        size = comm.size
        if cmd[0] not in ("ingest", "correct"):
            return [cmd] * size
        block = ReadBlock.from_wire(cmd[-4:])
        parts, first = self._window(len(block), turn, comm)
        bounds = slice_bounds(len(block), parts)
        rows = [(0, 0)] * size
        for position in range(parts):
            rows[(first + position) % size] = (
                bounds[position], bounds[position + 1]
            )
        everyone = cmd[0] == "ingest" or self._collective(parts)
        return [
            (*cmd[:2], parts, first, *block.slice(lo, hi).to_wire())
            if rank == 0 or everyone or (rank - first) % size < parts
            else None
            for rank, (lo, hi) in enumerate(rows)
        ]

    def _place(self, runner: SessionOpRunner, cmd: tuple) -> ReadBlock:
        """The reads of a relayed block command this rank works on: its
        share or — when the op's placement is collective — the reads of
        the block whose content hash it owns."""
        share = ReadBlock.from_wire(cmd[-4:])
        parts, first = int(cmd[2]), int(cmd[3])
        if self._collective(parts):
            with runner.timer.phase("load_balance"):
                return redistribute_reads(runner.comm, share, parts, first)
        return share

    # ------------------------------------------------------------------
    # a correct round: the window corrects, rank 0 gathers
    # ------------------------------------------------------------------
    def _correct(self, runner: SessionOpRunner, cmd: tuple, seq: int) -> None:
        """Run correct command ``seq`` on this rank.

        A window rank corrects its reads — the window's first rank roots
        the round's DONE/SHUTDOWN handshake, which a one-rank window
        skips — and ships its slice to rank 0.  A rank outside the
        window only joins a collective placement, then goes back to
        serving.  Rank 0 takes the slices from the moment the round
        opens — a peer that leaves the handshake before rank 0 does may
        send its slice while rank 0 still pumps in its own round — and
        serves from its pump until every live window peer's slice is in
        (ranks the fault plan dooms are skipped: their partners' slices
        carry their replayed reads), then merges and answers on the
        answer queue.  That gather is also what makes the next relay
        safe: every window rank has left its round first."""
        comm = runner.comm
        parts, first = int(cmd[2]), int(cmd[3])
        window = tuple((first + i) % comm.size for i in range(parts))
        reads = self._place(runner, cmd)
        if comm.rank != 0:
            if comm.rank in window:
                result = runner.run_op(CorrectOp(reads), seq, window)
                assert result is not None
                comm.send(0, encode_result(result), SERVICE_RESULT_TAG)
            return
        protocol = runner.session.endpoint()
        if protocol is None:
            raise SessionError(
                "a correct command before the first ingest: the fleet "
                "has no spectrum to serve"
            )
        plan = comm.fault_plan
        doomed = plan.doomed_ranks() if plan is not None else frozenset()
        peers = [r for r in window if r != 0 and r not in doomed]
        slices: dict[int, tuple] = {}
        with protocol.taking(SERVICE_RESULT_TAG) as arrived:
            if 0 in window:
                result = runner.run_op(CorrectOp(reads), seq, window)
                assert result is not None
                slices[0] = encode_result(result)
            while len(arrived) < len(peers):
                protocol.pump(block=True)
        for msg in arrived:
            slices[msg.source] = msg.payload
        self.answers.put(
            (seq, merge_results([slices[r] for r in sorted(slices)]))
        )


__all__ = [
    "SERVICE_CMD_TAG",
    "SERVICE_RESULT_TAG",
    "ServingProgram",
    "encode_result",
    "merge_results",
]
