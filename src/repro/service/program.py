"""The persistent serving loop and its command wire.

One :class:`ServingProgram` is the whole backend fleet: ``run_spmd``
runs it on every rank, and it serves commands until told to shut down.
The control path is deliberately in-band:

* the **channel** (:class:`CommandChannel`, over thread queues
  in-process or spawn-safe ones across the process engine's boundary)
  carries commands from the front-end to *rank 0 only* — it is the one
  rank that talks to the outside world;
* rank 0 **relays** each command to the other live ranks as a normal
  tagged message (:data:`SERVICE_CMD_TAG`) — of an op's block, each
  rank is sent only the rows it holds — so command delivery obeys
  the same transport, accounting and fault injection as every other
  frame, and the cooperative engine's turn-taking sees peers blocked in
  an ordinary ``recv`` with a pending sender;
* every rank then executes the command through the shared
  :class:`~repro.parallel.session.SessionOpRunner` — the service layer
  never touches spectrum state except through the
  :class:`~repro.parallel.session.CorrectionSession` verbs.

Every correct command gathers per-rank results back to rank 0
(:data:`SERVICE_RESULT_TAG`), which posts the merged round up the
channel; a crash round too, from the ranks the fault plan does not doom
(a partner's result carries its dead ward's replayed reads).  A peer
sends its result only after leaving the round's DONE/SHUTDOWN
handshake, and rank 0 relays the next command only after the gather, so
no control frame ever arrives at a rank that is still pumping.

Command frames are wire-codable tuples (no dicts — MPI006): the head is
the verb name, then the sequence number, then the verb's payload.
"""

from __future__ import annotations

import queue
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.config import ReptileConfig
from repro.core.corrector import CorrectionResult
from repro.errors import ServiceError
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
# command channels
# ----------------------------------------------------------------------
class CommandChannel:
    """Front-end <-> rank 0 command/result queues.

    ``make_queue`` builds the two queues: :class:`queue.Queue` for the
    in-process engines, a spawn-context ``multiprocessing.Queue`` for the
    process engine, which ships the serving program (channel included)
    to each child through ``Process(args=...)`` — the supported way to
    move an ``mp.Queue`` across the spawn boundary."""

    def __init__(self, make_queue: Callable[[], Any]) -> None:
        self._commands = make_queue()
        self._results = make_queue()

    def submit(self, command: tuple) -> None:
        """Front-end side: enqueue one command for rank 0."""
        self._commands.put(command)

    def next_command(self, timeout: float | None = None) -> tuple:
        """Rank 0 side: the next command (raises ``queue.Empty`` when
        none arrives within ``timeout`` seconds)."""
        return self._commands.get(timeout=timeout)

    def post_result(self, result: tuple) -> None:
        """Rank 0 side: answer a command up the channel."""
        self._results.put(result)

    def next_result(self, timeout: float | None = None) -> tuple:
        """Front-end side: next answer (raises ``queue.Empty`` on
        timeout, so the caller can interleave liveness checks)."""
        return self._results.get(timeout=timeout)


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

    That is what the channel carries.  On the relay a block command
    becomes ``(..., total, ids, codes, lengths, quals)``: the block's
    read count and only the rows the receiving rank holds
    (:meth:`_shares`) — a rank outside a small round's window gets the
    count and four empty arrays.  When the channel stays quiet, rank 0
    relays ``("idle",)`` instead (see :meth:`_next_command`).

    Every command is acknowledged up the channel as ``(seq, payload)``
    once rank 0 has completed it (``payload`` is the merged round for a
    correct, else ``None``); shutdown is acknowledged by the
    fleet's ``run_spmd`` return value itself — each rank's
    :class:`~repro.parallel.session.SessionRankReport`."""

    config: ReptileConfig
    heuristics: HeuristicConfig
    channel: Any
    resume_dir: str | None = None

    def __call__(self, comm: Communicator) -> SessionRankReport:
        if self.resume_dir is not None:
            session = CorrectionSession.resume(
                comm, self.config, self.heuristics, self.resume_dir
            )
        else:
            session = CorrectionSession(comm, self.config, self.heuristics)
        runner = SessionOpRunner(session)
        with session:
            while True:
                if comm.rank == 0:
                    cmd = self._next_command(comm)
                    # Relay to every peer, even one a crash fault has
                    # already killed: sends are buffered, a dead rank's
                    # frames simply go unread, and the session contract
                    # (a crash round is the session's last collective)
                    # guarantees nothing after the crash waits on it.
                    with runner.timer.phase("read_input"):
                        shares = self._shares(cmd, runner.ops_run, comm.size)
                    for peer in range(1, comm.size):
                        comm.send(peer, shares[peer], SERVICE_CMD_TAG)
                    cmd = shares[0]
                else:
                    cmd = comm.recv(0, SERVICE_CMD_TAG).payload
                kind = cmd[0]
                if kind == "shutdown":
                    break
                if kind == "idle":
                    continue
                seq = int(cmd[1])
                if kind == "ingest":
                    runner.run_op(IngestOp(self._place(runner, cmd)))
                    if comm.rank == 0:
                        self.channel.post_result((seq, None))
                elif kind == "correct":
                    result = runner.run_op(CorrectOp(self._place(runner, cmd)))
                    self._gather(comm, result, seq)
                elif kind == "checkpoint":
                    runner.run_op(CheckpointOp(str(cmd[2])))
                    if comm.rank == 0:
                        self.channel.post_result((seq, None))
                else:
                    raise ServiceError(
                        f"unknown service command {kind!r} on rank "
                        f"{comm.rank}"
                    )
            return runner.report()

    def _next_command(self, comm: Communicator) -> tuple:
        """Rank 0: the channel's next command, or ``("idle",)`` when none
        comes within half the fleet's receive timeout.

        The peers wait in a receive meanwhile; relaying the no-op keeps
        an idle fleet from timing out there.  It runs no op, so the
        placement window (which turns by ``ops_run``) stays put."""
        timeout = comm.receive_timeout
        try:
            return self.channel.next_command(
                None if timeout is None else timeout / 2
            )
        except queue.Empty:
            return ("idle",)

    # ------------------------------------------------------------------
    # placement: decided here, where a block enters the fleet
    # ------------------------------------------------------------------
    def _window(self, n_reads: int, turn: int, size: int) -> tuple[int, int]:
        """Grain-aware placement of op ``turn``'s block: ``(parts, first)``.

        A block is never cut below the chunk grain: it goes to
        ``parts = min(P, ceil(n_reads / chunk_size))`` ranks — a round
        no larger than one chunk is corrected by one rank against P-1
        shard servers, so each dependent lookup step costs ``parts x
        owners`` request frames instead of ``P x owners`` nearly empty
        ones — and any block of more than (P-1) chunks is placed on all
        P, as a batch run places its dataset.  The window of ``parts``
        ranks starts at rank ``first``, which advances with the op
        index, so small rounds take turns over the fleet.  All inputs
        are the same on every rank: no collective needed.
        """
        parts = max(1, min(size, -(-n_reads // self.config.chunk_size)))
        return parts, turn * parts % size

    def _shares(self, cmd: tuple, turn: int, size: int) -> list[tuple]:
        """The command as each rank needs it (indexed by rank).

        Of op ``turn``'s block a rank is shipped the block's read count
        (which fixes the placement on every rank) and only the rows it
        holds before load balancing: its contiguous slice of the
        window, an empty range outside it.  Other commands relay as
        they are."""
        if cmd[0] not in ("ingest", "correct"):
            return [cmd] * size
        block = ReadBlock.from_wire(cmd[-4:])
        parts, first = self._window(len(block), turn, size)
        bounds = slice_bounds(len(block), parts)
        rows = [(0, 0)] * size
        for position in range(parts):
            rows[(first + position) % size] = (
                bounds[position], bounds[position + 1]
            )
        return [
            (*cmd[:-4], len(block), *block.slice(lo, hi).to_wire())
            for lo, hi in rows
        ]

    def _place(self, runner: SessionOpRunner, cmd: tuple) -> ReadBlock:
        """The reads of a relayed block command this rank works on: its
        share or — under load balancing, when the op's window is more
        than one rank — the reads of the block whose content hash it
        owns."""
        share, total = ReadBlock.from_wire(cmd[-4:]), int(cmd[-5])
        comm = runner.comm
        parts, first = self._window(total, runner.ops_run, comm.size)
        if self.heuristics.load_balance and parts > 1:
            with runner.timer.phase("load_balance"):
                return redistribute_reads(comm, share, parts, first)
        return share

    def _gather(
        self, comm: Communicator, result: CorrectionResult, seq: int
    ) -> None:
        """Collect the round: peers ship their slice to rank 0, which
        merges and answers the channel.  Ranks the fault plan dooms are
        skipped — their partners' slices carry their replayed reads.
        The rank-ordered receive is also the synchronization point that
        makes the next command relay safe — every live rank has left its
        round before rank 0 can possibly relay again."""
        if comm.rank != 0:
            comm.send(0, encode_result(result), SERVICE_RESULT_TAG)
            return
        plan = comm.fault_plan
        doomed = plan.doomed_ranks() if plan is not None else frozenset()
        parts = [encode_result(result)] + [
            comm.recv(peer, SERVICE_RESULT_TAG).payload
            for peer in range(1, comm.size)
            if peer not in doomed
        ]
        self.channel.post_result((seq, merge_results(parts)))


__all__ = [
    "CommandChannel",
    "SERVICE_CMD_TAG",
    "SERVICE_RESULT_TAG",
    "ServingProgram",
    "encode_result",
    "merge_results",
]
