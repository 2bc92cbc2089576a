"""The backend fleet handle: one thread, one ``run_spmd``, one channel.

:class:`ServiceExecutor` owns everything below the asyncio front-end:
it picks the right command channel for the engine, starts the
persistent :class:`~repro.service.program.ServingProgram` fleet on a
background thread, and exposes blocking command/await primitives the
front-end drives from ``run_in_executor``.  Errors raised anywhere in
the fleet (a bad checkpoint resume, a deadlock, a verifier audit)
surface on the next :meth:`await_result` or :meth:`shutdown` with their
original type intact.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading

from repro.config import ReptileConfig
from repro.errors import ServiceError
from repro.io.records import ReadBlock
from repro.parallel.heuristics import HeuristicConfig
from repro.service.program import CommandChannel, ServingProgram
from repro.simmpi.engine import ProcessEngine, run_spmd

#: How often a blocked await wakes to check that the fleet is alive.
_POLL_SECONDS = 0.2


def _needs_process_channel(engine) -> bool:
    """Process engines cross an address space; only ``mp.Queue`` does."""
    return engine == "process" or isinstance(engine, ProcessEngine)


class ServiceExecutor:
    """A running correction fleet, addressed by sequence numbers.

    Construction starts the fleet immediately; every ``ingest`` /
    ``correct`` / ``checkpoint`` call enqueues one command and returns
    its sequence number, :meth:`await_result` blocks for a specific
    answer, and :meth:`shutdown` drains the fleet and returns the
    :class:`~repro.simmpi.engine.SpmdResult` of the whole serving run
    (per-rank session reports plus traffic ledgers)."""

    def __init__(
        self,
        config: ReptileConfig,
        heuristics: HeuristicConfig,
        nranks: int,
        *,
        engine="cooperative",
        comm_thread: bool = False,
        verify: bool = False,
        faults=None,
        resume_dir: str | None = None,
        capture_spectrum: bool = False,
    ) -> None:
        self.nranks = nranks
        self.engine = engine
        self.verify = verify
        self.faults = faults
        self.channel = CommandChannel(
            multiprocessing.get_context("spawn").Queue
            if _needs_process_channel(engine)
            else queue.Queue
        )
        self.program = ServingProgram(
            config=config,
            heuristics=heuristics,
            channel=self.channel,
            comm_thread=comm_thread,
            resume_dir=resume_dir,
            capture_spectrum=capture_spectrum,
        )
        self._seq = 0
        self._outcome = None
        self._error: BaseException | None = None
        self._shut_down = False
        self._thread = threading.Thread(
            target=self._run, name="repro-service-fleet", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            self._outcome = run_spmd(
                self.program, self.nranks,
                engine=self.engine, verify=self.verify, faults=self.faults,
            )
        except BaseException as exc:  # surfaced by await_result/shutdown
            self._error = exc

    @property
    def alive(self) -> bool:
        """Is the fleet still serving (thread running, no error)?"""
        return self._thread.is_alive() and self._error is None

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # ------------------------------------------------------------------
    # commands (front-end side; each returns its sequence number)
    # ------------------------------------------------------------------
    def ingest(self, block: ReadBlock) -> int:
        seq = self._next_seq()
        self.channel.submit(("ingest", seq, *block.to_wire()))
        return seq

    def correct(self, block: ReadBlock, *, collect: bool = True) -> int:
        seq = self._next_seq()
        self.channel.submit(
            ("correct", seq, int(collect), *block.to_wire())
        )
        return seq

    def checkpoint(self, directory: str) -> int:
        seq = self._next_seq()
        self.channel.submit(("checkpoint", seq, directory))
        return seq

    # ------------------------------------------------------------------
    def await_result(self, seq: int):
        """Block until command ``seq``'s answer arrives (its payload).

        Polls the result channel so a fleet that died mid-command turns
        into the original exception instead of a hang.  Commands are
        answered in order and awaited one at a time (the front-end runs
        one drainer), so an answer to any other command is a protocol
        bug and raises :class:`~repro.errors.ServiceError`."""
        while True:
            try:
                got, payload = self.channel.next_result(
                    timeout=_POLL_SECONDS
                )
            except queue.Empty:
                if not self._thread.is_alive():
                    if self._error is not None:
                        raise self._error
                    raise ServiceError(
                        f"the fleet exited without answering command "
                        f"{seq}"
                    )
                continue
            if got != seq:
                raise ServiceError(
                    f"awaited the answer to command {seq}, got {got}'s"
                )
            return payload

    def shutdown(self):
        """Stop the fleet and return its :class:`SpmdResult`.

        Idempotent; re-raises the fleet's error (original type) if the
        serving run failed."""
        if not self._shut_down:
            self._shut_down = True
            if self._thread.is_alive():
                self.channel.submit(("shutdown",))
            self._thread.join()
        if self._error is not None:
            raise self._error
        return self._outcome


__all__ = ["ServiceExecutor"]
