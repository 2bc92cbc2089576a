"""The asyncio front-end: spectrum-as-a-service for concurrent clients.

:class:`SpectrumService` is what a client program holds.  ``await``-ing
its verbs submits jobs into the bounded :class:`~repro.service.jobqueue.
JobQueue`; a single drainer task turns queued jobs into collective
rounds on the backend fleet (via ``run_in_executor``, so the event loop
never blocks on MPI-style progress), and compatible correct jobs that
pile up while a round is in flight are **coalesced** — merged into one
collective ``correct()`` — which is the service's entire reason to
exist: N concurrent clients pay one round's protocol overhead, not N.

Coalescing is bit-exact: the merged round is renumbered to fresh
sequential read ids, corrected once, split back on the per-job read
counts, and re-labelled with the original ids.  Corrected codes depend
only on read content and the spectrum, never on ids or batch
boundaries, so each client receives exactly the bytes a solo round
would have produced (the property test in ``tests/service`` pins
this).

:meth:`SpectrumService.close` returns the fleet's one run record,
:class:`ServiceRunResult`; the op-list driver
:class:`~repro.parallel.driver.ParallelSession` returns the same record.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import queue
import threading
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.config import ReptileConfig
from repro.core.corrector import CorrectionResult
from repro.errors import ServiceError
from repro.faults import CrashedRank
from repro.io.records import ReadBlock
from repro.parallel.driver import (
    ParallelRunResult,
    RankReport,
    _correct_report,
    _uncorrected_report,
    _validate_run_params,
    _with_placeholders,
)
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.session import SessionRankReport
from repro.service.jobqueue import Job, JobQueue, ServicePolicy
from repro.service.program import ServingProgram
from repro.simmpi.engine import ProcessEngine, run_spmd
from repro.simmpi.instrument import (
    SERVICE_COUNTERS,
    SESSION_COUNTERS,
    CommStats,
)

#: How often a blocked wait for an answer wakes to check that the fleet
#: is alive.
_POLL_SECONDS = 0.2


@dataclass(frozen=True)
class ServiceReport:
    """The service's lifetime accounting (the ``service_*`` counters)."""

    submitted: int = 0
    coalesced: int = 0
    rejected: int = 0
    rounds: int = 0

    def as_counters(self) -> dict[str, int]:
        """The report keyed by the :data:`SERVICE_COUNTERS` names."""
        return dict(
            zip(
                SERVICE_COUNTERS,
                (self.submitted, self.coalesced, self.rejected, self.rounds),
            )
        )


@dataclass
class ServiceRunResult:
    """Everything a closed service hands back (the run's full record).

    A solo client that awaits each job before the next —
    :class:`~repro.parallel.driver.ParallelSession` — gets one round per
    job, so its correct jobs are the session's correct ops and
    :meth:`result_for` reads each back as a classic run result."""

    #: Per-rank session reports (:class:`~repro.parallel.session.
    #: SessionRankReport`, or a :class:`~repro.faults.CrashedRank`
    #: sentinel for ranks a fault plan killed).
    rank_reports: list[Any]
    #: Per-rank traffic ledgers; the service counters are folded into
    #: rank 0's before this result is assembled.
    stats: list[CommStats]
    crashed_ranks: tuple[int, ...]
    report: ServiceReport
    config: ReptileConfig
    heuristics: HeuristicConfig

    def _live(self) -> list[tuple[int, SessionRankReport]]:
        """``(rank, report)`` of every rank the run did not crash."""
        return [
            (rank, report) for rank, report in enumerate(self.rank_reports)
            if not isinstance(report, CrashedRank)
        ]

    def _correct_numbers(self) -> list[int]:
        """The op numbers of the run's correct ops, in order: every
        number a surviving rank booked as a correct."""
        return sorted({
            number
            for _, report in self._live()
            for kind, number in zip(report.op_kinds, report.op_numbers)
            if kind == "correct"
        })

    @property
    def n_correct_ops(self) -> int:
        """How many correct ops the fleet ran."""
        return len(self._correct_numbers())

    def result_for(self, index: int = 0) -> ParallelRunResult:
        """The ``index``-th correct op's outcome as a classic run result.

        Timings in the per-rank reports are that op's phase deltas, so
        ``timing_per_rank("kmer_construction")`` on a repeat correction
        shows the zero build time the session is for.  A rank outside
        the op's window reports no reads and no timings."""
        numbers = self._correct_numbers()
        if not 0 <= index < len(numbers):
            raise IndexError(
                f"correct op {index} out of range ({len(numbers)} ran)"
            )
        number = numbers[index]
        reports: list[RankReport | None] = [None] * len(self.rank_reports)
        for rank, rr in self._live():
            if number in rr.op_numbers:
                # The op's position in the op list indexes the timing
                # deltas; its ordinal among the rank's corrects, the
                # outcomes.
                at = rr.op_numbers.index(number)
                nth = rr.op_kinds[:at].count("correct")
                reports[rank] = _correct_report(rr, nth, rr.op_timings[at])
        width = max(r.block.max_length for r in reports if r is not None)
        for rank, rr in self._live():
            if reports[rank] is None:
                reports[rank] = _uncorrected_report(
                    rank, ReadBlock.empty(width), {}, rr.memory,
                    rr.table_sizes,
                )
        return ParallelRunResult(
            reports=_with_placeholders(reports)[0],
            stats=self.stats,
            config=self.config,
            heuristics=self.heuristics,
            crashed_ranks=self.crashed_ranks,
        )

    def session_totals(self) -> dict[str, int]:
        """The session counters summed over ranks (the report's
        ``session`` section, straight from the ledger)."""
        return {
            name: sum(s.get(name) for s in self.stats)
            for name in SESSION_COUNTERS
        }


class SpectrumService:
    """An async multi-client front door over one correction fleet.

    Construction validates parameters but starts nothing; the fleet
    spins up on :meth:`open` (or lazily on the first submission) and
    runs until :meth:`close`, which returns the
    :class:`ServiceRunResult`.  Use ``async with`` for the common case.

    Submissions can be refused: the queue is bounded and each client
    has a pending-job quota (:class:`~repro.service.jobqueue.
    ServicePolicy`), and a refusal raises
    :class:`~repro.errors.ServiceOverloadError` *synchronously inside
    the awaited verb* without touching any other client's jobs.
    :attr:`depth` and :attr:`pressure` expose the backpressure signal
    for clients that prefer to pace themselves.
    """

    def __init__(
        self,
        config: ReptileConfig,
        nranks: int,
        *,
        heuristics: HeuristicConfig | None = None,
        engine="cooperative",
        verify: bool = False,
        faults=None,
        policy: ServicePolicy | None = None,
        resume_dir: str | None = None,
    ) -> None:
        self.heuristics = heuristics or HeuristicConfig()
        _validate_run_params(nranks, self.heuristics, faults)
        self.config = config
        self.nranks = nranks
        self.engine = engine
        self.verify = verify
        self.faults = faults
        self.policy = policy or ServicePolicy()
        self.resume_dir = resume_dir
        self._queue = JobQueue(self.policy)
        #: The fleet thread, its two queues, and what its run ended in.
        self._fleet: threading.Thread | None = None
        self._commands: Any = None
        self._answers: Any = None
        self._outcome = None
        self._error: BaseException | None = None
        self._seq = 0
        self._drainer: asyncio.Task | None = None
        self._closed = False
        self._result: ServiceRunResult | None = None
        self._coalesced = 0
        self._rounds = 0
        #: Set once a correct round has run under a plan that dooms
        #: ranks: a crash round is the fleet's last collective (a dead
        #: rank joins no later one), so every later job is refused.
        self._crash_round_run = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(self) -> "SpectrumService":
        """Start the backend fleet (idempotent; implied by submission).

        The fleet is one ``run_spmd`` of :class:`ServingProgram` on a
        background thread.  The process engine ships the program to each
        child through ``Process(args=...)``, the supported way to move a
        spawn-context ``multiprocessing.Queue`` across the boundary; the
        in-process engines share plain thread queues."""
        if self._closed:
            raise ServiceError("the service is closed")
        if self._fleet is None:
            process = self.engine == "process" or isinstance(
                self.engine, ProcessEngine
            )
            make_queue = (
                multiprocessing.get_context("spawn").Queue
                if process else queue.Queue
            )
            self._commands, self._answers = make_queue(), make_queue()
            program = ServingProgram(
                config=self.config,
                heuristics=self.heuristics,
                commands=self._commands,
                answers=self._answers,
                resume_dir=self.resume_dir,
            )
            self._fleet = threading.Thread(
                target=self._serve, args=(program,),
                name="repro-service-fleet", daemon=True,
            )
            self._fleet.start()
        return self

    def _serve(self, program: ServingProgram) -> None:
        """The fleet thread: run the serving program to its shutdown."""
        try:
            self._outcome = run_spmd(
                program, self.nranks,
                engine=self.engine, verify=self.verify, faults=self.faults,
            )
        except BaseException as exc:  # surfaced by _call / _stop
            self._error = exc

    @property
    def is_open(self) -> bool:
        return self._fleet is not None and not self._closed

    async def __aenter__(self) -> "SpectrumService":
        return self.open()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def close(self) -> ServiceRunResult | None:
        """Drain pending rounds, stop the fleet, return the run record.

        Idempotent (later calls return the same result).  ``None`` only
        when the fleet was never started.  A serving run that failed
        re-raises the fleet's error, its original type intact."""
        if self._closed:
            return self._result
        self._closed = True
        if self._drainer is not None:
            await self._drainer
        if self._fleet is None:
            return None
        loop = asyncio.get_running_loop()
        outcome = await loop.run_in_executor(None, self._stop)
        report = self.report
        for name, value in report.as_counters().items():
            outcome.stats[0].bump(name, value)
        crashed = tuple(
            i for i, r in enumerate(outcome.results)
            if isinstance(r, CrashedRank)
        )
        self._result = ServiceRunResult(
            rank_reports=outcome.results,
            stats=outcome.stats,
            crashed_ranks=crashed,
            report=report,
            config=self.config,
            heuristics=self.heuristics,
        )
        return self._result

    def _stop(self):
        """Stop the fleet and return its :class:`SpmdResult` (blocking)."""
        if self._fleet.is_alive():
            self._commands.put(("shutdown",))
        self._fleet.join()
        if self._error is not None:
            raise self._error
        return self._outcome

    def _call(self, kind: str, *payload):
        """Send one command to rank 0 and block for its answer (blocking).

        Polls the answer queue so a fleet that died mid-command turns
        into the original exception instead of a hang.  Commands are
        answered in order and sent one at a time (one drainer runs
        them), so an answer to any other command is a protocol bug and
        raises :class:`~repro.errors.ServiceError`."""
        self._seq += 1
        seq = self._seq
        self._commands.put((kind, seq, *payload))
        while True:
            try:
                got, answer = self._answers.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                if not self._fleet.is_alive():
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
            return answer

    @property
    def result(self) -> ServiceRunResult | None:
        """The run record once the service is closed (else ``None``)."""
        return self._result

    # ------------------------------------------------------------------
    # backpressure / accounting
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Jobs admitted but not yet run (the queue's backlog)."""
        return self._queue.depth

    @property
    def pressure(self) -> float:
        """Backlog over the admission bound, in ``[0, 1]``."""
        return self._queue.pressure

    @property
    def report(self) -> ServiceReport:
        """A snapshot of the lifetime counters (live at any point)."""
        return ServiceReport(
            submitted=self._queue.submitted,
            coalesced=self._coalesced,
            rejected=self._queue.rejected,
            rounds=self._rounds,
        )

    # ------------------------------------------------------------------
    # client verbs
    # ------------------------------------------------------------------
    async def ingest(self, block: ReadBlock, *, client: str = "default") -> None:
        """Merge a batch's count deltas into the served spectrum."""
        await self._submit("ingest", client, block=block)

    async def correct(
        self, block: ReadBlock, *, client: str = "default"
    ) -> CorrectionResult:
        """Correct a batch against the served spectrum.

        The result's ``tiles_examined`` / ``tiles_below_threshold`` are
        *round* totals: a coalesced round corrects several clients'
        reads in one pass, so per-client attribution of spectrum probes
        is not defined (the per-read breakdowns stay None).

        Under a crash fault plan too: the round's dead ranks' reads come
        back from their recovery partners' replay.  That round is the
        fleet's last collective, so every job after it fails with
        :class:`~repro.errors.ServiceError` and never reaches the fleet;
        :meth:`close` still returns the run record."""
        return await self._submit("correct", client, block=block)

    async def checkpoint(
        self, directory: str, *, client: str = "default"
    ) -> None:
        """Persist the fleet's raw session state to ``directory``."""
        await self._submit("checkpoint", client, directory=directory)

    def _submit(self, kind: str, client: str, *, block=None, directory=None):
        if self._closed:
            raise ServiceError("the service is closed")
        self.open()
        loop = asyncio.get_running_loop()
        job = Job(
            kind=kind, client=client, future=loop.create_future(),
            block=block, directory=directory,
        )
        self._queue.submit(job)  # may raise ServiceOverloadError
        if self._drainer is None or self._drainer.done():
            self._drainer = loop.create_task(self._drain())
        return job.future

    # ------------------------------------------------------------------
    # the drainer: queued jobs -> collective rounds
    # ------------------------------------------------------------------
    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            jobs = self._queue.take_round()
            if not jobs:
                return
            if self._crash_round_run:
                for job in jobs:
                    if not job.future.done():
                        job.future.set_exception(ServiceError(
                            f"a {job.kind} job after the fleet's crash round: "
                            "ranks the fault plan killed join no later round"
                        ))
                continue
            try:
                results = await loop.run_in_executor(
                    None, self._run_round, jobs
                )
            except BaseException as exc:
                # The round's jobs fail with the fleet's error; keep
                # draining so every queued future gets an answer.
                for job in jobs:
                    if not job.future.done():
                        job.future.set_exception(exc)
                continue
            for job, result in zip(jobs, results):
                if not job.future.done():
                    job.future.set_result(result)

    def _run_round(self, jobs: list[Job]) -> list:
        """Execute one collective round (blocking; executor thread)."""
        head = jobs[0]
        if head.kind == "ingest":
            self._call("ingest", *head.block.to_wire())
            return [None]
        if head.kind == "checkpoint":
            self._call("checkpoint", head.directory)
            return [None]
        # A correct round: coalesce every job into one collective
        # correct under fresh sequential ids, then split the id-ordered
        # merged result back on the per-job read counts.
        if self.faults is not None and self.faults.doomed_ranks():
            self._crash_round_run = True
        counts = [job.n_reads for job in jobs]
        merged = ReadBlock.concat([job.block for job in jobs])
        original_ids = merged.ids.copy()
        coalesced = len(jobs) > 1
        if coalesced:
            # Different clients may reuse ids; renumber the merged round
            # with fresh sequential ids (corrected codes are invariant
            # to ids — the property test pins this) so the id-ordered
            # merged result comes back in concat order, then restore
            # the originals on the split below.  A solo round keeps its
            # ids so its rank reports match a direct session run.
            merged.ids = np.arange(1, len(merged) + 1, dtype=np.int64)
            self._coalesced += len(jobs)
        self._rounds += 1
        payload = self._call("correct", *merged.to_wire())
        ids, codes, lengths, quals, corrections, reverted, examined, below = (
            payload
        )
        # Every batch is returned sorted by its own read ids (the same
        # order ParallelRunResult.corrected_block uses).  A solo round
        # arrives id-sorted already; a coalesced round arrives in concat
        # order (its renumbered ids were sequential), so each job's
        # slice is re-sorted by its original ids and cut back to the width
        # of the block the job submitted (the round is as wide as its
        # widest job).
        out = []
        offset = 0
        for job, n in zip(jobs, counts):
            rows = slice(offset, offset + n)
            job_ids = original_ids[rows] if coalesced else ids[rows]
            order = np.argsort(job_ids, kind="stable")
            width = job.block.codes.shape[1]
            out.append(
                CorrectionResult(
                    block=ReadBlock(
                        ids=job_ids[order],
                        codes=codes[rows][order][:, :width],
                        lengths=lengths[rows][order],
                        quals=quals[rows][order][:, :width],
                    ),
                    corrections_per_read=corrections[rows][order],
                    reads_reverted=reverted[rows][order].astype(bool),
                    tiles_examined=int(examined),
                    tiles_below_threshold=int(below),
                )
            )
            offset += n
        return out


__all__ = [
    "ServiceReport",
    "ServiceRunResult",
    "SpectrumService",
]
