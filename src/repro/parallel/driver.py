"""Top-level distributed Reptile drivers and the batch rank program.

:class:`ParallelReptile` runs the paper's pipeline once — Step I
partitioned input, optional static load balancing, Steps II-III
distributed spectrum construction, Step IV messaging correction — on the
chosen engine.  Its rank program, :class:`BatchProgram`, is a few lines
around the :class:`~repro.parallel.session.SessionOpRunner` the service
runs: load this rank's share, redistribute it once, open a one-shot
:class:`~repro.parallel.session.CorrectionSession`, and run the op list
``[ingest, correct]`` (``[ingest]`` for a build-only run, a
master-worker correct op for the dynamic ablation).  The result bundles
everything the paper's figures measure: per-rank corrected reads, errors
corrected, table sizes, memory footprints, phase timings and
communication counters.

:class:`ParallelSession` is the long-lived counterpart: it drives a
retained session per rank through an op list (ingest / correct /
checkpoint) as a client of the service, so the spectrum is built once
and corrected against repeatedly — or grown incrementally between
corrections — with no rebuilds.  It returns the service's own run
record (:class:`~repro.service.ServiceRunResult`), whose ``result_for``
reads each correct op back as a :class:`ParallelRunResult`.  Both
drivers end in the same runner and report through the same
:class:`RankReport`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal

import numpy as np
from numpy.typing import NDArray

from repro.config import ReptileConfig
from repro.core.metrics import AccuracyReport, evaluate_correction
from repro.datasets.reads import SimulatedDataset
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.io.partition import load_rank_block, slice_bounds
from repro.io.records import ReadBlock
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.loadbalance import redistribute_reads
from repro.parallel.memory import RankMemoryReport
from repro.parallel.session import (
    CheckpointOp,
    CorrectionSession,
    CorrectOp,
    DynamicCorrectOp,
    IngestOp,
    SessionOp,
    SessionOpRunner,
    SessionRankReport,
)
from repro.simmpi.communicator import Communicator
from repro.simmpi.engine import Engine, run_spmd
from repro.simmpi.instrument import CommStats

if TYPE_CHECKING:
    from repro.service import ServiceRunResult


@dataclass
class RankReport:
    """Everything one rank reports back from an SPMD run."""

    rank: int
    block: ReadBlock
    corrections_per_read: NDArray[np.int64]
    reads_reverted: int
    tiles_examined: int
    tiles_below_threshold: int
    timings: dict[str, float]
    memory: RankMemoryReport
    table_sizes: dict[str, int]

    @property
    def errors_corrected(self) -> int:
        """Substitutions applied by this rank (Fig. 4's per-rank series)."""
        return int(self.corrections_per_read.sum())


def _uncorrected_report(
    rank: int,
    block: ReadBlock,
    timings: dict[str, float],
    memory: RankMemoryReport,
    table_sizes: dict[str, int],
) -> RankReport:
    """A rank's reads as they stand, with zeroed correction counters."""
    return RankReport(
        rank=rank,
        block=block,
        corrections_per_read=np.zeros(len(block), dtype=np.int64),
        reads_reverted=0,
        tiles_examined=0,
        tiles_below_threshold=0,
        timings=timings,
        memory=memory,
        table_sizes=table_sizes,
    )


def _correct_report(
    report: SessionRankReport, index: int, timings: dict[str, float]
) -> RankReport:
    """A session report's ``index``-th correct op as a classic report."""
    return RankReport(
        rank=report.rank,
        block=report.correct_blocks[index],
        corrections_per_read=report.correct_corrections[index],
        reads_reverted=report.correct_reverted[index],
        tiles_examined=report.correct_tiles_examined[index],
        tiles_below_threshold=report.correct_tiles_below[index],
        timings=timings,
        memory=report.memory,
        table_sizes=report.table_sizes,
    )


def _with_placeholders(
    reports: list[RankReport | None],
) -> tuple[list[RankReport], tuple[int, ...]]:
    """Stand an empty report in for every crashed rank (``None``).

    A crashed rank's reads live on in its recovery partner's block; an
    empty entry keeps every per-rank series one-entry-per-rank.  Returns
    the completed list and the crashed ranks."""
    width = next(
        (r.block.max_length for r in reports if r is not None), 0
    )
    crashed = tuple(rank for rank, r in enumerate(reports) if r is None)
    return [
        r if r is not None else _uncorrected_report(
            rank, ReadBlock.empty(width), {}, RankMemoryReport(rank=rank), {}
        )
        for rank, r in enumerate(reports)
    ], crashed


@dataclass(frozen=True)
class BatchProgram:
    """The SPMD rank program of a one-shot run: the pipeline as an op
    list on a one-shot session.

    Picklable (plain configs, a block or two paths), so the process
    engine ships the identical program to spawned interpreters."""

    config: ReptileConfig
    heuristics: HeuristicConfig
    #: The dataset: an in-memory block (each rank takes its contiguous
    #: slice — the paper's byte partitioning) or a ``(fasta, quality)``
    #: path pair (each rank loads its byte range).
    source: ReadBlock | tuple[str, str | None]
    #: Step IV scheme: the paper's static one, the master-worker
    #: ablation, or ``None`` to stop after Steps I-III.
    correction: Literal["static", "dynamic"] | None = "static"

    def __call__(self, comm: Communicator) -> RankReport:
        session = CorrectionSession(
            comm, self.config, self.heuristics, retain_raw=False
        )
        runner = SessionOpRunner(session)
        source = self.source
        # A rank that raises (or is crashed) mid-run still releases its
        # endpoint: protocol, compiled stacks, recovery bindings.
        with session:
            with runner.timer.phase("read_input"):
                if isinstance(source, ReadBlock):
                    bounds = slice_bounds(len(source), comm.size)
                    mine = source.slice(
                        bounds[comm.rank], bounds[comm.rank + 1]
                    )
                else:
                    mine = load_rank_block(*source, comm.size, comm.rank)
            # Section III-A static load balancing, once: the same reads
            # are ingested and corrected.  The master-worker scheme
            # balances by itself, at correction time.
            if self.heuristics.load_balance and self.correction != "dynamic":
                with runner.timer.phase("load_balance"):
                    mine = redistribute_reads(comm, mine)
            runner.run_op(IngestOp(mine))
            if self.correction == "static":
                runner.run_op(CorrectOp(mine))
            elif self.correction == "dynamic":
                # The master (rank 0) hands out the undivided dataset.
                whole = source if isinstance(source, ReadBlock) else None
                runner.run_op(
                    DynamicCorrectOp(whole if comm.rank == 0 else None)
                )
            report = runner.report()
        if self.correction is None:
            return _uncorrected_report(
                comm.rank, mine, report.timings, report.memory,
                report.table_sizes,
            )
        return _correct_report(report, 0, report.timings)


@dataclass
class ParallelRunResult:
    """Combined outcome of a distributed run."""

    reports: list[RankReport]
    stats: list[CommStats]
    config: ReptileConfig
    heuristics: HeuristicConfig
    #: Ranks killed by the active fault plan (their reports are empty
    #: placeholders; the reads they owned appear in their recovery
    #: partner's block instead).
    crashed_ranks: tuple[int, ...] = ()
    _corrected: ReadBlock | None = field(default=None, repr=False)

    @property
    def nranks(self) -> int:
        return len(self.reports)

    @property
    def corrected_block(self) -> ReadBlock:
        """All corrected reads, re-sorted by sequence number."""
        if self._corrected is None:
            merged = ReadBlock.concat([r.block for r in self.reports])
            order = np.argsort(merged.ids, kind="stable")
            self._corrected = merged.select(order)
        return self._corrected

    @property
    def total_corrections(self) -> int:
        return sum(r.errors_corrected for r in self.reports)

    def corrections_per_rank(self) -> NDArray[np.int64]:
        """Errors corrected by each rank (the Fig. 4 imbalance signal)."""
        return np.array([r.errors_corrected for r in self.reports], dtype=np.int64)

    def reads_per_rank(self) -> NDArray[np.int64]:
        """Number of reads each rank corrected."""
        return np.array([len(r.block) for r in self.reports], dtype=np.int64)

    def table_sizes_per_rank(self, table: str = "kmers") -> NDArray[np.int64]:
        """Entries in a named table on each rank (the Fig. 3 series)."""
        return np.array(
            [r.table_sizes.get(table, 0) for r in self.reports], dtype=np.int64
        )

    def memory_per_rank(self) -> NDArray[np.int64]:
        """Peak table bytes on each rank (Fig. 5's footprint metric)."""
        return np.array([r.memory.peak for r in self.reports], dtype=np.int64)

    def counter_per_rank(self, name: str) -> NDArray[np.int64]:
        """A protocol counter (e.g. 'remote_tile_lookups') on each rank."""
        return np.array([s.get(name) for s in self.stats], dtype=np.int64)

    def timing_per_rank(self, phase: str) -> NDArray[np.float64]:
        """Measured wall seconds of a phase on each rank."""
        return np.array(
            [r.timings.get(phase, 0.0) for r in self.reports], dtype=np.float64
        )

    def accuracy(self, dataset: SimulatedDataset) -> AccuracyReport:
        """Score against a simulated dataset's ground truth."""
        return evaluate_correction(dataset, self.corrected_block)

    def write_outputs(
        self,
        fasta_path: str | os.PathLike[str],
        quality_path: str | os.PathLike[str] | None = None,
    ) -> int:
        """Write the corrected reads (and optionally their qualities).

        Both paths accept anything path-like (``str`` or
        ``pathlib.Path``).  Each record keeps its input sequence number
        as its name, so the output lines up record-for-record with the
        original files.  Returns the number of reads written.
        """
        from repro.io.partition import write_block

        return write_block(self.corrected_block, fasta_path, quality_path)


def _validate_run_params(
    nranks: int,
    heuristics: HeuristicConfig,
    faults: FaultPlan | None,
) -> None:
    """The shared construction checks (both drivers and the service),
    so a bad run raises before any rank starts."""
    if nranks < 1:
        raise ConfigError("nranks must be >= 1")
    if nranks % heuristics.replication_group != 0:
        raise ConfigError(
            f"replication_group {heuristics.replication_group} must divide "
            f"the rank count {nranks}"
        )
    if faults is not None:
        faults.validate(nranks)


class ParallelReptile:
    """Distributed Reptile, configurable like the paper's runs.

    Parameters
    ----------
    config:
        Algorithm parameters (shared with the serial reference).
    heuristics:
        Which of the paper's modes to enable.
    nranks:
        Number of simulated MPI ranks.
    engine:
        ``"cooperative"`` (deterministic; default), ``"threaded"``,
        ``"process"`` (shared-nothing, one spawned interpreter per
        rank), or an :class:`~repro.simmpi.engine.Engine` instance.
    faults:
        An optional :class:`~repro.faults.FaultPlan`.  Frame faults are
        injected into the transport, scripted crashes/stalls into the
        engines; Step IV runs its retry/recovery protocol, and a
        crashed rank's reads reappear in its partner's block — the run's
        merged output stays bit-identical to the fault-free reference
        for any survivable plan.
    """

    def __init__(
        self,
        config: ReptileConfig,
        heuristics: HeuristicConfig | None = None,
        nranks: int = 4,
        engine: Engine | str = "cooperative",
        faults: FaultPlan | None = None,
    ) -> None:
        self.heuristics = heuristics or HeuristicConfig()
        _validate_run_params(nranks, self.heuristics, faults)
        self.config = config
        self.nranks = nranks
        self.engine = engine
        self.faults = faults

    # ------------------------------------------------------------------
    def run(self, block: ReadBlock) -> ParallelRunResult:
        """Correct an in-memory dataset.

        The block is split into contiguous per-rank chunks first —
        equivalent to the paper's byte partitioning of the input file, and
        what makes localized error bursts land on few ranks unless load
        balancing is on.
        """
        return self._execute(block)

    def run_dynamic(self, block: ReadBlock) -> ParallelRunResult:
        """Correct with the prior work's dynamic master-worker allocation.

        Spectrum construction proceeds as usual over contiguous chunks;
        the correction phase is coordinated by rank 0, which holds the
        whole read set and hands out chunks on demand (and corrects
        nothing itself).  Exists for the ablation against the paper's
        static scheme; requires ``nranks >= 2`` to be meaningful.

        The correction round runs on each rank's session endpoint
        (:func:`~repro.parallel.dynamicbalance.correct_dynamic`), so its
        comm time lands in the same phases a static run books.  A fault
        plan that drops frames or crashes ranks is not supported: the
        work queue and the ablation's lookups run outside the retry
        protocol.
        """
        if self.faults is not None and self.faults.needs_resilient_lookups:
            raise ConfigError(
                "the dynamic work-allocation ablation does not support a "
                "FaultPlan that drops frames or crashes ranks (its work "
                "queue is not retried)"
            )
        return self._execute(block, "dynamic")

    def build_only(self, block: ReadBlock) -> ParallelRunResult:
        """Run Steps I-III only (no correction) — for spectrum studies.

        Each rank's returned block is its (possibly redistributed) input,
        uncorrected; table sizes and memory reports reflect the built
        spectra.  Used by the Fig. 3 uniformity measurement.
        """
        return self._execute(block, None)

    def run_files(self, fasta_path: str, quality_path: str | None) -> ParallelRunResult:
        """Correct a dataset from a fasta (+ quality) file pair (Step I)."""
        return self._execute((fasta_path, quality_path))

    # ------------------------------------------------------------------
    def _execute(
        self,
        source: ReadBlock | tuple[str, str | None],
        correction: Literal["static", "dynamic"] | None = "static",
    ) -> ParallelRunResult:
        program = BatchProgram(self.config, self.heuristics, source, correction)
        spmd = run_spmd(
            program, self.nranks, engine=self.engine, faults=self.faults
        )
        # Anything but a report is a CrashedRank sentinel: the fault
        # plan killed that rank mid-correction.
        reports, crashed = _with_placeholders([
            report if isinstance(report, RankReport) else None
            for report in spmd.results
        ])
        return ParallelRunResult(
            reports=reports,
            stats=spmd.stats,
            config=self.config,
            heuristics=self.heuristics,
            crashed_ranks=crashed,
        )


class ParallelSession:
    """Driver for long-lived, incrementally-fed correction sessions.

    Construction mirrors :class:`ParallelReptile`; :meth:`run` takes an
    op sequence instead of one dataset:

    >>> driver = ParallelSession(config, heuristics, nranks=4)
    >>> out = driver.run([IngestOp(reads), CorrectOp(reads)])
    >>> out.result_for(0).corrected_block      # == ParallelReptile.run

    The driver is a *thin synchronous client* of
    :class:`repro.service.SpectrumService`: each :meth:`run` opens a
    service over the same engine, awaits the ops one at a time (a solo
    client coalesces nothing, so every op is one round: a correct on its
    placement window, any other op on every rank) and returns the
    service's own run record, a
    :class:`~repro.service.ServiceRunResult`.  One code path serves both
    the op-list driver and concurrent async clients.

    Repeated :class:`CorrectOp` entries reuse the built spectrum with
    zero reconstruction.  Under a fault plan with scripted crashes the
    crash round's :class:`CorrectOp` must be the last op (a dead rank
    joins no further collectives).
    """

    def __init__(
        self,
        config: ReptileConfig,
        heuristics: HeuristicConfig | None = None,
        nranks: int = 4,
        engine: Engine | str = "cooperative",
        faults: FaultPlan | None = None,
    ) -> None:
        self.heuristics = heuristics or HeuristicConfig()
        _validate_run_params(nranks, self.heuristics, faults)
        self.config = config
        self.nranks = nranks
        self.engine = engine
        self.faults = faults

    def run(
        self,
        ops: "list[SessionOp] | tuple[SessionOp, ...]",
        *,
        resume_dir: str | None = None,
    ) -> ServiceRunResult:
        """Run the op sequence on every rank (SPMD) and collect results.

        ``resume_dir`` starts each rank's session from a
        :class:`CheckpointOp` directory written by an earlier run.  An
        op that fails raises its error once the fleet has shut down."""
        import asyncio

        from repro.errors import SessionError
        from repro.service import SpectrumService

        ops = tuple(ops)
        if not ops:
            raise ValueError("a session run needs at least one op")

        async def drive():
            service = SpectrumService(
                self.config,
                self.nranks,
                heuristics=self.heuristics,
                engine=self.engine,
                faults=self.faults,
                resume_dir=resume_dir,
            )
            async with service:
                for op in ops:
                    if isinstance(op, IngestOp):
                        await service.ingest(op.block)
                    elif isinstance(op, CorrectOp):
                        await service.correct(op.block)
                    elif isinstance(op, CheckpointOp):
                        await service.checkpoint(op.directory)
                    else:
                        raise SessionError(f"unknown session op {op!r}")
            return service.result

        return asyncio.run(drive())


__all__ = [
    "BatchProgram",
    "CheckpointOp",
    "CorrectOp",
    "IngestOp",
    "ParallelReptile",
    "ParallelRunResult",
    "ParallelSession",
    "RankReport",
]
