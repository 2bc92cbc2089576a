"""The four workloads: seeded inputs, one timed iteration, its ledger.

Every workload is the same three steps — ``prepare()`` builds the inputs
from the seed (untimed), ``iterate()`` is the timed section, and the
returned :class:`Outcome` carries the public result fields the metrics
are read from.  ``iterate(recorder)`` with a :class:`~benchmarks.e2e.
trace.SpanRecorder` is the traced twin: identical calls, on a
:class:`~benchmarks.e2e.trace.TracingEngine` instead of the cooperative
one, with spans around each call into a layer.

Sizing.  The driver's budget is ~37 s per run including set-up, so the
distributed workloads use a 6 kb genome (5.6k reads; an iteration is
1.5-4 s and at least five fit in a run); the serial workload keeps the
20 kb genome (18.8k reads), where a run still times ~100 iterations.
The distributed runs use 8 ranks on the cooperative engine: with two
cores, the threaded/process engines at 8 ranks time the OS scheduler.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from benchmarks.e2e import ledger, oracle, probes
from benchmarks.e2e.trace import SpanRecorder, TimedView, TracingEngine
from repro.bench.harness import small_scale
from repro.core.corrector import ReptileCorrector
from repro.core.metrics import evaluate_correction
from repro.core.pipeline import correct_reads
from repro.core.spectrum import LocalSpectrumView, build_spectra
from repro.io.records import ReadBlock
from repro.parallel import HeuristicConfig, ParallelReptile
from repro.service import SpectrumService
from repro.service.program import SERVICE_CMD_TAG

NRANKS = 8
QUICK_GENOME = 3_000


@dataclass
class Returned:
    """One batch of corrected reads a workload handed back."""

    phase: int
    ids: np.ndarray
    codes: np.ndarray
    submitted: int


@dataclass
class Outcome:
    """What one iteration produced — the ledger every metric reads."""

    returned: list[Returned]
    #: Bases handed to the system (ingested + submitted for correction).
    bases: int
    messages: int = 0
    wire_bytes: int = 0
    table_bytes: int = 0
    #: Submit->reply seconds per correct job (empty: the iteration is the job).
    latencies: list[float] = field(default_factory=list)
    #: Jobs that raised or were refused: (reads carried, exception).
    failures: list[tuple[int, BaseException]] = field(default_factory=list)
    #: The layer's own result object (ParallelRunResult, ServiceRunResult...).
    detail: Any = None
    #: The tracing engine of a traced iteration (None when untraced).
    engine: TracingEngine | None = None
    #: A traced serial iteration: its timing view, and with ``capture``
    #: the spectra it looked up in (the hashing probe replays both).
    view: TimedView | None = None
    spectra: Any = None

    @property
    def reads(self) -> int:
        return sum(len(r.ids) for r in self.returned)

    def corrected(self) -> tuple[np.ndarray, np.ndarray]:
        """Every returned read, (ids, codes) sorted by id."""
        ids = np.concatenate([r.ids for r in self.returned])
        codes = np.concatenate([r.codes for r in self.returned])
        order = np.argsort(ids, kind="stable")
        return ids[order], codes[order]

    def ledger(self) -> dict:
        """The fields a traced iteration must reproduce exactly."""
        return {
            "messages": self.messages,
            "wire_bytes": self.wire_bytes,
            "failures": len(self.failures),
            "digest": oracle.digest(*self.corrected()),
        }


def _span(recorder: SpanRecorder | None, name: str, layer: str, **where):
    if recorder is None:
        return nullcontext()
    return recorder.span(name, layer, **where)


def _engine(recorder: SpanRecorder | None, parent: int | None,
            **options) -> TracingEngine | None:
    """The tracing engine of a traced iteration (None: run untraced)."""
    if recorder is None:
        return None
    return TracingEngine(recorder, parent=parent, **options)


def _bases(block: ReadBlock) -> int:
    return int(block.lengths.sum())


def _sorted_by_id(block: ReadBlock) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(block.ids, kind="stable")
    return block.ids[order], block.codes[order]


def traced_serial(block: ReadBlock, spectrum_block: ReadBlock, config,
                  recorder: SpanRecorder, parent: int | None, *,
                  record: bool = False):
    """``correct_reads`` spelled out call by call, with a span per layer
    call and a timing view in front of the spectrum.  Returns the
    correction result, the view (its id stream when ``record``) and the
    built spectra."""
    with recorder.span("core.build_spectra", "core", parent=parent):
        spectra = build_spectra(spectrum_block, config)
    with recorder.span("core.correct_block", "core", parent=parent) as span:
        view = TimedView(
            LocalSpectrumView(spectra), recorder, parent=span, record=record
        )
        result = ReptileCorrector(config, view).correct_block(block)
    return result, view, spectra


class Workload:
    """Base: E.Coli-profile inputs from the seed; subclasses iterate."""

    name = ""
    genome_size = 6_000
    localized_errors = False

    def __init__(self, seed: int, workdir: str, quick: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.quick = quick

    def prepare(self) -> None:
        scale = small_scale(
            "E.Coli",
            genome_size=QUICK_GENOME if self.quick else self.genome_size,
            seed=self.seed,
            localized_errors=self.localized_errors,
            chunk_size=250,
        )
        self.dataset = scale.dataset
        self.config = scale.config
        self.block = scale.dataset.block

    def iterate(self, recorder: SpanRecorder | None = None,
                root: int | None = None, capture: bool = False) -> Outcome:
        """The timed section.  With a ``recorder`` the same calls run
        traced, under the span ``root``; ``capture`` also keeps the
        iteration's replay material (frames, lookup id stream)."""
        raise NotImplementedError

    # -- the oracle side (untimed) ---------------------------------------
    def expectations(self) -> list[oracle.Expectation]:
        """Per phase: what every corrected read must equal."""
        return [oracle.expect(self.block, self.block, self.config)]

    def serial_baseline(self) -> tuple[ReadBlock, ReadBlock]:
        """(block, spectrum block) of the serial run the distributed/serial
        ratio is taken against: the same reads, in one process."""
        return self.block, self.block

    def accuracy_gain(self, outcome: Outcome) -> float:
        """(TP - FP) / injected errors over the reads this outcome holds."""
        ids, codes = outcome.corrected()
        rows = np.searchsorted(self.dataset.block.ids, ids)
        subset = dataclasses.replace(
            self.dataset,
            block=self.dataset.block.select(rows),
            true_codes=self.dataset.true_codes[rows],
            error_mask=self.dataset.error_mask[rows],
            positions=self.dataset.positions[rows],
        )
        corrected = ReadBlock(
            ids=ids, codes=codes,
            lengths=subset.block.lengths, quals=subset.block.quals,
        )
        return evaluate_correction(subset, corrected).gain

    def peak_table_bytes(self, outcome: Outcome) -> int:
        return outcome.table_bytes

    def layer_metrics(self, outcome: Outcome, recorder: SpanRecorder,
                      latencies: list[float]) -> dict[str, float]:
        """Per-layer metrics only this workload's layers have, from the
        traced ``outcome`` and the run's untraced job ``latencies``."""
        return {}


class SerialEcoli(Workload):
    name = "serial_ecoli"
    genome_size = 20_000

    def iterate(self, recorder=None, root=None, capture=False) -> Outcome:
        view = spectra = None
        if recorder is None:
            result = correct_reads(
                self.block, self.config, auto_thresholds=False
            ).result
        else:
            result, view, spectra = traced_serial(
                self.block, self.block, self.config, recorder, root,
                record=capture,
            )
        return Outcome(
            returned=[Returned(0, *_sorted_by_id(result.block),
                               len(self.block))],
            bases=_bases(self.block),
            detail=result,
            view=view,
            spectra=spectra if capture else None,
        )

    def peak_table_bytes(self, outcome: Outcome) -> int:
        """Peak of ``SpectrumPair.nbytes``: before or after thresholding."""
        raw = build_spectra(self.block, self.config, apply_threshold=False)
        before = raw.nbytes
        raw.threshold(self.config.kmer_threshold, self.config.tile_threshold)
        return max(before, raw.nbytes)


class _Static(Workload):
    """A one-shot ``ParallelReptile`` run at 8 ranks."""

    heuristics = HeuristicConfig()

    def _driver(self, engine) -> ParallelReptile:
        return ParallelReptile(
            self.config, self.heuristics, nranks=NRANKS,
            engine=engine or "cooperative",
        )

    def _outcome(self, result, corrected: ReadBlock, engine) -> Outcome:
        return Outcome(
            returned=[Returned(0, corrected.ids, corrected.codes,
                               len(self.block))],
            bases=_bases(self.block),
            messages=sum(s.messages_sent for s in result.stats),
            wire_bytes=sum(s.bytes_sent for s in result.stats),
            table_bytes=int(result.memory_per_rank().max()),
            detail=result,
            engine=engine,
        )


class FilesMsg(_Static):
    name = "files_msg_p8"
    heuristics = HeuristicConfig(universal=True)

    def prepare(self) -> None:
        super().prepare()
        self.fasta = os.path.join(self.workdir, "reads.fa")
        self.qual = os.path.join(self.workdir, "reads.qual")
        self.output = os.path.join(self.workdir, "corrected.fa")
        probes.write_reads(self.block, self.fasta, self.qual)

    def iterate(self, recorder=None, root=None, capture=False) -> Outcome:
        with _span(recorder, "parallel.run_files", "parallel",
                   parent=root) as span:
            engine = _engine(recorder, span, capture_frames=capture)
            result = self._driver(engine).run_files(self.fasta, self.qual)
        with _span(recorder, "parallel.merge", "parallel", parent=root):
            corrected = result.corrected_block
        with _span(recorder, "io.write_outputs", "io", parent=root):
            result.write_outputs(self.output)
        return self._outcome(result, corrected, engine)

    def layer_metrics(self, outcome, recorder, latencies):
        return probes.io_probe(self.block, self.workdir, NRANKS)


class StaticPrefetch(_Static):
    name = "static_prefetch_p8"
    localized_errors = True
    heuristics = HeuristicConfig(prefetch=True, replication_group=2)

    def iterate(self, recorder=None, root=None, capture=False) -> Outcome:
        with _span(recorder, "parallel.run", "parallel", parent=root) as span:
            engine = _engine(recorder, span, capture_frames=capture)
            result = self._driver(engine).run(self.block)
        with _span(recorder, "parallel.merge", "parallel", parent=root):
            corrected = result.corrected_block
        return self._outcome(result, corrected, engine)


class ServiceMixed(Workload):
    """open -> ingest half -> 4 closed-loop clients -> ingest the other
    half -> the same clients on second-half reads -> close.

    Closed loop (a client submits its next job only after the reply)
    because callers await replies.  With 4/6/8/10 jobs per client the
    drainer sees 4,4,4,4,3,3,2,2,1,1 jobs per round in each phase:
    20 rounds, 56 correct jobs, 52 of them coalesced — deterministically,
    since a round's composition depends only on who awaits what.  A round
    costs ~0.1 s whatever it carries, so the jobs are small (40 reads):
    six such sessions fit in a run.
    """

    name = "service_mixed_p8"
    CLIENT_JOBS = (4, 6, 8, 10)
    JOB_READS = 40
    heuristics = HeuristicConfig(universal=True)

    def prepare(self) -> None:
        super().prepare()
        n = len(self.block)
        rows = np.arange(n)
        self.halves = [
            self.block.select(rows[: n // 2]),
            self.block.select(rows[n // 2:]),
        ]
        per_phase = sum(self.CLIENT_JOBS)
        self.job_reads = min(self.JOB_READS, len(self.halves[0]) // per_phase)
        # jobs[phase][client] = that client's consecutive read batches.
        self.jobs = []
        for half in self.halves:
            cursor = 0
            phase = []
            for count in self.CLIENT_JOBS:
                batches = []
                for _ in range(count):
                    batches.append(half.select(
                        np.arange(cursor, cursor + self.job_reads)
                    ))
                    cursor += self.job_reads
                phase.append(batches)
            self.jobs.append(phase)

    def _submitted(self, phase: int) -> ReadBlock:
        return self.halves[phase].select(
            np.arange(sum(self.CLIENT_JOBS) * self.job_reads)
        )

    def expectations(self) -> list[oracle.Expectation]:
        # A job is corrected against the spectrum of the reads ingested
        # so far: the first half, then (ingest is additive) all reads.
        return [
            oracle.expect(self._submitted(0), self.halves[0], self.config),
            oracle.expect(self._submitted(1), self.block, self.config),
        ]

    def serial_baseline(self) -> tuple[ReadBlock, ReadBlock]:
        return ReadBlock.concat(
            [self._submitted(0), self._submitted(1)]
        ), self.block

    def iterate(self, recorder=None, root=None, capture=False) -> Outcome:
        returned: list[Returned] = []
        latencies: list[float] = []
        failures: list[tuple[int, BaseException]] = []
        with _span(recorder, "service.session", "service",
                   parent=root) as session:
            engine = _engine(
                recorder, session, request_tag=SERVICE_CMD_TAG,
                capture_frames=capture,
            )
            service = SpectrumService(
                self.config, NRANKS, heuristics=self.heuristics,
                engine=engine or "cooperative",
            )
            asyncio.run(self._drive(
                service, recorder, returned, latencies, failures
            ))
        run = service.result
        submitted = sum(_bases(self._submitted(p)) for p in (0, 1))
        return Outcome(
            returned=returned,
            bases=_bases(self.block) + submitted,
            messages=sum(s.messages_sent for s in run.stats),
            wire_bytes=sum(s.bytes_sent for s in run.stats),
            table_bytes=max(r.memory.peak for r in run.rank_reports),
            latencies=latencies,
            failures=failures,
            detail=run,
            engine=engine,
        )

    def layer_metrics(self, outcome, recorder, latencies):
        return {
            **ledger.service_metrics(outcome, recorder),
            # The tail of the untraced job latencies (their median is the
            # end-to-end job_latency_p50_s; the tail is too noisy to bound).
            "service.job_latency_p95_s": statistics.quantiles(
                latencies, n=20
            )[-1],
            **probes.fixed_round_probe(
                self.block, self.config, self.heuristics, NRANKS
            ),
        }

    async def _drive(self, service, recorder, returned, latencies,
                     failures) -> None:
        # Job spans overlap each other and the fleet, so they are
        # recorded as roots of their own (the per-request view), outside
        # the self-time tree under the iteration span.
        async def client(index: int, phase: int, batches) -> None:
            for number, block in enumerate(batches):
                request = f"p{phase}.c{index}.j{number}"
                start = time.perf_counter()
                try:
                    with _span(recorder, "service.job.correct", "service",
                               request=request):
                        result = await service.correct(
                            block, client=f"client{index}"
                        )
                except Exception as exc:  # noqa: BLE001 - scored as failed reads
                    failures.append((len(block), exc))
                    continue
                latencies.append(time.perf_counter() - start)
                returned.append(Returned(
                    phase, result.block.ids, result.block.codes, len(block)
                ))

        with _span(recorder, "service.open", "service", request="open"):
            service.open()
        try:
            for phase, half in enumerate(self.halves):
                with _span(recorder, "service.job.ingest", "service",
                           request=f"p{phase}.ingest"):
                    await service.ingest(half)
                await asyncio.gather(*(
                    client(index, phase, batches)
                    for index, batches in enumerate(self.jobs[phase])
                ))
        finally:
            with _span(recorder, "service.close", "service", request="close"):
                await service.close()


WORKLOADS = {
    cls.name: cls
    for cls in (SerialEcoli, FilesMsg, StaticPrefetch, ServiceMixed)
}
