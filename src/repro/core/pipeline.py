"""One-call serial correction pipeline.

For users who just want reads corrected — no rank counts, no heuristics —
:func:`correct_reads` bundles spectrum construction, optional automatic
thresholds (histogram valley when the config's thresholds are the
defaults and ``auto_thresholds`` is on) and the corrector into a single
call, in memory or file to file.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ReptileConfig
from repro.core.corrector import CorrectionResult, ReptileCorrector
from repro.core.histogram import thresholds_from_spectra
from repro.core.spectrum import LocalSpectrumView, LookupStats, build_spectra
from repro.errors import SpectrumError
from repro.io.records import ReadBlock


@dataclass
class PipelineOutcome:
    """Everything the serial pipeline produced."""

    result: CorrectionResult
    config: ReptileConfig          # thresholds possibly auto-derived
    lookup_stats: LookupStats
    spectrum_sizes: tuple[int, int]

    @property
    def block(self) -> ReadBlock:
        return self.result.block

    @property
    def total_corrections(self) -> int:
        return self.result.total_corrections


def correct_reads(
    block: ReadBlock,
    config: ReptileConfig | None = None,
    auto_thresholds: bool = True,
) -> PipelineOutcome:
    """Correct a read block serially; returns corrected reads + stats.

    With ``auto_thresholds`` (the default), the spectra are built
    unthresholded first and the solidity cutoffs are read off the count
    histograms — no knowledge of coverage or error rate needed.  Pass
    explicit thresholds in ``config`` and ``auto_thresholds=False`` to
    control them directly.
    """
    config = config or ReptileConfig()
    if auto_thresholds:
        spectra = build_spectra(block, config, apply_threshold=False)
        kt, tt = thresholds_from_spectra(spectra)
        config = config.with_updates(kmer_threshold=kt, tile_threshold=tt)
        spectra.threshold(kt, tt)
    else:
        spectra = build_spectra(block, config)
    view = LocalSpectrumView(spectra)
    result = ReptileCorrector(config, view).correct_block(block)
    return PipelineOutcome(
        result=result,
        config=config,
        lookup_stats=view.stats,
        spectrum_sizes=(len(spectra.kmers), len(spectra.tiles)),
    )


def estimate_thresholds_from_file(
    fasta_path: str,
    config: ReptileConfig | None = None,
    sample_reads: int = 20_000,
) -> tuple[int, int]:
    """Histogram-valley thresholds from a sample of a read file.

    Reads the first ``sample_reads`` records, builds unthresholded spectra
    and returns the valley cutoffs.  Sampling a prefix understates counts
    relative to the full file (coverage scales with reads), so the result
    is conservative — fine for solidity cutoffs, which only need to sit
    between the error mode and the genomic mode.
    """
    from itertools import islice

    from repro.io.fasta import read_fasta

    config = config or ReptileConfig()
    records = list(islice(read_fasta(fasta_path), sample_reads))
    if not records:
        raise SpectrumError(f"{fasta_path}: no reads to sample")
    block = ReadBlock.from_strings(
        [seq for _, seq in records], ids=[rid for rid, _ in records]
    )
    spectra = build_spectra(block, config, apply_threshold=False)
    return thresholds_from_spectra(spectra)


def correct_files(
    fasta_path: str,
    quality_path: str | None,
    output_path: str,
    config: ReptileConfig | None = None,
    auto_thresholds: bool = True,
) -> PipelineOutcome:
    """File-to-file serial correction (fasta [+ quality] in, fasta out)."""
    from repro.io.partition import load_rank_block, write_block

    block = load_rank_block(fasta_path, quality_path, 1, 0)
    outcome = correct_reads(block, config, auto_thresholds=auto_thresholds)
    write_block(outcome.block, output_path)
    return outcome
