"""Serial Reptile: the error-correction algorithm the paper parallelizes.

Reptile (Yang, Dorman & Aluru, Bioinformatics 2010) is a spectrum-based
substitution error corrector.  It builds two spectra — k-mers and *tiles*
(two overlapping k-mers) — and corrects reads tile by tile: a tile whose
spectrum count falls below a threshold is replaced by a solid
Hamming-distance neighbour, with candidate substitutions restricted to
low-quality base positions and accepted only when unambiguous.  Because a
tile has almost twice the characters of a k-mer, correction at the tile
level has far fewer candidates, which is the source of Reptile's accuracy.

This package is the *serial reference*: the distributed implementation in
:mod:`repro.parallel` reuses the same corrector against a remote spectrum
view, so the two can be compared read for read.
"""

from repro.core.spectrum import (
    SpectrumPair,
    SpectrumView,
    LocalSpectrumView,
    build_spectra,
)
from repro.core.corrector import ReptileCorrector, CorrectionResult
from repro.core.policy import derive_thresholds, expected_kmer_coverage
from repro.core.metrics import AccuracyReport, evaluate_correction
from repro.core.histogram import (
    count_histogram,
    thresholds_from_spectra,
    valley_threshold,
)
from repro.core.persist import load_spectra, save_spectra
from repro.core.pipeline import (
    PipelineOutcome,
    correct_files,
    correct_reads,
    estimate_thresholds_from_file,
)

__all__ = [
    "SpectrumPair",
    "SpectrumView",
    "LocalSpectrumView",
    "build_spectra",
    "ReptileCorrector",
    "CorrectionResult",
    "derive_thresholds",
    "expected_kmer_coverage",
    "AccuracyReport",
    "evaluate_correction",
    "count_histogram",
    "thresholds_from_spectra",
    "valley_threshold",
    "load_spectra",
    "save_spectra",
    "PipelineOutcome",
    "correct_files",
    "correct_reads",
    "estimate_thresholds_from_file",
]
