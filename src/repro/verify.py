"""Reproduction self-check (``python -m repro.verify``).

A fast end-to-end smoke of the three claims this repository makes:

1. **Correctness** — the serial Reptile reference fixes injected errors
   with high precision on a fresh synthetic dataset;
2. **Equivalence** — the distributed implementation (a sample of
   heuristics on all three engines, and two back-to-back rounds of a
   retained session) is bit-identical to the serial reference;
3. **Fidelity** — every performance-model anchor sits within its
   tolerance of the paper-reported value.

Prints one PASS/FAIL line per check and exits nonzero on any failure —
the command a packager runs after install.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

import numpy as np


def _check_correctness() -> str:
    from repro.bench.harness import small_scale
    from repro.core import LocalSpectrumView, ReptileCorrector, build_spectra
    from repro.core.metrics import evaluate_correction

    scale = small_scale(genome_size=8_000, seed=101)
    spectra = build_spectra(scale.dataset.block, scale.config)
    result = ReptileCorrector(
        scale.config, LocalSpectrumView(spectra)
    ).correct_block(scale.dataset.block)
    report = evaluate_correction(scale.dataset, result.block)
    assert report.gain > 0.6, f"gain {report.gain:.3f} below 0.6"
    assert report.precision > 0.95, f"precision {report.precision:.3f}"
    return (f"gain {report.gain:.3f}, precision {report.precision:.3f} "
            f"on {scale.dataset.n_errors} injected errors")


def _check_equivalence() -> str:
    from repro.bench.harness import small_scale
    from repro.core import LocalSpectrumView, ReptileCorrector, build_spectra
    from repro.parallel import (
        CorrectOp, HeuristicConfig, IngestOp, ParallelReptile, ParallelSession,
    )

    scale = small_scale(genome_size=6_000, seed=102, chunk_size=200)
    spectra = build_spectra(scale.dataset.block, scale.config)
    serial = ReptileCorrector(
        scale.config, LocalSpectrumView(spectra)
    ).correct_block(scale.dataset.block)
    ref = serial.block.codes[np.argsort(serial.block.ids)]
    cases = [
        (HeuristicConfig(), 5, "cooperative"),
        (HeuristicConfig(universal=True, batch_reads=True), 3, "cooperative"),
        (HeuristicConfig(allgather_tiles=True), 4, "cooperative"),
        (HeuristicConfig(universal=True), 4, "threaded"),
        # The replication group's allgather crosses real processes.
        (HeuristicConfig(universal=True, replication_group=2), 2, "process"),
    ]
    for heur, nranks, engine in cases:
        result = ParallelReptile(
            scale.config, heur, nranks=nranks, engine=engine
        ).run(scale.dataset.block)
        assert np.array_equal(result.corrected_block.codes, ref), (
            f"{heur.describe()} on {engine} diverged from serial"
        )
    # A retained session's rounds run back to back with no fence between
    # them; under real concurrency each must still equal serial.
    block = scale.dataset.block
    rounds = ParallelSession(
        scale.config, HeuristicConfig(), nranks=4, engine="threaded"
    ).run([IngestOp(block), CorrectOp(block), CorrectOp(block)])
    for index in range(rounds.n_correct_ops):
        assert np.array_equal(
            rounds.result_for(index).corrected_block.codes, ref
        ), f"retained session round {index} on threaded diverged from serial"
    return (f"{len(cases)} heuristic/engine combinations and "
            f"{rounds.n_correct_ops} retained session rounds bit-identical "
            "to serial")


def _check_anchors() -> str:
    from repro.perfmodel.calibrate import PAPER_ANCHORS, anchor_model_value as model_value

    worst = 0.0
    for anchor in PAPER_ANCHORS:
        value = model_value(anchor)
        rel = abs(value - anchor.paper_value) / anchor.paper_value
        assert rel <= anchor.tolerance, (
            f"{anchor.figure} {anchor.description}: {rel:.2f} > "
            f"{anchor.tolerance}"
        )
        worst = max(worst, rel / anchor.tolerance)
    return (f"{len(PAPER_ANCHORS)} paper anchors within tolerance "
            f"(worst at {worst:.0%} of its budget)")


CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("correctness (serial Reptile on synthetic ground truth)", _check_correctness),
    ("equivalence (distributed == serial, heuristics x engines)", _check_equivalence),
    ("fidelity (performance model vs paper anchors)", _check_anchors),
]


def main(argv=None) -> int:
    """Run all self-checks; returns a process exit code."""
    failures = 0
    for name, check in CHECKS:
        start = time.perf_counter()
        try:
            detail = check()
            status = "PASS"
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            detail = str(exc)
            status = "FAIL"
            failures += 1
        elapsed = time.perf_counter() - start
        print(f"[{status}] {name} ({elapsed:.1f}s)\n       {detail}")
    if failures:
        print(f"\n{failures} of {len(CHECKS)} checks FAILED")
        return 1
    print(f"\nall {len(CHECKS)} checks passed")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests/main
    sys.exit(main())
