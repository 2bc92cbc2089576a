"""The three-level oracle and the failure accounting behind ``failed``.

Level 0 is the frozen ``core.reference.UnpackedReferenceCorrector``;
level 1 the serial ``ReptileCorrector`` over the same spectra, which
must reproduce level 0; level 2 is whatever a workload produced, which
must reproduce level 1 read for read.  Corrected bases depend only on a
read's content and the spectrum, never on ids, rank placement or batch
boundaries, so one serial pass over all the reads a workload corrects
against a given spectrum is the expectation for every job cut from them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.config import ReptileConfig
from repro.core.corrector import ReptileCorrector
from repro.core.reference import UnpackedReferenceCorrector
from repro.core.spectrum import LocalSpectrumView, build_spectra
from repro.io.records import ReadBlock


class OracleError(Exception):
    """The oracle chain itself is inconsistent (not a workload failure)."""


@dataclass(frozen=True)
class Expectation:
    """Expected corrected bases for a set of reads, sorted by read id."""

    ids: np.ndarray
    codes: np.ndarray

    def failed_reads(self, ids: np.ndarray, codes: np.ndarray) -> int:
        """How many of the returned reads are wrong or unexpected.

        A read fails when its id is not one we expect or any corrected
        base differs from the oracle's."""
        ids = np.asarray(ids)
        at = np.searchsorted(self.ids, ids)
        at[at == len(self.ids)] = 0
        known = self.ids[at] == ids
        width = min(codes.shape[1], self.codes.shape[1])
        same = (codes[:, :width] == self.codes[at][:, :width]).all(axis=1)
        return int(np.count_nonzero(~(known & same)))


def expect(block: ReadBlock, spectrum_block: ReadBlock,
           config: ReptileConfig) -> Expectation:
    """Levels 0 and 1 for ``block`` corrected against the spectrum of
    ``spectrum_block``; raises :class:`OracleError` if they disagree."""
    spectra = build_spectra(spectrum_block, config)
    frozen = UnpackedReferenceCorrector(
        config, LocalSpectrumView(spectra)
    ).correct_block(block)
    serial = ReptileCorrector(
        config, LocalSpectrumView(spectra)
    ).correct_block(block)
    if not np.array_equal(frozen.block.codes, serial.block.codes):
        raise OracleError(
            "serial corrector diverged from the frozen unpacked reference"
        )
    order = np.argsort(serial.block.ids, kind="stable")
    return Expectation(
        ids=serial.block.ids[order], codes=serial.block.codes[order]
    )


@dataclass
class Tally:
    """Reads attempted and reads failed, over everything a run did."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, expectation: Expectation, ids: np.ndarray,
              codes: np.ndarray, submitted: int) -> None:
        """Score one returned block: mismatches and missing reads fail."""
        missing = max(submitted - len(ids), 0)
        self.attempted += submitted
        self.failed += expectation.failed_reads(ids, codes) + missing

    def job_failed(self, reads: int, why: BaseException) -> None:
        """A job that raised or was refused fails every read it carried."""
        self.attempted += reads
        self.failed += reads
        self.notes.append(f"{type(why).__name__}: {why}")

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def self_check(expectation: Expectation) -> None:
    """Negative control: one flipped base must count as one failed read."""
    tally = Tally()
    tally.check(expectation, expectation.ids, expectation.codes,
                len(expectation.ids))
    if tally.failed:
        raise OracleError("the oracle rejects its own expectation")
    flipped = expectation.codes.copy()
    flipped[len(flipped) // 2, 0] ^= 1
    tally.check(expectation, expectation.ids, flipped, len(expectation.ids))
    if tally.failed != 1:
        raise OracleError(
            f"a flipped base was scored as {tally.failed} failed reads, not 1"
        )
    tally = Tally()
    tally.job_failed(7, RuntimeError("refused"))
    if (tally.attempted, tally.failed) != (7, 7):
        raise OracleError("a failed job did not fail its reads")


def digest(ids: np.ndarray, codes: np.ndarray) -> str:
    """Content hash of a corrected block (for traced-vs-untraced parity)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ids).tobytes())
    h.update(np.ascontiguousarray(codes).tobytes())
    return h.hexdigest()
