"""In-memory read batches as structure-of-arrays.

A :class:`ReadBlock` holds a batch of reads in 2-bit encoded form together
with sequence numbers, lengths and per-base quality scores.  Keeping the
batch as flat numpy arrays (rather than per-read Python objects) is what lets
spectrum construction and correction run vectorized, and it also makes the
per-rank memory footprint directly measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro.kmer.codec import (
    INVALID_CODE,
    decode_rows,
    encode_sequence,
    pad_rows,
)

#: Quality placeholder used when no quality data is available.
DEFAULT_QUALITY = 40


@dataclass
class ReadBlock:
    """A batch of reads (structure of arrays).

    Attributes
    ----------
    ids:
        Sequence numbers, int64, ascending within a file but arbitrary after
        load-balancing redistribution.
    codes:
        2-bit base codes, uint8, shape (n, max_len); positions past a read's
        length and ambiguous bases hold ``INVALID_CODE``.
    lengths:
        Per-read lengths, int32.
    quals:
        Per-base quality scores (Phred-like), uint8, same shape as codes;
        positions past a read's length are zero.
    """

    ids: np.ndarray
    codes: np.ndarray
    lengths: np.ndarray
    quals: np.ndarray

    def __post_init__(self) -> None:
        self.ids = np.ascontiguousarray(self.ids, dtype=np.int64)
        self.codes = np.ascontiguousarray(self.codes, dtype=np.uint8)
        self.lengths = np.ascontiguousarray(self.lengths, dtype=np.int32)
        self.quals = np.ascontiguousarray(self.quals, dtype=np.uint8)
        n = self.ids.shape[0]
        if not (self.codes.shape[0] == n == self.lengths.shape[0] == self.quals.shape[0]):
            raise ValueError("ReadBlock arrays disagree on batch size")
        if self.codes.shape != self.quals.shape:
            raise ValueError("codes and quals must have identical shapes")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def max_length(self) -> int:
        """Width of the code matrix (longest read in the block)."""
        return self.codes.shape[1] if self.codes.ndim == 2 else 0

    @property
    def nbytes(self) -> int:
        """Bytes held by the four arrays."""
        return (
            self.ids.nbytes + self.codes.nbytes
            + self.lengths.nbytes + self.quals.nbytes
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_flat(
        cls,
        ids: np.ndarray,
        lengths: np.ndarray,
        bases: np.ndarray,
        scores: np.ndarray | None = None,
    ) -> "ReadBlock":
        """Build a block from reads laid back to back: ``bases`` holds the
        ASCII bases of all reads and ``scores`` (optional) their quality
        scores, ``lengths[i]`` of each belonging to read ``ids[i]``.

        Raises :class:`ValueError` unless both hold ``sum(lengths)`` values.
        """
        lengths = np.asarray(lengths, dtype=np.int32)
        if scores is None:
            scores = np.full(bases.shape[0], DEFAULT_QUALITY, dtype=np.uint8)
        return cls(
            ids=ids,
            codes=pad_rows(encode_sequence(bases), lengths, INVALID_CODE),
            lengths=lengths,
            quals=pad_rows(scores, lengths, 0),
        )

    @classmethod
    def from_strings(
        cls,
        seqs: Sequence[str],
        ids: Sequence[int] | None = None,
        quals: Sequence[Sequence[int]] | None = None,
    ) -> "ReadBlock":
        """Build a block from DNA strings (and optional quality rows)."""
        n = len(seqs)
        if ids is None:
            ids_arr = np.arange(1, n + 1, dtype=np.int64)
        else:
            ids_arr = np.asarray(ids, dtype=np.int64)
        lengths = np.fromiter(map(len, seqs), dtype=np.int32, count=n)
        bases = np.frombuffer(
            "".join(seqs).encode("ascii", errors="replace"), dtype=np.uint8
        )
        scores = None
        if quals is not None:
            rows = np.fromiter(map(len, quals), dtype=np.int32, count=n)
            if (rows != lengths).any():
                i = int(np.flatnonzero(rows != lengths)[0])
                raise ValueError(
                    f"quality length {rows[i]} != read length {lengths[i]} "
                    f"for read index {i}"
                )
            scores = np.fromiter(
                chain.from_iterable(quals), dtype=np.uint8,
                count=bases.shape[0],
            )
        return cls.from_flat(ids_arr, lengths, bases, scores)

    @classmethod
    def empty(cls, width: int = 0) -> "ReadBlock":
        """A zero-read block with the given matrix width."""
        return cls(
            ids=np.empty(0, dtype=np.int64),
            codes=np.empty((0, width), dtype=np.uint8),
            lengths=np.empty(0, dtype=np.int32),
            quals=np.empty((0, width), dtype=np.uint8),
        )

    def to_strings(self) -> list[str]:
        """Decode every read back to a DNA string ('N' for ambiguous)."""
        return decode_rows(self.codes, self.lengths)

    # ------------------------------------------------------------------
    def to_wire(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The block as a message payload: ``(ids, codes, lengths,
        quals)``.  Every frame that carries reads — load balancing, the
        work queue, crash replicas, service commands and results — uses
        this one form."""
        return (self.ids, self.codes, self.lengths, self.quals)

    @classmethod
    def from_wire(cls, parts: Sequence[np.ndarray]) -> "ReadBlock":
        """The block a :meth:`to_wire` payload carries."""
        ids, codes, lengths, quals = parts
        return cls(ids=ids, codes=codes, lengths=lengths, quals=quals)

    # ------------------------------------------------------------------
    def select(self, index: np.ndarray) -> "ReadBlock":
        """A new block containing the rows picked by ``index``."""
        return ReadBlock(
            ids=self.ids[index],
            codes=self.codes[index],
            lengths=self.lengths[index],
            quals=self.quals[index],
        )

    def slice(self, start: int, stop: int) -> "ReadBlock":
        """View-based row slice (no copies of the underlying data)."""
        return ReadBlock(
            ids=self.ids[start:stop],
            codes=self.codes[start:stop],
            lengths=self.lengths[start:stop],
            quals=self.quals[start:stop],
        )

    @staticmethod
    def concat(blocks: Iterable["ReadBlock"]) -> "ReadBlock":
        """Concatenate blocks, padding widths to the widest block."""
        blocks = [b for b in blocks if len(b)]
        if not blocks:
            return ReadBlock.empty()
        width = max(b.max_length for b in blocks)
        total = sum(len(b) for b in blocks)
        codes = np.full((total, width), INVALID_CODE, dtype=np.uint8)
        quals = np.zeros((total, width), dtype=np.uint8)
        ids = np.empty(total, dtype=np.int64)
        lengths = np.empty(total, dtype=np.int32)
        at = 0
        for b in blocks:
            n = len(b)
            codes[at : at + n, : b.max_length] = b.codes
            quals[at : at + n, : b.max_length] = b.quals
            ids[at : at + n] = b.ids
            lengths[at : at + n] = b.lengths
            at += n
        return ReadBlock(ids=ids, codes=codes, lengths=lengths, quals=quals)

    def chunks(self, chunk_size: int) -> Iterable["ReadBlock"]:
        """Yield consecutive row slices of at most ``chunk_size`` reads."""
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        for start in range(0, len(self), chunk_size):
            yield self.slice(start, min(start + chunk_size, len(self)))
