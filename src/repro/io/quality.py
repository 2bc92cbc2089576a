"""Reptile-style quality score files.

A quality file mirrors the fasta file: the same numeric record names in the
same order, each followed by one line of space-separated integer Phred
scores, one per base.  Step I reads this file with the same byte-offset
partitioning as the fasta file, then lines the two up by sequence number.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import FileFormatError
from repro.io.fasta import range_records


def write_quality(
    path: str | os.PathLike,
    quals: Iterable[Sequence[int]],
    start_id: int = 1,
) -> int:
    """Write per-read quality rows with ascending numeric names."""
    n = 0
    with open(path, "w", encoding="ascii") as fh:
        for i, row in enumerate(quals, start=start_id):
            fh.write(f">{i}\n")
            fh.write(" ".join(str(int(q)) for q in row))
            fh.write("\n")
            n += 1
    return n


def read_quality(path: str | os.PathLike) -> Iterator[tuple[int, np.ndarray]]:
    """Iterate (sequence_number, scores) over a whole quality file."""
    yield from read_quality_range(path, 0, os.path.getsize(path))


def read_quality_range(
    path: str | os.PathLike, start: int, end: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Iterate records whose header byte lies in ``[start, end)``.

    Same contract as :func:`repro.io.fasta.read_fasta_range`.
    """
    for name, rows in range_records(path, start, end, "quality"):
        yield name, _parse_scores(rows, str(path))


def _parse_scores(rows: list[str], path: str) -> np.ndarray:
    text = " ".join(rows)
    tokens = text.split()
    if not tokens:
        return np.empty(0, dtype=np.uint8)
    try:
        return np.array([int(t) for t in tokens], dtype=np.uint8)
    except (ValueError, OverflowError) as exc:
        raise FileFormatError(f"malformed quality row: {exc}", path=path) from None
