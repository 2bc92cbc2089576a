"""Reptile-style quality score files.

A quality file mirrors the fasta file: the same numeric record names in the
same order, each followed by one line of space-separated integer Phred
scores, one per base.  Step I reads this file with the same byte-offset
partitioning as the fasta file, then lines the two up by sequence number.
"""

from __future__ import annotations

import os
from itertools import count
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.io.fasta import write_records
from repro.io.scan import read_range

# The text of every score a quality file can hold.
_TOKEN = {q: str(q) for q in range(256)}


def write_quality(
    path: str | os.PathLike,
    quals: Iterable[Sequence[int]],
    start_id: int = 1,
) -> int:
    """Write per-read quality rows with ascending numeric names."""
    return write_scores(path, count(start_id), quals)


def write_scores(
    path: str | os.PathLike,
    names: Iterable[int],
    quals: Iterable[Sequence[int]],
) -> int:
    """Write quality rows, each under the next of ``names``; returns
    #records written.  A score outside 0-255 is a :class:`ValueError`:
    no reader accepts it."""
    token = _TOKEN.__getitem__
    rows = (
        " ".join(map(
            token, row.tolist() if isinstance(row, np.ndarray) else row
        ))
        for row in quals
    )
    try:
        # A quality file is fasta-shaped: score text where the bases go.
        return write_records(path, names, rows)
    except KeyError as exc:
        raise ValueError(
            f"{path}: quality score {exc.args[0]!r} is outside 0-255"
        ) from None


def read_quality(path: str | os.PathLike) -> Iterator[tuple[int, np.ndarray]]:
    """Iterate (sequence_number, scores) over a whole quality file."""
    return read_quality_range(path, 0, os.path.getsize(path))


def read_quality_range(
    path: str | os.PathLike, start: int, end: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Iterate records whose header byte lies in ``[start, end)``.

    Same contract as :func:`repro.io.fasta.read_fasta_range`.
    """
    for names, lengths, scores in read_range(path, start, end, "quality"):
        yield from zip(
            names.tolist(), np.split(scores, np.cumsum(lengths)[:-1])
        )
