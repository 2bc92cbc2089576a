"""Reptile-style fasta reading and writing.

The fasta files Reptile consumes have numeric record names — the sequence
number, ascending from 1 — because Step I of the parallel algorithm uses the
number to line the fasta file up with the quality file after each rank seeks
to its byte offset.  Multi-line sequence bodies are accepted on input; output
is always single-line.
"""

from __future__ import annotations

import os
from itertools import count, islice
from typing import Iterable, Iterator

import numpy as np

from repro.io.scan import read_range

#: Records joined into one ``write`` by the writers, so a file of any size
#: is written from bounded strings.
WRITE_BATCH = 4096


def write_fasta(path: str | os.PathLike, seqs: Iterable[str],
                start_id: int = 1) -> int:
    """Write reads with ascending numeric names; returns #records written."""
    return write_records(path, count(start_id), seqs)


def write_records(path: str | os.PathLike, names: Iterable[int],
                  rows: Iterable[str]) -> int:
    """Write fasta-shaped records, each of ``rows`` under the next of
    ``names``; returns #records written."""
    records = zip(names, rows)
    n = 0
    with open(path, "w", encoding="ascii") as fh:
        while batch := list(islice(records, WRITE_BATCH)):
            fh.write("".join([f">{name}\n{row}\n" for name, row in batch]))
            n += len(batch)
    return n


def read_fasta(path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    """Iterate (sequence_number, sequence) over a whole fasta file."""
    return read_fasta_range(path, 0, os.path.getsize(path))


def read_fasta_range(
    path: str | os.PathLike, start: int, end: int
) -> Iterator[tuple[int, str]]:
    """Iterate the reads whose header byte lies in ``[start, end)``.

    ``start`` must already be aligned to a record boundary (the ``>`` of a
    header) or be 0; use :func:`repro.io.partition.align_to_record`.  A
    record whose header starts before ``end`` is yielded entirely even if its
    body extends past ``end`` — the next rank's range starts at the next
    header, so records are assigned to exactly one rank.  Offsets are byte
    offsets.
    """
    for names, lengths, bases in read_range(path, start, end, "fasta"):
        text = bases.tobytes().decode("ascii")
        stops = np.cumsum(lengths).tolist()
        yield from zip(
            names.tolist(),
            (text[a:b] for a, b in zip([0] + stops, stops)),
        )
