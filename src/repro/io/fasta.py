"""Reptile-style fasta reading and writing.

The fasta files Reptile consumes have numeric record names — the sequence
number, ascending from 1 — because Step I of the parallel algorithm uses the
number to line the fasta file up with the quality file after each rank seeks
to its byte offset.  Multi-line sequence bodies are accepted on input; output
is always single-line.
"""

from __future__ import annotations

import io
import os
from typing import Iterable, Iterator

from repro.errors import FileFormatError


def write_fasta(path: str | os.PathLike, seqs: Iterable[str],
                start_id: int = 1) -> int:
    """Write reads with ascending numeric names; returns #records written."""
    n = 0
    with open(path, "w", encoding="ascii") as fh:
        for i, seq in enumerate(seqs, start=start_id):
            fh.write(f">{i}\n{seq}\n")
            n += 1
    return n


def _parse_records(fh: io.TextIOBase, path: str) -> Iterator[tuple[int, str]]:
    """Yield (sequence_number, sequence) from an open text handle."""
    name: int | None = None
    parts: list[str] = []
    lineno = 0
    for line in fh:
        lineno += 1
        line = line.rstrip("\r\n")
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                yield name, "".join(parts)
            token = line[1:].split()[0] if len(line) > 1 else ""
            try:
                name = int(token)
            except ValueError:
                raise FileFormatError(
                    f"fasta record name {token!r} is not a sequence number",
                    path=path, line=lineno,
                ) from None
            parts = []
        else:
            if name is None:
                raise FileFormatError(
                    "sequence data before any '>' header", path=path, line=lineno
                )
            parts.append(line)
    if name is not None:
        yield name, "".join(parts)


def read_fasta(path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    """Iterate (sequence_number, sequence) over a whole fasta file."""
    with open(path, "r", encoding="ascii") as fh:
        yield from _parse_records(fh, str(path))


def range_records(
    path: str | os.PathLike, start: int, end: int, what: str
) -> Iterator[tuple[int, list[str]]]:
    """``(sequence_number, body lines)`` of the records whose header byte
    lies in ``[start, end)`` of a fasta-shaped file (``what`` names the
    format in errors).

    ``start`` must already be aligned to a record boundary (the ``>`` of a
    header) or be 0; use :func:`repro.io.partition.align_to_record`.  A
    record whose header starts before ``end`` is yielded entirely even if its
    body extends past ``end`` — the next rank's range starts at the next
    header, so records are assigned to exactly one rank.  Offsets are byte
    offsets, advanced by the length of each line read.
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        pos = start
        name: int | None = None
        body: list[str] = []
        for raw in fh:
            line = raw.decode("ascii").rstrip("\r\n")
            if line.startswith(">"):
                if name is not None:
                    yield name, body
                    name = None
                if pos >= end:
                    return
                token = line[1:].split()[0] if len(line) > 1 else ""
                try:
                    name = int(token)
                except ValueError:
                    raise FileFormatError(
                        f"{what} record name {token!r} is not a sequence number",
                        path=str(path),
                    ) from None
                body = []
            elif name is not None:
                body.append(line)
            pos += len(raw)
        if name is not None:
            yield name, body


def read_fasta_range(
    path: str | os.PathLike, start: int, end: int
) -> Iterator[tuple[int, str]]:
    """Iterate the reads whose header byte lies in ``[start, end)``.

    See :func:`range_records` for the range contract.
    """
    for name, body in range_records(path, start, end, "fasta"):
        yield name, "".join(body)
