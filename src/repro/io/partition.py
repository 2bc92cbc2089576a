"""Step I: parallel partitioned reading of the fasta + quality pair.

"Each rank computes its subset of the reads whose size is simply the file
size divided by the number of ranks.  The subset of reads are processed
beginning with an offset from the start of the file.  The offset is based on
the rank.  Each rank starts reading the fasta file from this offset and
records the starting sequence number.  It then looks up the same sequence
number in the quality score file ..."

Here the fasta file is partitioned by byte offset; each rank aligns its
offset forward to the next record header, reads its records, and the quality
file records for the *same sequence numbers* are located by scanning the
rank's corresponding quality byte range (quality records can straddle the
naive byte boundary, so the scan widens the window as needed — equivalent to
the paper's "look up the same sequence number").
"""

from __future__ import annotations

import os
from typing import BinaryIO, Iterable

import numpy as np

from repro.errors import FileFormatError
from repro.io.fasta import write_records
from repro.io.quality import write_scores
from repro.io.records import ReadBlock
from repro.io.scan import Piece, align, file_size, scan_records


_NO_RECORDS = Piece(
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.uint8),
)


def byte_partition(file_size: int, nranks: int, rank: int) -> tuple[int, int]:
    """Naive byte range [start, end) of ``rank`` out of ``nranks``."""
    if nranks <= 0:
        raise ValueError("nranks must be positive")
    if not 0 <= rank < nranks:
        raise ValueError(f"rank {rank} out of range for nranks={nranks}")
    start = file_size * rank // nranks
    end = file_size * (rank + 1) // nranks
    return start, end


def slice_bounds(n: int, nranks: int) -> list[int]:
    """Contiguous per-rank row bounds of an ``n``-read in-memory dataset
    (:func:`byte_partition`'s rule, counted in reads)."""
    return [n * r // nranks for r in range(nranks + 1)]


def align_to_record(path: str | os.PathLike, offset: int) -> int:
    """Smallest record-header offset >= ``offset``.

    A record header is a ``>`` at the start of a line.  Offset 0 is always
    aligned.  Returns the file size when no header follows ``offset``.
    """
    with open(path, "rb") as fh:
        return align(fh, file_size(fh), offset)


def partition_fasta(path: str | os.PathLike, nranks: int) -> list[tuple[int, int]]:
    """Aligned [start, end) byte ranges per rank for a fasta/quality file.

    Adjacent ranges share boundaries, so every record belongs to exactly one
    rank.  A rank may legitimately receive an empty range for tiny files.
    """
    with open(path, "rb") as fh:
        cuts = [_cut(fh, nranks, r) for r in range(nranks + 1)]
    return [(cuts[r], cuts[r + 1]) for r in range(nranks)]


def _cut(fh: BinaryIO, nranks: int, rank: int) -> int:
    """Where rank ``rank``'s aligned range of the open file starts (the file
    size for ``rank == nranks``): a rank finds its own two cuts, and a
    neighbour's only when its quality window widens, never all ``P``."""
    size = file_size(fh)
    return align(fh, size, size * rank // nranks)


def load_rank_block(
    fasta_path: str | os.PathLike,
    qual_path: str | os.PathLike | None,
    nranks: int,
    rank: int,
) -> ReadBlock:
    """Load rank ``rank``'s subset of reads (with qualities) as a ReadBlock.

    This is the complete Step I for one rank: byte-partition the fasta file,
    align, read records, then fetch the same sequence numbers from the
    quality file.  Each file is opened once and the rank's byte range goes
    from the scanner's flat arrays straight into the block.
    """
    with open(fasta_path, "rb") as fh:
        size = file_size(fh)
        lo, hi = (
            align(fh, size, at) for at in byte_partition(size, nranks, rank)
        )
        ids, lengths, bases = _joined(scan_records(fh, lo, hi, "fasta"))
    if not ids.shape[0]:
        return ReadBlock.empty()
    _sorted_distinct(ids, fasta_path)
    scores = None
    if qual_path is not None:
        scores = _scores_for_ids(qual_path, nranks, rank, ids, lengths)
    return ReadBlock.from_flat(ids, lengths, bases, scores)


def write_block(
    block: ReadBlock,
    fasta_path: str | os.PathLike,
    qual_path: str | os.PathLike | None = None,
) -> int:
    """The inverse of :func:`load_rank_block`: write ``block`` as the
    fasta (+ quality) pair, each record named by its own read id, so the
    output lines up with the input whatever names it used.  Returns the
    number of reads written."""
    ids = block.ids.tolist()
    if qual_path is not None:
        write_scores(qual_path, ids, map(
            lambda row, n: row[:n], block.quals, block.lengths
        ))
    return write_records(fasta_path, ids, block.to_strings())


def _joined(pieces: Iterable[Piece]) -> Piece:
    """Consecutive pieces (or none) as one."""
    return Piece(*map(np.concatenate, zip(_NO_RECORDS, *pieces)))


def _sorted_distinct(
    names: np.ndarray, path: str | os.PathLike
) -> tuple[np.ndarray, np.ndarray]:
    """``(order, names[order])`` ascending; a sequence number held twice is
    a :class:`FileFormatError`, since two records would answer for it."""
    order = np.argsort(names, kind="stable")
    ascending = names[order]
    twice = ascending[1:] == ascending[:-1]
    if twice.any():
        raise FileFormatError(
            f"sequence number {ascending[1:][twice][0]} appears twice",
            path=str(path),
        )
    return order, ascending


def _scores_for_ids(
    qual_path: str | os.PathLike,
    nranks: int,
    rank: int,
    ids: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """The quality scores of the reads ``ids``, back to back in that order.

    Starts from the rank's aligned byte range of the quality file and widens
    the window (previous/next ranges) until every wanted sequence number is
    found — mirroring the paper's resynchronization by sequence number.
    Each widening scans only the bytes it adds, and a scan stops at the
    last wanted record, so no byte is parsed twice; only wanted records are
    kept.
    """
    wanted, lowest, highest = ids.shape[0], ids.min(), ids.max()
    kept: list[Piece] = []
    found = 0
    first = last = False

    def scan(lo: int, hi: int) -> None:
        nonlocal found, first, last
        if found >= wanted:
            return
        for piece in scan_records(fh, lo, hi, "quality"):
            hit = np.isin(piece.names, ids)
            if not hit.all():
                piece = Piece(
                    piece.names[hit], piece.lengths[hit],
                    piece.values[np.repeat(hit, piece.lengths)],
                )
            kept.append(piece)
            found += piece.names.shape[0]
            first |= bool((piece.names == lowest).any())
            last |= bool((piece.names == highest).any())
            if found >= wanted:
                return

    with open(qual_path, "rb") as fh:
        lo_rank, hi_rank = rank, rank + 1
        start, end = _cut(fh, nranks, lo_rank), _cut(fh, nranks, hi_rank)
        scan(start, end)
        while found < wanted:
            widened = False
            if not first and lo_rank > 0:
                lo_rank -= 1
                below = _cut(fh, nranks, lo_rank)
                scan(below, start)
                start = below
                widened = True
            if not last and hi_rank < nranks:
                hi_rank += 1
                above = _cut(fh, nranks, hi_rank)
                scan(end, above)
                end = above
                widened = True
            if not widened:
                # Neither end explains the gap: look everywhere else, once.
                scan(0, start)
                scan(end, file_size(fh))
                break
    names, counts, scores = _joined(kept)
    order, ascending = _sorted_distinct(names, qual_path)
    missing = ~np.isin(ids, names)
    if missing.any():
        raise FileFormatError(
            f"quality file lacks sequence numbers "
            f"{np.sort(ids[missing])[:5].tolist()}...",
            path=str(qual_path),
        )
    take = order[np.searchsorted(ascending, ids)]
    uneven = counts[take] != lengths
    if uneven.any():
        i = int(np.flatnonzero(uneven)[0])
        raise FileFormatError(
            f"{counts[take[i]]} quality scores for the {lengths[i]} bases "
            f"of sequence number {ids[i]}",
            path=str(qual_path),
        )
    # Rows are copied a run of consecutive records at a time: one run when
    # both files name their records in the same order.
    stops = np.cumsum(counts)
    breaks = np.flatnonzero(np.diff(take) != 1) + 1
    runs = zip(
        take[np.concatenate(([0], breaks))],
        take[np.concatenate((breaks - 1, [-1]))],
    )
    rows = [scores[stops[a] - counts[a] : stops[b]] for a, b in runs]
    return rows[0] if len(rows) == 1 else np.concatenate(rows)
