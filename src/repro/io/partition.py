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


#: The bytes of a quality window's first widening step each way; each
#: next step in that direction doubles.
FIRST_STEP = 1 << 12

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
    _, ascending = _sorted_distinct(ids, fasta_path)
    scores = None
    if qual_path is not None:
        scores = _scores_for_ids(
            qual_path, nranks, rank, ids, lengths, ascending
        )
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


def _members(values: np.ndarray, ascending: np.ndarray) -> np.ndarray:
    """``np.isin(values, ascending)`` for ``ascending`` sorted, by binary
    search."""
    if not ascending.shape[0]:
        return np.zeros(values.shape, dtype=bool)
    at = np.searchsorted(ascending, values)
    return ascending.take(at, mode="clip") == values


def _scores_for_ids(
    qual_path: str | os.PathLike,
    nranks: int,
    rank: int,
    ids: np.ndarray,
    lengths: np.ndarray,
    ascending: np.ndarray,
) -> np.ndarray:
    """The quality scores of the reads ``ids``, back to back in that order;
    ``ascending`` is ``ids`` sorted.

    Starts from the rank's aligned byte range of the quality file and,
    while a wanted sequence number is missing, widens the window outward
    from its cuts — mirroring the paper's resynchronization by sequence
    number.  A widening step starts at :data:`FIRST_STEP` bytes and each
    next one in that direction is twice as wide, aligned to a record
    header and never past the neighbour's cut; downward steps walk back
    from the cut, so the nearest records come first.  Each step parses
    only bytes no step parsed before, so no byte is parsed twice, and a
    direction stops at the step holding its last wanted record: a rank
    parses its range, at most twice the bytes of the records it lacks
    each way, and a first step.  (A scan stops early only once every
    record is found, which does not bound a downward step: its wanted
    records sit at its end.)  Only wanted records are kept.
    """
    wanted, lowest, highest = ids.shape[0], ascending[0], ascending[-1]
    kept: list[Piece] = []
    found = 0
    first = last = False

    def scan(lo: int, hi: int) -> None:
        nonlocal found, first, last
        if found >= wanted:
            return
        for piece in scan_records(fh, lo, hi, "quality"):
            hit = _members(piece.names, ascending)
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
        size = file_size(fh)
        start, end = _cut(fh, nranks, rank), _cut(fh, nranks, rank + 1)
        scan(start, end)
        # The ranks whose cuts bound the window, and the next step's width
        # each way.  A step stops at the neighbour's cut (`edge` aligns to
        # it); the next one goes on into the range beyond.
        lo_rank, hi_rank = rank, rank + 1
        down = up = FIRST_STEP
        while found < wanted:
            widened = False
            if not first and lo_rank > 0:
                edge = size * (lo_rank - 1) // nranks
                if start - down <= edge:
                    lo_rank -= 1
                below = align(fh, size, max(start - down, edge))
                scan(below, start)
                start, down = below, 2 * down
                widened = True
            if not last and hi_rank < nranks:
                edge = size * (hi_rank + 1) // nranks
                if end + up >= edge:
                    hi_rank += 1
                above = align(fh, size, min(end + up, edge))
                scan(end, above)
                end, up = above, 2 * up
                widened = True
            if not widened:
                # Neither end explains the gap: look everywhere else, once.
                scan(0, start)
                scan(end, size)
                break
    names, counts, scores = _joined(kept)
    order, held = _sorted_distinct(names, qual_path)
    # Every record kept is wanted and none is held twice, so a number is
    # missing exactly when fewer are held than wanted.
    if held.shape[0] < wanted:
        missing = ascending[~_members(ascending, held)]
        raise FileFormatError(
            f"quality file lacks sequence numbers "
            f"{missing[:5].tolist()}...",
            path=str(qual_path),
        )
    take = order[np.searchsorted(held, ids)]
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
