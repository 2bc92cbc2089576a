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

import numpy as np

from repro.errors import FileFormatError
from repro.io.fasta import read_fasta_range
from repro.io.quality import read_quality_range
from repro.io.records import ReadBlock


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
    size = os.path.getsize(path)
    if offset <= 0:
        return 0
    if offset >= size:
        return size
    with open(path, "rb") as fh:
        # Step back one byte so a '>' exactly at `offset` preceded by '\n'
        # is detected as line-initial.
        fh.seek(offset - 1)
        prev = fh.read(1)
        pos = offset
        if prev == b"\n":
            nxt = fh.read(1)
            if nxt == b">":
                return offset
            pos = offset + 1 if nxt else size
        # Scan forward line by line.
        fh.seek(offset)
        # Discard the (possibly partial) current line.
        line = fh.readline()
        pos = offset + len(line)
        while pos < size:
            line = fh.readline()
            if not line:
                return size
            if line.startswith(b">"):
                return pos
            pos += len(line)
    return size


def partition_fasta(path: str | os.PathLike, nranks: int) -> list[tuple[int, int]]:
    """Aligned [start, end) byte ranges per rank for a fasta/quality file.

    Adjacent ranges share boundaries, so every record belongs to exactly one
    rank.  A rank may legitimately receive an empty range for tiny files.
    """
    size = os.path.getsize(path)
    cuts = [align_to_record(path, byte_partition(size, nranks, r)[0]) for r in range(nranks)]
    cuts.append(size)
    return [(cuts[r], cuts[r + 1]) for r in range(nranks)]


def load_rank_block(
    fasta_path: str | os.PathLike,
    qual_path: str | os.PathLike | None,
    nranks: int,
    rank: int,
) -> ReadBlock:
    """Load rank ``rank``'s subset of reads (with qualities) as a ReadBlock.

    This is the complete Step I for one rank: byte-partition the fasta file,
    align, read records, then fetch the same sequence numbers from the
    quality file.
    """
    ranges = partition_fasta(fasta_path, nranks)
    start, end = ranges[rank]
    records = list(read_fasta_range(fasta_path, start, end))
    if not records:
        return ReadBlock.empty()
    ids = [rid for rid, _ in records]
    seqs = [seq for _, seq in records]
    if qual_path is None:
        return ReadBlock.from_strings(seqs, ids=ids)
    quals = _quality_for_ids(qual_path, nranks, rank, ids)
    return ReadBlock.from_strings(seqs, ids=ids, quals=quals)


def _quality_for_ids(
    qual_path: str | os.PathLike,
    nranks: int,
    rank: int,
    wanted_ids: list[int],
) -> list[np.ndarray]:
    """Quality rows for the given sequence numbers.

    Starts from the rank's aligned byte range of the quality file and widens
    the window (previous/next ranges) until every wanted sequence number is
    found — mirroring the paper's resynchronization by sequence number.
    Each widening scans only the bytes it adds, and a scan stops at the
    last wanted record, so no record is parsed twice.
    """
    size = os.path.getsize(qual_path)
    ranges = partition_fasta(qual_path, nranks)
    wanted = set(wanted_ids)
    first, last = min(wanted), max(wanted)
    found: dict[int, np.ndarray] = {}

    def scan(lo: int, hi: int) -> None:
        if len(found) == len(wanted):
            return
        for rid, scores in read_quality_range(qual_path, lo, hi):
            if rid in wanted:
                found[rid] = scores
                if len(found) == len(wanted):
                    return

    lo_rank = hi_rank = rank
    start, end = ranges[rank]
    scan(start, end)
    while len(found) < len(wanted):
        widened = False
        if first not in found and lo_rank > 0:
            lo_rank -= 1
            scan(ranges[lo_rank][0], start)
            start = ranges[lo_rank][0]
            widened = True
        if last not in found and hi_rank < nranks - 1:
            hi_rank += 1
            scan(end, ranges[hi_rank][1])
            end = ranges[hi_rank][1]
            widened = True
        if not widened:
            # Neither end explains the gap: look everywhere else, once.
            scan(0, start)
            scan(end, size)
            if len(found) < len(wanted):
                missing = sorted(wanted - set(found))[:5]
                raise FileFormatError(
                    f"quality file lacks sequence numbers {missing}...",
                    path=str(qual_path),
                )
    return [found[rid] for rid in wanted_ids]
