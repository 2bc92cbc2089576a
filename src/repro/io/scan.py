"""The one byte-range scanner behind every fasta / quality reader.

A fasta-shaped file is a run of records, each a header line (``>`` at a
line start, then the sequence number) followed by body lines up to the next
header.  :func:`scan_records` turns the bytes ``[lo, hi)`` of such a file —
a whole number of records, ``lo`` and ``hi`` being header offsets from
:func:`align` — into flat arrays: the line starts come from one
``flatnonzero(buf == LF)``, header and body lines are told apart by their
first byte, and every base or score of the range is produced by whole-array
passes, so no ``str``, list or array exists per record.

The grammar enforced (see ``docs/FORMATS.md``):

* a header is ``>`` immediately followed by 1–18 decimal digits, then the
  end of the line or a blank and anything;
* LF ends a line; CR is ignored (CRLF files read the same), so blank lines
  and multi-line bodies vanish into the record they belong to;
* a fasta body is any ASCII byte (what is not ``ACGTacgt`` is ambiguous);
* a quality body is decimal scores ``0``–``255`` of 1–3 digits separated by
  space, tab or line breaks — no sign, no underscore, nothing else.

Anything else is a :class:`~repro.errors.FileFormatError` carrying the
path, the line and, where one is known, the sequence number.

Temporaries are bounded: the range is read and parsed in pieces of
:data:`PIECE_BYTES`, a record cut by a piece boundary being carried into
the next, so the index arrays a piece needs (several bytes per input byte)
never scale with the size of a rank's range.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Iterator, Literal, NamedTuple, NoReturn

import numpy as np
from numpy.typing import NDArray

from repro.errors import FileFormatError

#: Bytes read and parsed at a time.  The parser's temporaries are ~10x the
#: piece, so this bounds Step I's transient memory whatever the range size;
#: it is a constant, not a knob (a piece only grows, by doubling, while a
#: single record does not fit).
PIECE_BYTES = 1 << 16

#: Which body grammar a scan applies.
Kind = Literal["fasta", "quality"]

_LF, _CR, _GT = 10, 13, 62

#: The blanks: tab, LF, CR and space.
_BLANK = np.zeros(256, dtype=bool)
_BLANK[[9, _LF, _CR, 32]] = True

#: Sequence numbers of up to this many digits fit an int64.
_MAX_DIGITS = 18
#: A header's bytes read after its '>': the longest name and one more.
_NAME_COLUMNS = _MAX_DIGITS + 1
#: Column ``j`` of a header matrix is byte ``j + 1`` of the header.
_COLUMN = np.arange(_NAME_COLUMNS)[:, None]
#: ``[j, n]``: the place value of column ``j`` in an ``n``-digit name,
#: ``10**(n - 1 - j)`` for ``j < n``, 0 past the name.
_PLACE_VALUE = np.where(
    _COLUMN < np.arange(_NAME_COLUMNS + 1),
    10 ** np.maximum(np.arange(_NAME_COLUMNS + 1) - 1 - _COLUMN, 0),
    0,
).astype(np.int64)


class Piece(NamedTuple):
    """Some consecutive records of a range, flat.

    ``values`` concatenates the records' bodies — ASCII bases for a fasta
    scan, scores for a quality scan — and ``lengths[i]`` of them belong to
    the record named ``names[i]``.
    """

    names: NDArray[np.int64]
    lengths: NDArray[np.int64]
    values: NDArray[np.uint8]


def file_size(fh: BinaryIO) -> int:
    """Size in bytes of an open file."""
    return os.fstat(fh.fileno()).st_size


def align(fh: BinaryIO, size: int, offset: int) -> int:
    """Smallest record-header offset >= ``offset`` in the open file.

    A record header is a ``>`` at the start of a line.  Offset 0 is always
    aligned; ``size`` is returned when no header follows ``offset``.
    """
    if offset <= 0:
        return 0
    if offset >= size:
        return size
    # From one byte back, so a '>' exactly at `offset` is seen to follow
    # its LF; blocks overlap by a byte so a pair is never split.
    pos = offset - 1
    block_bytes = 4096
    while True:
        fh.seek(pos)
        block = fh.read(block_bytes)
        at = block.find(b"\n>")
        if at >= 0:
            return pos + at + 1
        if len(block) < block_bytes:
            return size
        pos += block_bytes - 1


def _fail(fh: BinaryIO, offset: int, message: str) -> NoReturn:
    """Raise ``message`` located at byte ``offset`` of the file."""
    fh.seek(0)
    line, left = 1, offset
    while left > 0:
        block = fh.read(min(left, 1 << 20))
        if not block:
            break
        line += block.count(b"\n")
        left -= len(block)
    raise FileFormatError(message, path=str(fh.name), line=line)


def _sequence_numbers(
    fh: BinaryIO,
    base: int,
    kind: Kind,
    buf: NDArray[np.uint8],
    heads: NDArray[np.intp],
    ends: NDArray[np.intp],
) -> NDArray[np.int64]:
    """The numbers of the header lines ``[heads[i], ends[i])`` of ``buf``.

    A fixed number of passes over all headers at once, not one ``int()``
    per header: the bytes after each ``>`` — as many as the longest
    header line holds, at most a name and one more — are gathered into
    one small matrix, a row per byte column.  A name's length is its
    first column that is no digit, and its value is its digits weighted
    by the place values that length gives them.
    """
    width = min(_NAME_COLUMNS, int((ends - heads).max()))
    if int(heads[-1]) + 1 + width > buf.shape[0]:
        # A header line ending the file has no LF: pad with bytes that
        # are no digit, so every column exists and its name stops there.
        buf = np.concatenate((buf, np.zeros(width, dtype=np.uint8)))
    digits = buf.take(heads + 1 + _COLUMN[:width])
    digits -= np.uint8(48)
    # Any other header line ends at an LF, which is no digit either; a
    # row of digits only has one digit too many.
    lengths = np.where(digits < 10, _NAME_COLUMNS, _COLUMN[:width]).min(axis=0)
    # A name is digits that are there at all and end at a blank or the
    # end of the line.
    stop = heads + 1 + lengths
    bad = (lengths == 0) | (lengths == _NAME_COLUMNS)
    after = buf.take(np.minimum(stop, buf.shape[0] - 1))
    bad |= (stop < ends) & ~_BLANK.take(after)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        line = buf[int(heads[k]) + 1 : int(ends[k])].tobytes()
        token = b"" if line[:1].isspace() else b"".join(line.split()[:1])
        _fail(
            fh, base + int(heads[k]),
            f"{kind} record name {token.decode('ascii', 'replace')!r} "
            "is not a sequence number",
        )
    values = _PLACE_VALUE[:width].take(lengths, axis=1)
    values *= digits
    names: NDArray[np.int64] = values.sum(axis=0)
    return names


def _scores(
    fh: BinaryIO,
    base: int,
    buf: NDArray[np.uint8],
    in_header: NDArray[np.bool_],
    heads: NDArray[np.intp],
    names: NDArray[np.int64],
) -> tuple[NDArray[np.int64], NDArray[np.uint8]]:
    """``(scores per record, scores)`` of a quality piece.

    Elementwise passes over the piece, no table lookup: a digit is a byte
    whose value less 48 is under 10, and each digit run's value is built
    at every byte from the digits one and two places before it (each
    masked by the run still going on), then gathered once at the run ends.
    """

    def fail(at: int, why: str) -> NoReturn:
        name = int(names[np.searchsorted(heads, at, side="right") - 1])
        _fail(fh, base + at, f"{why} in the scores of sequence number {name}")

    value = buf - np.uint8(48)
    digit = value < 10
    # A header's own digits are not scores, and its line is no error here.
    digit &= ~in_header
    ok = digit | in_header
    for blank in (9, _LF, _CR, 32):
        ok |= buf == blank
    if not ok.all():
        at = int(ok.argmin())
        fail(at, f"byte {bytes(buf[at : at + 1])!r} is not a digit or a blank")
    value *= digit
    # `runs[i - 1]`: bytes i - 1 and i are digits of one run.  The value
    # of a run ending at byte i is digit i, plus 10 x digit i - 1 (zero
    # unless a digit), plus 100 x digit i - 2 where byte i - 1 is a digit
    # too; `four[i - 3]`: byte i is a fourth digit, one too many.
    runs = digit[1:] & digit[:-1]
    four = runs[2:] & runs[:-2]
    scores = value.astype(np.int16)
    scores[1:] += value[:-1] * np.int16(10)
    scores[2:] += (value[:-2] * runs[:-1]) * np.int16(100)
    run_end = digit.copy()
    run_end[:-1] &= ~digit[1:]
    stops = np.flatnonzero(run_end)
    scores = scores.take(stops)
    if four.any() or (scores.shape[0] and scores.max() > 255):
        too_long = np.flatnonzero(four)[:1] + 3
        too_high = stops[scores > 255][:1]
        at = int(np.concatenate((too_long, too_high)).min())
        fail(at, "a score above 255")
    first = np.searchsorted(stops, np.append(heads, buf.shape[0]))
    return np.diff(first), scores.astype(np.uint8)


def _bases(
    fh: BinaryIO,
    base: int,
    buf: NDArray[np.uint8],
    in_header: NDArray[np.bool_],
    heads: NDArray[np.intp],
) -> tuple[NDArray[np.int64], NDArray[np.uint8]]:
    """``(bases per record, ASCII bases)`` of a fasta piece."""
    keep = ~in_header
    keep &= buf != _LF
    keep &= buf != _CR
    bases = buf[keep]
    if bases.shape[0] and bases.max() > 127:
        at = int(np.flatnonzero(keep & (buf > 127))[0])
        _fail(fh, base + at, f"non-ASCII byte {bytes(buf[at : at + 1])!r}")
    return np.add.reduceat(keep, heads, dtype=np.int64), bases


def _parse(
    fh: BinaryIO, base: int, kind: Kind, buf: NDArray[np.uint8], final: bool
) -> tuple[Piece | None, int]:
    """Parse the whole records at the front of ``buf`` (file offset
    ``base``); returns them and the bytes they took.  Unless ``final``,
    the record of the last header in ``buf`` may be cut short and is left
    for the next piece."""
    size = buf.shape[0]
    if not size:
        return None, 0
    line_ends = np.flatnonzero(buf == _LF) + 1
    if buf[-1] != _LF:
        line_ends = np.append(line_ends, size)
    line_starts = np.concatenate(([0], line_ends[:-1]))
    is_header = buf[line_starts] == _GT
    header_lines = np.flatnonzero(is_header)
    if not final:
        if header_lines.shape[0] < 2:
            return None, 0
        lines = int(header_lines[-1])
        size = int(line_starts[lines])
        buf = buf[:size]
        header_lines = header_lines[:-1]
        line_starts, line_ends = line_starts[:lines], line_ends[:lines]
        is_header = is_header[:lines]
    heads = line_starts[header_lines]
    # Only line breaks may come before the first header.
    before = buf[: int(heads[0]) if heads.shape[0] else size]
    stray = (before != _LF) & (before != _CR)
    if stray.any():
        _fail(
            fh, base + int(np.flatnonzero(stray)[0]),
            f"{kind} data before any '>' header",
        )
    if not heads.shape[0]:
        return None, size
    names = _sequence_numbers(
        fh, base, kind, buf, heads, line_ends[header_lines]
    )
    in_header = np.repeat(is_header, line_ends - line_starts)
    if kind == "fasta":
        lengths, values = _bases(fh, base, buf, in_header, heads)
    else:
        lengths, values = _scores(fh, base, buf, in_header, heads, names)
    return Piece(names, lengths, values), size


def scan_records(
    fh: BinaryIO, lo: int, hi: int, kind: Kind
) -> Iterator[Piece]:
    """The records in bytes ``[lo, hi)`` of an open file, piece by piece.

    ``lo`` and ``hi`` must each be 0, the file size or a header offset
    (:func:`align`), so the range holds whole records; exactly those bytes
    are read, each once.
    """
    carry = b""  # the cut-short record before `pos`, read but not parsed
    want = PIECE_BYTES
    pos = lo
    while pos < hi:
        fh.seek(pos)
        chunk = fh.read(min(want, hi - pos))
        pos += len(chunk)
        data = carry + chunk
        # A file cut short under us ends the range where the bytes end.
        final = not chunk or pos >= hi
        piece, used = _parse(
            fh, pos - len(data), kind, np.frombuffer(data, dtype=np.uint8),
            final,
        )
        if piece is not None:
            yield piece
        if final:
            return
        # No whole record yet: read twice as much before parsing again.
        want = PIECE_BYTES if used else 2 * want
        carry = data[used:]


def read_range(
    path: str | os.PathLike[str], start: int, end: int, kind: Kind
) -> Iterator[Piece]:
    """The records whose header byte lies in ``[start, end)`` of a file.

    ``start`` must be 0 or a header offset; a record whose header starts
    before ``end`` is read whole even if its body runs past ``end`` — the
    next range starts at the next header, so adjacent ranges share no
    record.
    """
    with open(path, "rb") as fh:
        yield from scan_records(fh, start, align(fh, file_size(fh), end), kind)
