"""2-bit DNA codec and vectorized window-id extraction.

A base maps to two bits (A=0, C=1, G=2, T=3); a window of ``w <= 32``
(:data:`MAX_K`) bases maps to an unsigned id with the leftmost base in the
most significant position, exactly like Reptile's integer k-mer IDs.
:class:`WindowLadder` gives a whole block's ids at id width (uint32 when
``2w <= 32``); :func:`block_window_ids` is its frozen uint64 reference.

Ambiguous bases (``N`` and any other IUPAC code) are tolerated on input:
:func:`encode_sequence` marks them with :data:`INVALID_CODE` and
:func:`window_ids` reports a validity mask so windows touching an ambiguous
base can be skipped, which is what Reptile does.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.errors import CodecError

#: Largest window length whose 2-bit code fits in a uint64.
MAX_K = 32

#: Sentinel code for a base that is not one of A/C/G/T.
INVALID_CODE = np.uint8(0xFF)

_BASES = "ACGT"

# ASCII lookup table: both cases of ACGT map to 0..3, everything else to 0xFF.
# Both tables are ``bytes.translate`` tables: that is the lookup at one byte
# per base, where indexing a numpy table with a uint8 array first widens
# every index to 8 bytes.
_ENCODE_LUT = bytes(
    # A byte that is not a base is not found: -1, i.e. INVALID_CODE.
    _BASES.find(chr(b).upper()) & 0xFF if b < 128 else 0xFF
    for b in range(256)
)

# The inverse: codes 0..3 map to ACGT, every other byte to 'N'.
_DECODE_LUT = (_BASES + "N" * 252).encode("ascii")


def encode_sequence(
    seq: str | bytes | NDArray[np.uint8],
) -> NDArray[np.uint8]:
    """Encode a DNA sequence into an array of 2-bit codes (dtype uint8).

    Ambiguous bases become :data:`INVALID_CODE`; no exception is raised so
    callers can decide window-by-window (see :func:`window_ids`).

    Parameters
    ----------
    seq:
        A ``str``, ``bytes``, or uint8 array of ASCII codes.
    """
    if isinstance(seq, str):
        raw = seq.encode("ascii", errors="replace")
        shape: tuple[int, ...] = (len(raw),)
    elif isinstance(seq, (bytes, bytearray, memoryview)):
        raw = bytes(seq)
        shape = (len(raw),)
    else:
        array = np.asarray(seq, dtype=np.uint8)
        raw, shape = array.tobytes(), array.shape
    codes: NDArray[np.uint8] = np.frombuffer(
        bytearray(raw.translate(_ENCODE_LUT)), dtype=np.uint8
    ).reshape(shape)
    return codes


def is_valid_sequence(seq: str | bytes) -> bool:
    """True when every base of ``seq`` is one of A/C/G/T (any case)."""
    codes = encode_sequence(seq)
    return bool((codes != INVALID_CODE).all())


def _check_window(w: int) -> None:
    if not 1 <= w <= MAX_K:
        raise CodecError(f"window length must be in [1, {MAX_K}], got {w}")


def window_ids(
    codes: NDArray[np.uint8], w: int
) -> tuple[NDArray[np.uint64], NDArray[np.bool_]]:
    """All length-``w`` window ids of a 2-bit code array, plus validity.

    Returns ``(ids, valid)`` where ``ids`` has dtype uint64 and length
    ``len(codes) - w + 1`` and ``valid[i]`` is False when window ``i``
    contains an ambiguous base (its id is meaningless and must be skipped).

    The computation is a vectorized polynomial evaluation over a sliding
    window view — no Python-level per-base loop.
    """
    _check_window(w)
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    n = codes.shape[0]
    if n < w:
        return (
            np.empty(0, dtype=np.uint64),
            np.empty(0, dtype=bool),
        )
    windows = np.lib.stride_tricks.sliding_window_view(codes, w)
    valid: NDArray[np.bool_] = ~(windows == INVALID_CODE).any(axis=1)
    # Shift weights: leftmost base is most significant.
    shifts = np.arange(w - 1, -1, -1, dtype=np.uint64) * np.uint64(2)
    # 0xFF codes would corrupt the ids; zero them first (masked out anyway).
    clean = np.where(windows == INVALID_CODE, np.uint8(0), windows)
    ids: NDArray[np.uint64] = (clean.astype(np.uint64) << shifts).sum(
        axis=1, dtype=np.uint64
    )
    return ids, valid


def decode_kmer(kid: int, k: int) -> str:
    """Decode a window id back to its DNA string (inverse of encoding)."""
    _check_window(k)
    kid = int(kid)
    if kid < 0 or kid >= 1 << (2 * k):
        raise CodecError(f"id {kid} out of range for k={k}")
    out = []
    for shift in range(2 * (k - 1), -1, -2):
        out.append(_BASES[(kid >> shift) & 3])
    return "".join(out)


def reverse_complement_id(
    kid: int | NDArray[np.unsignedinteger[Any]], k: int
) -> int | NDArray[np.unsignedinteger[Any]]:
    """Reverse-complement of a window id (or array of ids).

    Complementing a 2-bit base is ``3 - code`` (A<->T, C<->G): a NOT.
    Reversal swaps base positions end for end: adjacent lanes, then
    nibbles, then bytes swap, and the ``k`` bases end up on top.  uint32
    ids stay uint32 (``2k <= 32``); everything else is uint64.
    """
    _check_window(k)
    bits = 32 if np.asarray(kid).dtype == np.uint32 and 2 * k <= 32 else 64
    dtype = np.dtype(f"u{bits // 8}").type
    x = ~np.asarray(kid, dtype=dtype)
    for lane, mask in ((2, 0x3333333333333333), (4, 0x0F0F0F0F0F0F0F0F)):
        m, shift = dtype(mask >> (64 - bits)), dtype(lane)
        x = ((x >> shift) & m) | ((x & m) << shift)
    out: NDArray[np.unsignedinteger[Any]] = x.byteswap() >> dtype(bits - 2 * k)
    if np.isscalar(kid) or np.asarray(kid).ndim == 0:
        return int(out)
    return out


def canonical_id(
    kid: int | NDArray[np.uint64], k: int
) -> int | NDArray[np.uint64]:
    """The lexicographically smaller of a window id and its reverse
    complement — the strand-independent representative."""
    rc = reverse_complement_id(kid, k)
    if np.isscalar(kid) or np.asarray(kid).ndim == 0:
        return min(int(kid), int(rc))
    ids = np.asarray(kid, dtype=np.uint64)
    smaller: NDArray[np.uint64] = np.minimum(ids, rc)
    return smaller


def block_window_ids(
    codes: NDArray[np.uint8],
    lengths: NDArray[np.int64] | NDArray[np.int32],
    w: int,
    step: int = 1,
) -> tuple[NDArray[np.uint64], NDArray[np.bool_]]:
    """Window ids for a whole batch of reads at once.

    ``codes`` is a (n_reads, width) 2-bit code matrix (padded rows hold
    :data:`INVALID_CODE`); ``lengths`` gives each read's true length.
    Returns ``(ids, valid)``, both shaped (n_reads, n_starts) where starts
    are ``0, step, 2*step, ...`` up to ``width - w``.  ``valid`` is False for
    windows extending past a read's length or touching an ambiguous base.

    The id computation is a rolling polynomial over ``w`` shifted column
    slices — O(w) vectorized passes, no per-read Python loop and no
    (n, starts, w) uint64 materialization.
    """
    _check_window(w)
    if step < 1:
        raise CodecError(f"step must be >= 1, got {step}")
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    lens = np.asarray(lengths, dtype=np.int64)
    n, width = codes.shape
    if width < w:
        return (
            np.empty((n, 0), dtype=np.uint64),
            np.empty((n, 0), dtype=bool),
        )
    starts = np.arange(0, width - w + 1, step, dtype=np.int64)
    s = starts.shape[0]
    ids = np.zeros((n, s), dtype=np.uint64)
    bad = np.zeros((n, s), dtype=bool)
    clean = np.where(codes == INVALID_CODE, np.uint8(0), codes)
    invalid = codes == INVALID_CODE
    for j in range(w):
        cols = starts + j
        ids <<= np.uint64(2)
        ids |= clean[:, cols].astype(np.uint64)
        bad |= invalid[:, cols]
    within = (starts[None, :] + w) <= lens[:, None]
    return ids, within & ~bad


class WindowLadder:
    """Window ids of a read block from a doubling ladder over its code bytes.

    Level 1 is ``codes & 3``; level ``2L`` is ``(level_L[:, :-L] << 2L) |
    level_L[:, L:]``, the ids of every ``2L``-base window, in the narrowest
    unsigned dtype holding ``4L`` bits.  A ``w``-base window ORs the levels
    of ``w``'s binary digits (12 = 8 + 4) and comes out uint32 when ``2w <=
    32``, else uint64.  At a stride the runs are capped at the step (a
    20-base tile at step 8 reads 8 + 8 + 4), so a strided read builds
    full-width levels only up to its step.  Levels are built on first use
    and kept: k-mers and tiles of one block share them.
    Validity ORs the same runs of the bad-base plane (:data:`INVALID_CODE`,
    past-length padding included), skipped when the block has no bad base.
    """

    def __init__(self, codes: NDArray[np.uint8], lengths: NDArray[np.integer[Any]]) -> None:
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        if codes.ndim != 2:
            raise CodecError(f"codes must be 2-D, got shape {codes.shape}")
        self.width = codes.shape[1]
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self._ids: dict[int, NDArray[Any]] = {1: codes & np.uint8(3)}
        bad = codes == INVALID_CODE
        self._bad: dict[int, NDArray[Any]] | None = {1: bad} if bad.any() else None

    def _level(self, plane: dict[int, NDArray[Any]], size: int) -> NDArray[Any]:
        """Level ``size`` of one plane, doubled up from below on first use."""
        if size not in plane:
            half = size // 2
            low = self._level(plane, half)
            if low.dtype == np.bool_:
                plane[size] = low[:, :-half] | low[:, half:]
            else:  # << as a multiply: numpy's uint8 shift is not vectorized
                dtype = np.dtype(f"u{max(1, size // 4)}").type
                plane[size] = np.multiply(low[:, :-half], dtype(1 << 2 * half), dtype=dtype)
                plane[size] |= low[:, half:]
        return plane[size]

    def windows(
        self, w: int, step: int = 1
    ) -> tuple[NDArray[np.unsignedinteger[Any]], NDArray[np.bool_]]:
        """``(ids, valid)``, both ``(n_reads, n_starts)``, of the windows at
        ``0, step, ...`` up to ``width - w``: :func:`block_window_ids`'s
        contract, at id width."""
        _check_window(w)
        if step < 1:
            raise CodecError(f"step must be >= 1, got {step}")
        dtype = np.uint32 if 2 * w <= 32 else np.uint64
        count = max(0, (self.width - w) // step + 1)
        top = 1 << ((w if step == 1 else min(w, step)).bit_length() - 1)
        sizes = [top] * (w // top) + [
            1 << b for b in range(top.bit_length() - 2, -1, -1) if w >> b & 1
        ]
        ends = list(accumulate(sizes))

        def runs(plane: dict[int, NDArray[Any]]) -> list[NDArray[Any]]:
            return [
                self._level(plane, size)[:, end - size :: step][:, :count]
                for end, size in zip(ends, sizes)
            ]

        first, *rest = runs(self._ids)
        ids = np.multiply(first, dtype(1 << 2 * (w - ends[0])), dtype=dtype)
        for run, end in zip(rest, ends[1:]):
            ids |= run if end == w else np.multiply(run, dtype(1 << 2 * (w - end)), dtype=dtype)
        if self.lengths.min(initial=self.width) < self.width:
            starts = np.arange(count, dtype=np.int64) * step
            valid = (starts + w)[None, :] <= self.lengths[:, None]
        else:
            valid = np.ones(ids.shape, dtype=bool)
        for run in runs(self._bad) if self._bad is not None else ():
            valid &= ~run
        return ids, valid


def decode_sequence(codes: NDArray[np.uint8]) -> str:
    """Decode a 2-bit code array back to a DNA string ('N' for invalid)."""
    codes = np.asarray(codes, dtype=np.uint8)
    return codes.tobytes().translate(_DECODE_LUT).decode("ascii")


def decode_rows(
    codes: NDArray[np.uint8], lengths: NDArray[np.integer]
) -> list[str]:
    """:func:`decode_sequence` of the first ``lengths[i]`` codes of each row.

    The whole matrix is decoded by one table lookup into a single string
    and the rows are sliced out of it, so the cost per read is one slice.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    width = codes.shape[1]
    text = codes.tobytes().translate(_DECODE_LUT).decode("ascii")
    return [
        text[i * width : i * width + n]
        for i, n in enumerate(np.minimum(lengths, width).tolist())
    ]


def pad_rows(
    flat: NDArray[np.uint8], lengths: NDArray[np.integer], fill: int
) -> NDArray[np.uint8]:
    """The other way round from :func:`decode_rows`: ``flat`` holds the
    rows back to back, ``lengths[i]`` values each, and comes back as one
    ``(len(lengths), max(lengths))`` matrix padded with ``fill`` — one
    masked assignment for the batch, not one row write per read, and a
    reshaped copy when the rows are all of one length.

    Raises :class:`ValueError` when ``flat`` does not hold exactly
    ``sum(lengths)`` values.
    """
    n = lengths.shape[0]
    width = int(lengths.max()) if n else 0
    if n and int(lengths.min()) == width:
        return flat.reshape(n, width).copy()
    rows = np.full((n, width), fill, dtype=np.uint8)
    rows[np.arange(width) < lengths[:, None]] = flat
    return rows
