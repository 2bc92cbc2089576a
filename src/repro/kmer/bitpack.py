"""Bit-packed read blocks and the popcount correction kernels.

A :class:`~repro.io.records.ReadBlock` stores one byte per base, which is
convenient for slicing but wasteful for the correction hot path: every
tile extraction re-gathers ``w`` one-byte columns and re-packs them into
an id.  This module packs a block once — 4 bases per byte, 32 bases per
``uint64`` word, leftmost base in the most significant bits — after which
the corrector's window extraction at arbitrary sites and base
substitution are whole-word shift/mask/XOR/popcount operations (the
``CodeWordStorage`` idiom of the original bit-twiddled Reptile, lifted
to numpy arrays).  Step II's every-position ids do not
come from the words: :class:`~repro.kmer.codec.WindowLadder` reads them
off the code bytes at id width.

Word layout
-----------
Base ``c`` of a read lands in word ``c // 32`` at bit offset
``62 - 2 * (c % 32)`` (MSB-first), so a whole word *is* the window id of
the 32-base window aligned at that word boundary.  A window of ``w <= 32``
bases starting at ``s`` therefore spans at most two words and is extracted
branch-free as::

    combined = (words[q] << 2r) | (words[q+1] >> (64 - 2r))   # q=s//32, r=s%32
    id       = combined >> (64 - 2w)

One sentinel zero word is appended per read so ``q + 1`` never indexes out
of bounds; its bits are always shifted out for in-range windows.

Ambiguous bases cannot live in 2 bits, so validity travels separately as
a per-read *bad-prefix* array: ``bad_prefix[i, c]`` counts the ambiguous
(or past-length) bases of read ``i`` strictly before position ``c``, and
such bases pack as ``0b00`` in the code words.  A window ``[s, s + w)``
is valid exactly when ``bad_prefix[i, s + w] == bad_prefix[i, s]`` — two
gathers and a compare, no second bit plane to pack or extract.  The
prefix never changes under substitution, because corrections only ever
rewrite windows that are valid to begin with.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from repro.errors import CodecError
from repro.kmer.codec import INVALID_CODE, _check_window

#: Bases stored per 64-bit word.
BASES_PER_WORD = 32

_U64 = np.uint64
_LITTLE_ENDIAN = sys.byteorder == "little"

# SWAR popcount constants (the 0x5555…/0x3333… reduction).
_M1 = _U64(0x5555555555555555)
_M2 = _U64(0x3333333333333333)
_M4 = _U64(0x0F0F0F0F0F0F0F0F)
_H01 = _U64(0x0101010101010101)

#: Bit shift of each base lane within a word (MSB-first).
_LANE_SHIFTS: NDArray[np.uint64] = (
    62 - 2 * np.arange(BASES_PER_WORD, dtype=np.int64)
).astype(np.uint64)


def popcount64(x: NDArray[np.uint64]) -> NDArray[np.uint64]:
    """Per-element population count of a uint64 array (SWAR reduction)."""
    x = np.ascontiguousarray(x, dtype=np.uint64)
    x = x - ((x >> _U64(1)) & _M1)
    x = (x & _M2) + ((x >> _U64(2)) & _M2)
    x = (x + (x >> _U64(4))) & _M4
    return (x * _H01) >> _U64(56)


@dataclass
class PackedBlock:
    """A read block packed 2 bits per base into a uint64 word matrix.

    ``words`` is ``(n, n_words + 1)`` — one sentinel zero word per read
    (see module docstring) — and is mutated in place by
    :func:`substitute_many`.  ``bad_prefix`` is ``(n, width + 1)``: the
    running count of ambiguous/past-length bases, immutable under
    substitution (corrections only rewrite valid windows).  It is ``None``
    when the block contains no such base at all — the common case for
    full-width clean reads — so validity checks cost nothing there.
    """

    words: NDArray[np.uint64]
    bad_prefix: NDArray[np.int32] | None
    lengths: NDArray[np.int64]
    width: int

    def __len__(self) -> int:
        return self.words.shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed arrays."""
        prefix = 0 if self.bad_prefix is None else self.bad_prefix.nbytes
        return self.words.nbytes + prefix + self.lengths.nbytes


def _pack_plane(
    plane: NDArray[np.uint8], n_words: int
) -> NDArray[np.uint64]:
    """Pack one zero-padded 2-bit byte plane into MSB-first words.

    Byte-pyramid: two halving rounds fuse 4 bases into each byte, then a
    big-endian uint64 view of the byte rows *is* the MSB-first word
    layout (first byte most significant) — three small vectorized passes
    instead of a 32-lane shift reduction.  On little-endian hosts the
    halving rounds read adjacent byte pairs through wider integer views,
    keeping every pass contiguous instead of stride-2.
    """
    n = plane.shape[0]
    if _LITTLE_ENDIAN:
        v2 = plane.view(np.uint16)           # even | odd << 8
        b2 = ((v2 & np.uint16(0xFF)) << np.uint16(2)) | (v2 >> np.uint16(8))
        v4 = b2.view(np.uint32)              # b2_even | b2_odd << 16
        b4 = (
            (v4 & np.uint32(0xFFFF)) << np.uint32(4)
        ) | (v4 >> np.uint32(16))
        b4 = b4.astype(np.uint8)             # values < 256: one byte each
    else:
        b2 = (plane[:, 0::2] << 2) | plane[:, 1::2]
        b4 = np.ascontiguousarray((b2[:, 0::2] << 4) | b2[:, 1::2])
    words = b4.view(">u8").astype(np.uint64)
    out = np.empty((n, n_words + 1), dtype=np.uint64)
    out[:, :n_words] = words
    out[:, n_words] = 0
    return out


def pack_block(
    codes: NDArray[np.uint8], lengths: NDArray[np.int64] | NDArray[np.int32]
) -> PackedBlock:
    """Pack a 2-bit code matrix (``INVALID_CODE`` for ambiguous/padding)
    into a :class:`PackedBlock`."""
    codes = _code_matrix(codes)
    n, width = codes.shape
    lengths64 = np.ascontiguousarray(lengths, dtype=np.int64)
    if lengths64.shape != (n,):
        raise CodecError(
            f"lengths shape {lengths64.shape} != (n_reads,) = ({n},)"
        )
    bad: NDArray[np.bool_] | None = codes == INVALID_CODE
    bad_prefix: NDArray[np.int32] | None = None
    if bad.any():
        bad_prefix = np.zeros((n, width + 1), dtype=np.int32)
        bad_prefix[:, 1:] = np.cumsum(bad, axis=1, dtype=np.int32)
    else:
        bad = None
    return PackedBlock(
        words=_pack_words(codes, bad),
        bad_prefix=bad_prefix,
        lengths=lengths64,
        width=width,
    )


def pack_words(codes: NDArray[np.uint8]) -> NDArray[np.uint64]:
    """The word matrix of :func:`pack_block` alone — ambiguous and
    past-length bases as ``0b00``, no bad-prefix: all a content hash of
    the reads needs, without the prefix's per-base running count."""
    codes = _code_matrix(codes)
    bad = codes == INVALID_CODE
    return _pack_words(codes, bad if bad.any() else None)


def _code_matrix(codes: NDArray[np.uint8]) -> NDArray[np.uint8]:
    codes = np.ascontiguousarray(codes, dtype=np.uint8)
    if codes.ndim != 2:
        raise CodecError(f"codes must be 2-D, got shape {codes.shape}")
    return codes


def _pack_words(
    codes: NDArray[np.uint8], bad: NDArray[np.bool_] | None
) -> NDArray[np.uint64]:
    """Words of ``codes``, the ``bad`` bases (None: there are none) as
    ``0b00``, zero-padded to whole words."""
    n, width = codes.shape
    n_words = (width + BASES_PER_WORD - 1) // BASES_PER_WORD
    padded_width = n_words * BASES_PER_WORD
    # A bad base ANDs with 0x00, a good one with 0xFF (1 - 1, 0 - 1
    # wrapped): one pass, several times cheaper than a select.
    clean = codes if bad is None else codes & (bad.view(np.uint8) - np.uint8(1))
    if padded_width != width:
        pad = np.zeros((n, padded_width - width), dtype=np.uint8)
        clean = np.concatenate([clean, pad], axis=1)
    return _pack_plane(clean, n_words)


def unpack_block(packed: PackedBlock) -> NDArray[np.uint8]:
    """Inverse of :func:`pack_block`: the ``(n, width)`` uint8 code matrix
    with ``INVALID_CODE`` restored at every ambiguous/past-length base."""
    n = len(packed)
    n_words = packed.words.shape[1] - 1
    lanes = (
        packed.words[:, :n_words, None] >> _LANE_SHIFTS
    ) & _U64(3)
    codes = lanes.astype(np.uint8).reshape(n, n_words * BASES_PER_WORD)
    codes = np.ascontiguousarray(codes[:, : packed.width])
    if packed.bad_prefix is not None:
        bad = np.diff(packed.bad_prefix, axis=1) > 0
        codes[bad] = INVALID_CODE
    return codes


def write_changed_bases(
    codes: NDArray[np.uint8],
    before: NDArray[np.uint64],
    packed: PackedBlock,
    rows: NDArray[np.intp],
) -> None:
    """Write into ``codes`` every base of ``rows`` whose packed lane
    differs between the words ``before`` and ``packed.words`` now.

    The corrector's one byte write per block: rounds substitute in the
    words alone (:func:`substitute_many`), and the bases they changed —
    typically one or two per changed word — are scattered here, lowest
    first, one pass per base still to write over the words that have
    one.  Bases that did not change (ambiguous ones among them) are not
    touched.
    """
    n_words = packed.words.shape[1] - 1
    after = packed.words[rows, :n_words]
    diff = after ^ before[rows, :n_words]
    row_of, word_of = np.nonzero(diff)
    word = after[row_of, word_of]
    # One set bit per differing base: the low bit of its lane.
    bits = diff[row_of, word_of]
    bits = (bits | (bits >> _U64(1))) & _M1
    row_of = rows[row_of]
    # Base j of word q is column 32 q + j, at bit 62 - 2 j.
    last = word_of * BASES_PER_WORD + (BASES_PER_WORD - 1)
    while bits.size:
        low = bits & (~bits + _U64(1))
        # low is a power of two, exact in a float64 exponent.
        shift = np.frexp(low.astype(np.float64))[1] - 1
        codes[row_of, last - (shift >> 1)] = (
            (word >> shift.astype(np.uint64)) & _U64(3)
        ).astype(np.uint8)
        bits ^= low
        more = bits != 0
        row_of, last, word, bits = row_of[more], last[more], word[more], bits[more]


def _extract(
    matrix: NDArray[np.uint64],
    rows: NDArray[np.int64],
    starts: NDArray[np.int64],
    w: int,
) -> NDArray[np.uint64]:
    """The two-word shift/OR window extraction on one packed plane.

    In place wherever it can be: a whole block's tiles go through here
    at once, so every temporary is as long as the block has tiles.
    ``rows`` and ``starts`` broadcast, and the shifts are computed at the
    shape of ``starts`` alone."""
    # Flat takes instead of 2-D fancy gathers; indices were validated by
    # the caller, so bounds re-checking (mode="raise") buys nothing.
    flat_idx = rows * matrix.shape[1] + (starts >> 5)
    flat = matrix.reshape(-1)
    hi = flat.take(flat_idx, mode="clip")
    flat_idx += 1
    lo = flat.take(flat_idx, mode="clip")
    del flat_idx
    r2 = (starts & 31).astype(np.uint64)
    r2 <<= _U64(1)  # 2r, <= 62
    hi <<= r2
    # (lo >> (64 - 2r)) via two shifts: 64 - 2r can be 64, which a single
    # uint64 shift must not perform; (63 - 2r) + 1 never exceeds 63 + 1.
    np.subtract(_U64(63), r2, out=r2)
    lo >>= r2
    lo >>= _U64(1)
    hi |= lo
    hi >>= _U64(64 - 2 * w)
    return hi


def windows_at(
    packed: PackedBlock,
    rows: NDArray[np.int64],
    starts: NDArray[np.int64],
    w: int,
) -> tuple[NDArray[np.uint64], NDArray[np.bool_]]:
    """Window ids at arbitrary ``(row, start)`` sites, plus validity.

    The packed replacement for the corrector's per-column gather-and-
    repack: two word gathers and a handful of whole-array shifts
    regardless of ``w``.  ``starts[i] + w`` must not exceed the block
    width.  A window is invalid when it touches an ambiguous or
    past-length base.
    """
    _check_window(w)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    if rows.shape != starts.shape:
        raise CodecError(
            f"rows shape {rows.shape} != starts shape {starts.shape}"
        )
    if starts.size and (starts.min() < 0 or starts.max() + w > packed.width):
        raise CodecError(
            f"window [start, start+{w}) out of range for width {packed.width}"
        )
    ids = _extract(packed.words, rows, starts, w)
    prefix = packed.bad_prefix
    if prefix is None:
        return ids, np.ones(rows.shape[0], dtype=np.bool_)
    valid = prefix[rows, starts + w] == prefix[rows, starts]
    return ids, valid


def windows_at_unchecked(
    packed: PackedBlock,
    rows: NDArray[np.int64],
    starts: NDArray[np.int64],
    w: int,
) -> tuple[NDArray[np.uint64], NDArray[np.bool_] | None]:
    """:func:`windows_at` without argument validation or an all-ones mask.

    For callers that construct ``(rows, starts)`` from a validated tile
    geometry (the corrector's lookahead): returns ``valid=None`` when the
    block has no ambiguous base at all, so fully clean blocks skip both
    the validity gathers and the mask allocation.  ``rows`` and
    ``starts`` broadcast: a ``(n, 1)`` column of rows against a
    ``(n, tiles)`` start matrix — or one ``(1, tiles)`` row of starts
    every read shares — extracts a whole block's tiles.
    """
    ids = _extract(packed.words, rows, starts, w)
    prefix = packed.bad_prefix
    if prefix is None:
        return ids, None
    return ids, prefix[rows, starts + w] == prefix[rows, starts]


def substitute_many(
    packed: PackedBlock,
    rows: NDArray[np.int64],
    starts: NDArray[np.int64],
    old_ids: NDArray[np.uint64],
    new_ids: NDArray[np.uint64],
    w: int,
) -> NDArray[np.int64]:
    """Write many winning tiles into the packed words at once; returns
    bases changed per site.

    For every site ``i`` the window ``[starts[i], starts[i]+w)`` of read
    ``rows[i]`` currently spells ``old_ids[i]`` and is rewritten to
    ``new_ids[i]`` by an XOR of the id diff placed at the window's bit
    position.  ``applied`` is the popcount-derived number of differing
    bases per site.  The byte matrix is not touched: the words are the
    block's one live copy while it is corrected, and the bases that
    changed are written into it once at the end
    (:func:`write_changed_bases`).

    Sites must target distinct rows within one call (the corrector's
    lookahead guarantees this: one site per read per round) — overlapping
    windows in a single batch would race their fancy-index writes.
    """
    _check_window(w)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    old = np.ascontiguousarray(old_ids, dtype=np.uint64)
    new = np.ascontiguousarray(new_ids, dtype=np.uint64)
    diff = (old ^ new) & _U64((1 << (2 * w)) - 1)
    one_bit = (diff | (diff >> _U64(1))) & _M1
    applied = popcount64(one_bit).astype(np.int64)
    if rows.size == 0:
        return applied
    # XOR the diff into the (at most two) covering words.  The window
    # ends 2 (r + w) bits into the pair (q, q + 1), r = start % 32: word
    # q takes the diff shifted up by s = 64 - 2 (r + w), or down by -s
    # when it spills into word q + 1, which takes it shifted up by
    # 64 + s.  numpy shifts a word by 64 or more (a negative shift wraps
    # far past that) to 0, so each term is 0 where it does not apply;
    # the spill term shifts in two steps so that s = 0 gives 0 too.
    s = 64 - 2 * ((starts & 31) + w)
    hi = diff << s.astype(np.uint64)
    hi |= (diff >> (-1 - s).astype(np.uint64)) >> _U64(1)
    flat_words = packed.words.reshape(-1)
    word_at = rows * packed.words.shape[1] + (starts >> 5)
    flat_words[word_at] ^= hi
    flat_words[word_at + 1] ^= diff << (s + 64).astype(np.uint64)
    return applied
