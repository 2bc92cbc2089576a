"""Hamming-distance neighbour enumeration for window ids.

Reptile's correction step replaces an erroneous tile with a *solid*
Hamming-distance neighbour.  Candidate generation is restricted to positions
whose base quality is low (substitution errors concentrate there), which both
prunes the search and reflects how sequencing errors actually occur.

All generators work on integer ids, vectorized over positions and alternative
bases; distance-2 candidates are produced as the pairwise composition of
distance-1 flips.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.errors import CodecError
from repro.kmer.codec import MAX_K


def _check(w: int) -> None:
    if not 1 <= w <= MAX_K:
        raise CodecError(f"window length must be in [1, {MAX_K}], got {w}")


def hamming_distance(a: int, b: int, w: int) -> int:
    """Number of base positions at which two window ids differ."""
    _check(w)
    diff = int(a) ^ int(b)
    count = 0
    for _ in range(w):
        if diff & 3:
            count += 1
        diff >>= 2
    return count


def neighbors_at_positions(
    wid: int, w: int, positions: NDArray[np.int64] | list[int]
) -> NDArray[np.uint64]:
    """All ids obtained by substituting one base at one of ``positions``.

    ``positions`` are 0-based offsets from the *left* end of the window
    (matching read coordinates).  Returns ``3 * len(positions)`` ids
    (3 alternative bases per position), dtype uint64, deduplicated is NOT
    applied (positions are distinct so ids are distinct).
    """
    _check(w)
    pos = np.asarray(positions, dtype=np.int64)
    if pos.size == 0:
        return np.empty(0, dtype=np.uint64)
    if pos.min() < 0 or pos.max() >= w:
        raise CodecError(f"positions must be in [0, {w}), got {positions!r}")
    wid64 = np.uint64(wid)
    # Bit shift of each position: leftmost base is most significant.
    shifts = ((w - 1 - pos) * 2).astype(np.uint64)
    current = (wid64 >> shifts) & np.uint64(3)
    # For each position, the three alternative base codes.
    alts = (current[:, None] + np.arange(1, 4, dtype=np.uint64)) & np.uint64(3)
    cleared = wid64 & ~(np.uint64(3) << shifts)
    out = cleared[:, None] | (alts << shifts[:, None])
    return out.ravel()


def substitute_at(
    wids: NDArray[np.uint64], w: int, positions: NDArray[np.int64]
) -> NDArray[np.uint64]:
    """Distance-1 substitutions for many (window, position) pairs at once.

    ``wids[i]`` and ``positions[i]`` describe one substitution site; the
    result row ``i`` holds the three ids obtained by replacing the base of
    ``wids[i]`` at ``positions[i]`` with each alternative, in the same
    ``(current+1, current+2, current+3) & 3`` order
    :func:`neighbors_at_positions` uses — so flattening rows reproduces the
    scalar enumeration exactly.  This is the batched kernel of the
    corrector's candidate generation.
    """
    _check(w)
    wids = np.ascontiguousarray(wids, dtype=np.uint64)
    pos = np.ascontiguousarray(positions, dtype=np.int64)
    if wids.shape != pos.shape:
        raise CodecError(
            f"wids shape {wids.shape} != positions shape {pos.shape}"
        )
    if pos.size == 0:
        return np.empty((0, 3), dtype=np.uint64)
    if pos.min() < 0 or pos.max() >= w:
        raise CodecError(f"positions must be in [0, {w})")
    shifts = ((w - 1 - pos) * 2).astype(np.uint64)
    current = (wids >> shifts) & np.uint64(3)
    alts = (current[:, None] + np.arange(1, 4, dtype=np.uint64)) & np.uint64(3)
    cleared = wids & ~(np.uint64(3) << shifts)
    return cleared[:, None] | (alts << shifts[:, None])


def hamming_neighbors(wid: int, w: int, d: int = 1) -> NDArray[np.uint64]:
    """All ids within Hamming distance exactly ``d`` of ``wid`` (d in {1, 2}).

    Distance-1 yields ``3w`` ids; distance-2 yields ``9·C(w,2)`` ids.  The
    result is sorted and unique.
    """
    _check(w)
    if d == 1:
        out = neighbors_at_positions(wid, w, np.arange(w))
        out.sort()
        return out
    if d == 2:
        first = neighbors_at_positions(wid, w, np.arange(w))
        # For every distance-1 neighbour, flip a *later* position to avoid
        # generating each pair twice or undoing the first flip.
        chunks: list[NDArray[np.uint64]] = []
        per_pos = first.reshape(w, 3)
        for p in range(w - 1):
            later = np.arange(p + 1, w)
            for nb in per_pos[p]:
                chunks.append(neighbors_at_positions(int(nb), w, later))
        if not chunks:
            return np.empty(0, dtype=np.uint64)
        out = np.unique(np.concatenate(chunks))
        return out
    raise CodecError(f"only Hamming distances 1 and 2 are supported, got {d}")


def neighbors_many(
    wids: NDArray[np.uint64],
    w: int,
    positions_per_wid: list[NDArray[np.int64]],
) -> tuple[NDArray[np.uint64], NDArray[np.int64]]:
    """Batch candidate generation for several windows at once.

    Returns ``(candidates, owner_index)`` where ``owner_index[i]`` is the
    index into ``wids`` whose substitution produced ``candidates[i]``.  Used
    by the corrector to batch remote spectrum lookups across a whole read.
    """
    cands: list[NDArray[np.uint64]] = []
    owners: list[NDArray[np.int64]] = []
    for i, (wid, pos) in enumerate(zip(np.asarray(wids, dtype=np.uint64),
                                       positions_per_wid)):
        c = neighbors_at_positions(int(wid), w, pos)
        cands.append(c)
        owners.append(np.full(c.shape[0], i, dtype=np.int64))
    if not cands:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    return np.concatenate(cands), np.concatenate(owners)
