"""Integer hash mixers.

K-mer and tile ids are highly structured (low entropy in low bits for
repetitive genomes), so anything that spreads them passes them through a
finalizing mixer first.  We use the splitmix64 finalizer — the same
construction used by ``std::hash``-quality implementations — vectorized
over uint64 arrays, for read placement and the Bloom filter.  (K-mer and
tile owners use an in-width mix, :mod:`repro.parallel.ownership`, and
:class:`~repro.hashing.counthash.CountHash` buckets with a third.)
"""

from __future__ import annotations

import numpy as np

_C1 = np.uint64(0xBF58476D1CE4E5B9)
_C2 = np.uint64(0x94D049BB133111EB)
_ADD = np.uint64(0x9E3779B97F4A7C15)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def splitmix64(x: int | np.ndarray) -> np.ndarray | int:
    """splitmix64 finalizer; accepts a scalar or a uint64 array.

    Bijective on uint64, so distinct ids never collide at this stage; all
    collisions come from the subsequent modulo, which the mixer randomizes.
    """
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        # Wrap-around multiplication is the point; silence numpy's
        # scalar overflow warning (the array path never warns, so it
        # skips the errstate context entirely).
        with np.errstate(over="ignore"):
            z = np.asarray(x, dtype=np.uint64) + _ADD
            z = (z ^ (z >> _S30)) * _C1
            z = (z ^ (z >> _S27)) * _C2
            return int(z ^ (z >> _S31))
    z = np.asarray(x, dtype=np.uint64) + _ADD
    z = (z ^ (z >> _S30)) * _C1
    z = (z ^ (z >> _S27)) * _C2
    return z ^ (z >> _S31)


def mix_to_rank(keys: int | np.ndarray, nranks: int) -> np.ndarray | int:
    """The paper's literal rule, ``splitmix64(key) % nranks``, per key.
    The pipeline owns by key range instead (:mod:`repro.parallel.ownership`).
    """
    if nranks <= 0:
        raise ValueError(f"nranks must be positive, got {nranks}")
    if nranks == 1:  # one rank owns everything: nothing to mix
        return 0 if np.ndim(keys) == 0 else np.zeros(np.shape(keys), np.int64)
    mixed = splitmix64(keys)
    if np.isscalar(mixed):
        return int(mixed % nranks)
    return (mixed % np.uint64(nranks)).astype(np.int64)
