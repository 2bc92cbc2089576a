"""The chunk count cache: the first tier of the prefetch-mode lookup stack.

Moved here from ``repro.parallel.prefetch`` when count resolution was
unified into :mod:`repro.parallel.lookup`; the semantics are unchanged.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.hashing.counthash import CountHash


def add_fresh(
    table: CountHash, ids: NDArray[np.uint64], counts: NDArray[np.uint32]
) -> None:
    """Cache authoritative ``counts`` of ``ids`` in ``table``, each id
    once; an id already cached keeps its entry.

    ``add_counts`` *accumulates*, so keys fetched by an earlier stage
    must not be re-added (stage-2 plans overlap stage-1's windows, and
    a lookup round may ask for an id twice), and duplicate keys within
    one batch must collapse to one entry.
    """
    if ids.size == 0:
        return
    ids, first = np.unique(ids, return_index=True)
    counts = counts[first]
    fresh = ~table.contains(ids)
    if fresh.any():
        table.add_counts(ids[fresh], counts[fresh].astype(np.uint64))


class ChunkCountCache:
    """Authoritative global counts gathered during the correction phase.

    Keys are inserted with their authoritative global count — including
    an explicit 0 for globally-absent ids, so :meth:`CountHash.contains`
    distinguishes "known absent" from "never fetched".  The executor
    keeps **one** cache for all of a rank's chunks: at sequencing
    coverage ``c`` every genomic k-mer recurs in ~``c`` reads spread
    across chunks, so later chunks resolve mostly from ids gathered for
    earlier ones.  It holds every id a plan enumerated, not only the
    fetched ones: the planner also deposits what the owned shard or a
    replication-group table resolved, so the corrector's lookups take
    one probe.  The footprint is therefore the rank's planned *working
    set* — window tiles plus the weak sites' candidate neighbourhood,
    owned and foreign (``prefetch_cache_bytes``) — and is discarded when
    the correction phase ends.
    """

    def __init__(self) -> None:
        self.kmers = CountHash()
        self.tiles = CountHash()

    def add_kmers(
        self, ids: NDArray[np.uint64], counts: NDArray[np.uint32]
    ) -> None:
        """Deposit authoritative k-mer counts (idempotent per key)."""
        add_fresh(self.kmers, ids, counts)

    def add_tiles(
        self, ids: NDArray[np.uint64], counts: NDArray[np.uint32]
    ) -> None:
        """Deposit authoritative tile counts (idempotent per key)."""
        add_fresh(self.tiles, ids, counts)

    def table_for(self, kind: str) -> CountHash:
        """The cache table for a lookup kind (``"kmer"`` or ``"tile"``)."""
        return self.kmers if kind == "kmer" else self.tiles

    def deposit(
        self,
        kind: str,
        ids: NDArray[np.uint64],
        counts: NDArray[np.uint32],
    ) -> None:
        """Deposit authoritative counts for a lookup kind (idempotent)."""
        add_fresh(self.table_for(kind), ids, counts)

    @property
    def nbytes(self) -> int:
        return self.kmers.nbytes + self.tiles.nbytes
