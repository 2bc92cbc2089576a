"""Steps II–III: distributed construction of the k-mer and tile spectra.

Each rank counts its reads' windows by sort with the serial counter
(:func:`~repro.core.spectrum.window_counts`) and splits the distinct
``(key, count)`` pairs by owner: it keeps its own bucket, and one
``MPI_Alltoallv`` routes the rest — the paper's ``readsKmer`` /
``readsTile`` tables, here sorted pairs — to their owners
(:func:`~repro.parallel.exchange.exchange_deltas`).  Owners sum what
arrives into their raw pairs, then threshold while they insert
(:meth:`~repro.hashing.sortedspectrum.SortedSpectrum.from_sorted` for a
sharded kind, :meth:`~repro.hashing.counthash.CountHash.from_counts` for
an allgathered kind or a one-rank world): no table exists before the
serving shard.  In *batch reads table* mode the
exchange runs after every chunk of reads — the transient pairs never
cover more than one chunk, which is what fits the human dataset in
512 MB/rank — with an ``MPI_Reduce``-style maximum so every rank
participates in the same number of collective rounds.

The rest of the build lives here as reusable pieces —
:func:`fetch_read_table`, :func:`apply_replication` — and the classic
one-call build, :func:`build_rank_spectra`, is a thin wrapper over a
one-shot :class:`~repro.parallel.session.CorrectionSession` (ingest
once, finalize once), so the incremental and the batch path share one
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ReptileConfig
from repro.hashing.counthash import CountHash, merge_pairs
from repro.hashing.inthash import mix_to_rank
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.io.records import ReadBlock
from repro.kmer.tiles import TileShape
from repro.parallel.exchange import (
    add_packed, fetch_global_counts, pack_pairs, unpack_pairs,
)
from repro.parallel.heuristics import HeuristicConfig
from repro.simmpi.communicator import Communicator
from repro.util.timer import PhaseTimer


@dataclass
class RankSpectra:
    """One rank's share of the distributed spectra.

    ``kmers``/``tiles`` are the owned tables (true global counts after
    Step III).  ``reads_kmers``/``reads_tiles`` exist only under the *read
    k-mers/tiles* heuristics (global-count caches for this rank's own
    reads; also the target of *add remote lookups*).  Under allgather
    replication the owned tables simply hold the whole spectrum, and in
    a one-rank world the owned shard *is* the spectrum, so both kinds
    count as replicated there.

    Each table's form is fixed by its role: the sharded read-only ones
    — owned shards of a kind that is not replicated, group tables — are
    sealed :class:`~repro.hashing.sortedspectrum.SortedSpectrum` arrays
    (probed in per-owner batches); replicated spectra and the read
    tables are :class:`~repro.hashing.counthash.CountHash` tables
    (probed in whole-share batches, or written to).
    """

    shape: TileShape
    rank: int
    nranks: int
    kmers: CountHash | SortedSpectrum = field(default_factory=CountHash)
    tiles: CountHash | SortedSpectrum = field(default_factory=CountHash)
    reads_kmers: CountHash | None = None
    reads_tiles: CountHash | None = None
    #: True when `kmers`/`tiles` hold the full spectrum (replicated).
    kmers_replicated: bool = False
    tiles_replicated: bool = False
    #: Partial replication: owners covered by the local group tables.
    group_ranks: tuple[int, ...] = ()
    group_kmers: SortedSpectrum | None = None
    group_tiles: SortedSpectrum | None = None
    #: Largest footprint observed *during* construction — a round's
    #: counted pairs beside the raw pairs and any serving tables; the
    #: batch-reads heuristic bounds the first.
    peak_construction_bytes: int = 0

    @property
    def nbytes(self) -> int:
        """Total bytes across all tables this rank holds."""
        total = self.kmers.nbytes + self.tiles.nbytes
        for t in (self.reads_kmers, self.reads_tiles,
                  self.group_kmers, self.group_tiles):
            if t is not None:
                total += t.nbytes
        return total

    @property
    def table_sizes(self) -> dict[str, int]:
        """Entry counts per table (for the Fig. 3 uniformity measurement)."""
        sizes = {"kmers": len(self.kmers), "tiles": len(self.tiles)}
        if self.reads_kmers is not None:
            sizes["reads_kmers"] = len(self.reads_kmers)
        if self.reads_tiles is not None:
            sizes["reads_tiles"] = len(self.reads_tiles)
        if self.group_kmers is not None:
            sizes["group_kmers"] = len(self.group_kmers)
        if self.group_tiles is not None:
            sizes["group_tiles"] = len(self.group_tiles)
        return sizes


def build_rank_spectra(
    comm: Communicator,
    block: ReadBlock,
    config: ReptileConfig,
    heuristics: HeuristicConfig,
    timer: PhaseTimer | None = None,
) -> RankSpectra:
    """Steps II-III for one rank's reads; returns its share of the spectra.

    Collective: every rank must call this with its own block.  The
    heuristics control batching, reads-table retention and replication.
    Implemented as a one-shot session (ingest + finalize), which is why
    the incremental :meth:`~repro.parallel.session.CorrectionSession.ingest`
    path reproduces this builder's counts exactly.
    """
    # Runtime import: session.py builds on this module's helpers.
    from repro.parallel.session import CorrectionSession

    session = CorrectionSession(
        comm, config, heuristics, retain_raw=False, timer=timer
    )
    session.ingest(block)
    session.finalize()
    return session.spectra


def fetch_read_table(
    comm: Communicator, keys: np.ndarray, owned: CountHash | SortedSpectrum
) -> CountHash:
    """Read k-mers/tiles heuristic: a global-count cache for ``keys``.

    "an additional collective communication step is needed where each rank
    sends the k-mers it does not own to the owning rank, requesting the
    global count" — globally absent (sub-threshold) keys are cached with
    count 0, so correction-time lookups can answer *absent* locally too.
    Keys this rank owns are filtered out (the owned shard already answers
    them); collective.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    not_mine = (
        keys[mix_to_rank(keys, comm.size) != comm.rank] if keys.size else keys
    )
    fetched, counts = fetch_global_counts(comm, not_mine, owned)
    cache = CountHash()
    cache.add_counts(fetched, counts)
    return cache


def apply_replication(
    comm: Communicator,
    heuristics: HeuristicConfig,
    spectra: RankSpectra,
) -> None:
    """Allgather (full) and group (partial) spectrum replication."""
    if heuristics.allgather_kmers:
        _allgather_into(comm, spectra.kmers)
        spectra.kmers_replicated = True
    if heuristics.allgather_tiles:
        _allgather_into(comm, spectra.tiles)
        spectra.tiles_replicated = True

    g = heuristics.replication_group
    if g > 1:
        if comm.size % g != 0:
            raise ValueError(
                f"replication_group {g} must divide the rank count {comm.size}"
            )
        group = tuple(range((comm.rank // g) * g, (comm.rank // g) * g + g))
        spectra.group_ranks = group
        # A sub-communicator keeps the replication exchange inside the
        # group — the structure a production MPI code would use.
        group_comm = comm.split(comm.rank // g)
        if not heuristics.allgather_kmers:
            spectra.group_kmers = _group_gather(group_comm, spectra.kmers)
        if not heuristics.allgather_tiles:
            spectra.group_tiles = _group_gather(group_comm, spectra.tiles)


def _allgather_into(comm: Communicator, table: CountHash) -> None:
    """Replace ``table``'s contents with the union over all ranks."""
    keys, counts = table.items()
    payload = pack_pairs(keys, counts)
    everyone = comm.allgather(payload)
    # Shards are disjoint and `everyone` includes this rank's own, so the
    # union is rebuilt from empty — one bulk placement, no probing.
    table.clear()
    add_packed(table, everyone)


def _group_gather(group_comm, table: SortedSpectrum) -> SortedSpectrum:
    """Union of the owned shards across a replication group, sealed.

    ``group_comm`` is the group's sub-communicator, so the allgather's
    traffic never leaves the group.  The shards are disjoint ascending
    runs, so the union is one merge.
    """
    payload = pack_pairs(*table.items())
    runs = [unpack_pairs(buf) for buf in group_comm.allgather(payload)]
    return SortedSpectrum.from_sorted(*merge_pairs(runs))
