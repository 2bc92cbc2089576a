"""Per-phase time and memory prediction for a run configuration.

The predictor combines a :class:`~repro.perfmodel.machine.BGQMachine`
(cost primitives), a :class:`~repro.perfmodel.workload.DatasetWorkload`
(per-read rates and spectrum sizes) and a
:class:`~repro.parallel.heuristics.HeuristicConfig` into the phase
breakdown the paper reports: k-mer construction time, error-correction
time split into compute and k-mer/tile communication, and the per-rank
memory footprint after each phase.

Modeled effects, each traceable to a paper observation:

* remote lookups cost one request/response round trip each; the tile
  stream dominates (Figs. 2, 4);
* universal mode removes the probe from every served message (8.8%
  faster end to end, Fig. 5) — modeled as a discount on communication;
* replication removes the corresponding message stream entirely but adds
  the full spectrum to every rank's tables (Fig. 5);
* partial replication (Section V) removes the in-group fraction;
* reads tables short-circuit a measured fraction of remote lookups at the
  price of local lookup time and memory (Fig. 5: no speedup, more memory);
* batch mode bounds the reads tables by the chunk size but pays a
  per-round collective cost (Fig. 7's 981 s construction);
* without load balancing the run ends when the burst-laden slowest rank
  does: total time multiplies by the dataset's imbalance ratio (Fig. 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ModelError
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.lookup.tiers import BYTES_PER_HIT
from repro.perfmodel.machine import BGQMachine
from repro.perfmodel.workload import DatasetWorkload

#: Fraction of per-lookup communication (both the round trip and the
#: serving side's probe work) saved by universal mode; fitted to the
#: paper's 8.8% whole-run improvement at 1024 ranks.
UNIVERSAL_COMM_DISCOUNT = 0.09

#: Effective global file-system bandwidth (bytes/s) for Step I reading.
IO_BANDWIDTH = 2.0e9

#: Per-collective-round synchronization cost (seconds, before SMT
#: penalty); fitted to the Drosophila batch-mode construction anchor
#: (981 s = 47 rounds x 2 spectra at 1024 ranks).
BATCH_ROUND_SYNC = 6.1

#: Fraction of remote-lookup results that add-remote-lookups caches and
#: that recur (the paper saw no runtime benefit; memory grew 119->199 MB).
ADD_REMOTE_CACHE_FRACTION = 0.10


@dataclass(frozen=True)
class PhaseBreakdown:
    """Predicted times (seconds) and memory (bytes) for one configuration."""

    nranks: int
    ranks_per_node: int
    nodes: int

    construction_io: float
    construction_compute: float
    construction_exchange: float

    correction_compute: float
    comm_kmers: float
    comm_tiles: float
    #: Predicted per-rank remote-lookup payload (bytes) per spectrum —
    #: the model-side counterpart of the runtime's per-tier
    #: ``lookup_*_bytes`` counters, so tier traffic can be compared
    #: between a run report and an α–β projection directly.
    lookup_kmer_bytes: float
    lookup_tile_bytes: float
    #: Time spent answering other ranks' lookups (the communication
    #: thread's share of the core) — reported separately because the
    #: paper's "communication time" is the requester-side wait.
    serve_time: float
    fixed: float

    memory_construction_peak: float
    memory_after_correction: float

    load_balanced: bool
    imbalance_factor: float

    # ------------------------------------------------------------------
    @property
    def construction_total(self) -> float:
        """The paper's "k-mer construction time"."""
        return (
            self.construction_io
            + self.construction_compute
            + self.construction_exchange
        )

    @property
    def comm_total(self) -> float:
        """Correction-phase communication (tile + k-mer streams)."""
        return self.comm_kmers + self.comm_tiles

    @property
    def lookup_bytes_total(self) -> float:
        """Combined per-rank remote-lookup payload (bytes)."""
        return self.lookup_kmer_bytes + self.lookup_tile_bytes

    @property
    def correction_total(self) -> float:
        """The paper's "error correction time" (mean rank)."""
        return self.correction_compute + self.comm_total + self.serve_time

    @property
    def total(self) -> float:
        """End-to-end wall time: the slowest rank finishes the job."""
        return (
            self.construction_total
            + self.correction_total * self.imbalance_factor
            + self.fixed
        )

    @property
    def memory_peak(self) -> float:
        return max(self.memory_construction_peak, self.memory_after_correction)


class PerformancePredictor:
    """Predicts phase times/memory across rank counts and heuristics."""

    def __init__(
        self,
        machine: BGQMachine,
        workload: DatasetWorkload,
        heuristics: HeuristicConfig | None = None,
        ranks_per_node: int = 32,
        chunk_size: int = 2000,
    ) -> None:
        if ranks_per_node < 1:
            raise ModelError("ranks_per_node must be >= 1")
        if chunk_size < 1:
            raise ModelError("chunk_size must be >= 1")
        self.machine = machine
        self.workload = workload
        self.heuristics = heuristics or HeuristicConfig()
        self.ranks_per_node = ranks_per_node
        self.chunk_size = chunk_size

    # ------------------------------------------------------------------
    def predict(self, nranks: int, load_balanced: bool | None = None) -> PhaseBreakdown:
        """Phase breakdown at ``nranks`` (load balance defaults to the
        heuristic configuration)."""
        if nranks < 1:
            raise ModelError("nranks must be >= 1")
        m, w, h = self.machine, self.workload, self.heuristics
        if load_balanced is None:
            load_balanced = h.load_balance
        rpn = self.ranks_per_node
        comp_mult = m.compute_multiplier(rpn)
        comm_mult = m.comm_multiplier(rpn)
        reads_per_rank = w.n_reads / nranks

        # ---------------- Step I + II + III: construction ---------------
        file_bytes = w.n_reads * (w.read_length * 4.2 + 10)
        construction_io = file_bytes / IO_BANDWIDTH
        construction_compute = (
            w.total_bases / nranks * m.construct_per_base * comp_mult
        )
        rounds = (
            max(1, math.ceil(reads_per_rank / self.chunk_size))
            if h.batch_reads
            else 1
        )
        exchanged_entries = (w.kmer_entries_pre + w.tile_entries_pre) * (
            1.0 - 1.0 / nranks
        )
        exchange_bytes_per_rank = exchanged_entries / nranks * 16.0
        per_round = (
            BATCH_ROUND_SYNC * comm_mult + m.coll_alpha * nranks
        )
        construction_exchange = (
            rounds * 2 * per_round + exchange_bytes_per_rank * m.coll_byte
        )
        if h.allgather_kmers or h.allgather_tiles or h.replication_group > 1:
            # One extra allgather per replicated spectrum.
            extra = int(h.allgather_kmers) + int(h.allgather_tiles)
            if h.replication_group > 1:
                extra += 2
            construction_exchange += extra * per_round

        # ---------------- Step IV: correction ---------------------------
        remote_base = 1.0 - 1.0 / nranks
        group_keep = 1.0
        if h.replication_group > 1:
            group_keep = max(0.0, 1.0 - (h.replication_group - 1) / max(1, nranks - 1))

        kmer_remote_rate = 0.0 if h.allgather_kmers else remote_base * group_keep
        tile_remote_rate = 0.0 if h.allgather_tiles else remote_base * group_keep
        if h.read_kmers:
            kmer_remote_rate *= 1.0 - w.reads_table_kmer_hit
        if h.read_tiles:
            tile_remote_rate *= 1.0 - w.reads_table_tile_hit

        rtt = m.effective_lookup_rtt(nranks, rpn)
        serve = m.effective_serve_cost(rpn)
        if h.universal:
            rtt *= 1.0 - UNIVERSAL_COMM_DISCOUNT
            serve *= 1.0 - UNIVERSAL_COMM_DISCOUNT
        # Each remote lookup costs the requester a round trip, and — with
        # uniform key ownership, incoming volume equals outgoing — costs
        # this rank one serve on its communication thread.
        kmer_remote = w.total_kmer_lookups / nranks * kmer_remote_rate
        tile_remote = w.total_tile_lookups / nranks * tile_remote_rate
        comm_kmers = kmer_remote * rtt
        comm_tiles = tile_remote * rtt
        serve_time = (kmer_remote + tile_remote) * serve
        lookup_kmer_bytes = kmer_remote * BYTES_PER_HIT
        lookup_tile_bytes = tile_remote * BYTES_PER_HIT

        correction_compute = (
            reads_per_rank
            * (m.compute_per_read + w.candidates_per_read * m.compute_per_candidate)
            * comp_mult
        )

        imbalance = 1.0 + w.balanced_spread if load_balanced else w.imbalance_ratio

        # ---------------- memory ---------------------------------------
        mem_construct, mem_correct = self._memory(nranks, rounds)

        return PhaseBreakdown(
            nranks=nranks,
            ranks_per_node=rpn,
            nodes=m.nodes_for(nranks, rpn),
            construction_io=construction_io,
            construction_compute=construction_compute,
            construction_exchange=construction_exchange,
            correction_compute=correction_compute,
            comm_kmers=comm_kmers,
            comm_tiles=comm_tiles,
            lookup_kmer_bytes=lookup_kmer_bytes,
            lookup_tile_bytes=lookup_tile_bytes,
            serve_time=serve_time,
            fixed=m.fixed_overhead,
            memory_construction_peak=mem_construct,
            memory_after_correction=mem_correct,
            load_balanced=load_balanced,
            imbalance_factor=imbalance,
        )

    # ------------------------------------------------------------------
    def _reads_table_entries(self, nranks: int, reads: float) -> float:
        """Distinct windows in one rank's reads (saturates at the spectrum).

        A 1/P random sample of N window instances drawn from D distinct
        values covers ``D * (1 - exp(-N / (D * P)))`` of them.
        """
        w = self.workload
        windows_per_read = w.read_length * 1.15  # k-mers + tiles per read
        instances = w.n_reads * windows_per_read
        d_total = w.kmer_entries_pre + w.tile_entries_pre
        x = instances / (d_total * nranks)
        return d_total * -math.expm1(-x)

    def _memory(self, nranks: int, rounds: int) -> tuple[float, float]:
        m, w, h = self.machine, self.workload, self.heuristics
        owned_pre = (w.kmer_entries_pre + w.tile_entries_pre) / nranks
        owned_post = (w.kmer_entries_post + w.tile_entries_post) / nranks

        if h.batch_reads:
            # ~0.8: k-mers repeating within one chunk's overlapping reads.
            windows_per_read = w.read_length * 1.15 * 0.8
            reads_tables = min(
                self.chunk_size * windows_per_read,
                self._reads_table_entries(nranks, w.n_reads / nranks),
            )
        else:
            reads_tables = self._reads_table_entries(nranks, w.n_reads / nranks)

        construct_entries = owned_pre + reads_tables

        correct_entries = owned_post
        if h.read_kmers or h.read_tiles:
            keep = self._reads_table_entries(nranks, w.n_reads / nranks)
            share = (0.85 if h.read_kmers else 0.0) + (0.15 if h.read_tiles else 0.0)
            correct_entries += keep * share
        if h.allgather_kmers:
            correct_entries += w.kmer_entries_post
        if h.allgather_tiles:
            correct_entries += w.tile_entries_post
        if h.replication_group > 1:
            correct_entries += owned_post * (h.replication_group - 1)
        if h.add_remote_lookups:
            lookups_per_rank = (
                w.total_tile_lookups + w.total_kmer_lookups
            ) / nranks
            correct_entries += lookups_per_rank * ADD_REMOTE_CACHE_FRACTION

        # Replication doubles transiently while merging the allgather.
        replication_peak = 0.0
        if h.allgather_kmers:
            replication_peak += w.kmer_entries_post
        if h.allgather_tiles:
            replication_peak += w.tile_entries_post

        to_bytes = lambda entries: entries * m.bytes_per_entry + m.fixed_rank_bytes
        construct_bytes = to_bytes(max(construct_entries, correct_entries + replication_peak))
        correct_bytes = to_bytes(correct_entries)
        return construct_bytes, correct_bytes
