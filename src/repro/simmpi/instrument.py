"""Per-rank communication accounting.

The performance model projects BlueGene/Q times from *measured* traffic:
how many point-to-point messages each rank sent, how many bytes, how many
remote k-mer/tile lookups it issued, and how much collective volume moved.
:class:`CommStats` is that ledger; every send increments it, and the
distributed driver adds protocol-level counters (lookups by kind).
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field


#: The resilience counter family (all live in :attr:`CommStats.counters`,
#: bumped only when a :class:`~repro.faults.FaultPlan` is active; see
#: ``docs/FAULTS.md`` for the full glossary):
#:
#: * ``frames_dropped`` / ``frames_duplicated`` / ``frames_delayed`` —
#:   injector verdicts, charged to the sender.
#: * ``lookup_retries`` — resilient lookup rounds re-sent after a
#:   timeout; ``lookup_timeouts`` — deadlines that expired (each timeout
#:   that still has budget left becomes a retry).
#: * ``stale_responses`` — responses for an already-satisfied sequence
#:   number (a retry raced its original answer); benign, never lost data.
#: * ``crashes_injected`` / ``stalls_injected`` — scripted faults fired.
#: * ``replicas_sent`` / ``replicas_held`` — recovery shards shipped by
#:   doomed ranks / held by partners.
#: * ``takeover_reads`` — ward reads a partner re-corrected after its
#:   ward crashed.
#: * ``failover_requests_served`` — requests a partner answered from a
#:   held ward replica, whether asked over the wire or by itself.
RESILIENCE_COUNTERS = (
    "frames_dropped",
    "frames_duplicated",
    "frames_delayed",
    "lookup_retries",
    "lookup_timeouts",
    "stale_responses",
    "crashes_injected",
    "stalls_injected",
    "replicas_sent",
    "replicas_held",
    "takeover_reads",
    "failover_requests_served",
)

#: The correction-session counter family (all in
#: :attr:`CommStats.counters`, bumped by
#: :class:`repro.parallel.session.CorrectionSession` and summed over
#: ranks in ``run_report``'s ``session`` section):
#:
#: * ``session_ingests`` — ``ingest()`` calls (one per rank per block of
#:   count deltas merged into the distributed spectrum).
#: * ``session_delta_exchanges`` — DELTA alltoallv rounds routing
#:   non-owned deltas of both kinds to their owners (one per ingest
#:   round: several per ingest under the batch-reads heuristic).
#: * ``session_delta_bytes`` — payload bytes of delta key/count pairs
#:   this rank routed to *other* ranks across those exchanges.
#: * ``session_recompiles`` — serving-state finalizations (threshold +
#:   read tables + replication + lookup-stack recompile).
SESSION_COUNTERS = (
    "session_ingests",
    "session_delta_exchanges",
    "session_delta_bytes",
    "session_recompiles",
)

#: The service-layer counter family (all in
#: :attr:`CommStats.counters`; bumped onto rank 0's ledger by
#: :class:`repro.service.SpectrumService` when the service closes, and
#: summed over ranks in ``run_report``'s ``service`` section — zeros on
#: any run that never went through the service front-end):
#:
#: * ``service_submitted`` — client jobs admitted past the bounded
#:   queue and quota checks.
#: * ``service_coalesced`` — correct jobs that shared a collective
#:   round with at least one other job (the coalescing win).
#: * ``service_rejected`` — submissions refused with a typed
#:   :class:`~repro.errors.ServiceOverloadError`.
#: * ``service_rounds`` — collective ``correct()`` rounds the backend
#:   fleet actually ran (fewer than submitted corrects when coalescing
#:   is doing its job).
SERVICE_COUNTERS = (
    "service_submitted",
    "service_coalesced",
    "service_rejected",
    "service_rounds",
)

#: The per-tier lookup counter family.  Every count resolution runs an
#: ordered tier stack (:mod:`repro.parallel.lookup`); the stack bumps
#: ``lookup_<tier>_requests`` / ``_hits`` / ``_misses`` / ``_bytes`` for
#: each tier it presents ids to, where ``hits + misses == requests`` at
#: every tier and ``bytes`` charges 12 bytes (id + count) per hit.
#: ``<tier>`` is one of
#: :data:`repro.parallel.lookup.stack.TIER_NAMES`.  The family is not
#: split by spectrum; the per-kind counters that remain beside it —
#: ``{kind}_lookups``, ``reads_table_{kind}_hits`` and
#: ``remote_{kind}_*`` — are the ones
#: :mod:`repro.perfmodel.workload` and ``benchmarks/e2e/ledger.py`` read
#: per kind.  The owned, allgather and group tiers have no per-kind
#: counter: ``lookup_owned_hits`` / ``lookup_allgather_hits`` /
#: ``lookup_group_hits`` are their counts.
#:
#: The one serve path — of the ``remote`` tier's rounds — has two
#: counters of its own:
#: ``requests_served`` (Step IV count requests answered) and
#: ``serve_probes`` (shard probes made answering them).  A serve turn
#: answers every request already queued with one shard probe, so
#: ``requests_served / serve_probes`` is the mean serve batch;
#: ``kmer_ids_served`` / ``tile_ids_served`` count the ids.
#:
#: ``table_probe_calls`` / ``table_probe_ids`` count every call the
#: tiers and the serving shards make into a count table, and the ids it
#: carried; ``blocking_request_counts`` counts a rank's dependent lookup
#: rounds (each one blocking request, of one frame per owner — or one
#: per owner and kind in the base mode).
LOOKUP_TIER_COUNTER_KINDS = ("requests", "hits", "misses", "bytes")


@dataclass
class CommStats:
    """Traffic counters for one rank."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_by_tag: dict[int, int] = field(default_factory=dict)
    bytes_by_tag: dict[int, int] = field(default_factory=dict)
    #: Destination rank -> messages sent there; lets analyses classify
    #: traffic as on-node vs off-node for a given ranks-per-node mapping.
    messages_by_peer: dict[int, int] = field(default_factory=dict)
    bytes_by_peer: dict[int, int] = field(default_factory=dict)
    #: Protocol-level counters maintained by the Reptile driver, e.g.
    #: "remote_tile_lookups", "remote_kmer_lookups", "served_requests".
    counters: dict[str, int] = field(default_factory=dict)
    #: Every thread of a rank's program may account traffic, so
    #: updates are locked.
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    # The process engine ships each child's ledger back to the parent by
    # pickle; the lock is process-local state and is rebuilt on arrival.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def record_send(self, tag: int, dest: int, nbytes: int) -> None:
        """Account one outgoing message of ``nbytes`` frame bytes to
        ``dest`` (thread-safe)."""
        by_tag, bytes_by_tag = self.messages_by_tag, self.bytes_by_tag
        with self._lock:
            self.messages_sent += 1
            self.bytes_sent += nbytes
            by_tag[tag] = by_tag.get(tag, 0) + 1
            bytes_by_tag[tag] = bytes_by_tag.get(tag, 0) + nbytes
            by_peer, bytes_by_peer = self.messages_by_peer, self.bytes_by_peer
            by_peer[dest] = by_peer.get(dest, 0) + 1
            bytes_by_peer[dest] = bytes_by_peer.get(dest, 0) + nbytes

    def onnode_fraction(self, rank: int, ranks_per_node: int) -> float:
        """Fraction of this rank's messages that would stay on-node if
        ranks were packed ``ranks_per_node`` to a node in rank order.

        This is the *measured* counterpart of the machine model's
        analytic on-node fraction.
        """
        if ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        node = rank // ranks_per_node
        on = off = 0
        for peer, n in self.messages_by_peer.items():
            if peer // ranks_per_node == node:
                on += n
            else:
                off += n
        total = on + off
        return on / total if total else 0.0

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a named protocol counter (thread-safe)."""
        counters = self.counters
        with self._lock:
            counters[name] = counters.get(name, 0) + amount

    def add(self, tally: Mapping[str, int]) -> None:
        """Increment many named counters at once, under one lock: what
        a bump of each ``tally`` entry would book (thread-safe)."""
        counters = self.counters
        with self._lock:
            for name, amount in tally.items():
                counters[name] = counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Read a named protocol counter (0 when never bumped)."""
        return self.counters.get(name, 0)

    def merge(self, other: "CommStats") -> None:
        """Fold another rank's counters into this one (for totals)."""
        self.messages_sent += other.messages_sent
        self.bytes_sent += other.bytes_sent
        for tag, n in other.messages_by_tag.items():
            self.messages_by_tag[tag] = self.messages_by_tag.get(tag, 0) + n
        for tag, n in other.bytes_by_tag.items():
            self.bytes_by_tag[tag] = self.bytes_by_tag.get(tag, 0) + n
        for peer, n in other.messages_by_peer.items():
            self.messages_by_peer[peer] = self.messages_by_peer.get(peer, 0) + n
        for peer, n in other.bytes_by_peer.items():
            self.bytes_by_peer[peer] = self.bytes_by_peer.get(peer, 0) + n
        for name, n in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + n


def total_stats(stats: Iterable[CommStats]) -> CommStats:
    """Every rank's ledger in ``stats`` folded into a new one."""
    total = CommStats()
    for s in stats:
        total.merge(s)
    return total
