"""Per-rank communication accounting.

The performance model projects BlueGene/Q times from *measured* traffic:
how many point-to-point messages each rank sent, how many bytes, how many
remote k-mer/tile lookups it issued, and how much collective volume moved.
:class:`CommStats` is that ledger; every send increments it, and the
distributed driver adds protocol-level counters (lookups by kind).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np


#: The resilience counter family (all live in :attr:`CommStats.counters`,
#: bumped only when a :class:`~repro.faults.FaultPlan` is active; see
#: ``docs/FAULTS.md`` for the full glossary):
#:
#: * ``frames_dropped`` / ``frames_corrupted`` / ``frames_duplicated`` /
#:   ``frames_delayed`` — injector verdicts, charged to the sender.
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
#: * ``failover_requests_served`` — lookups a partner answered from a
#:   held replica on behalf of a dead owner.
RESILIENCE_COUNTERS = (
    "frames_dropped",
    "frames_corrupted",
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
#:   non-owned deltas to their owners (several per ingest under the
#:   batch-reads heuristic).
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

#: The Step IV prefetch counter family (all in
#: :attr:`CommStats.counters`, bumped only on ``prefetch=True`` runs by
#: :mod:`repro.parallel.lookup.planner`, :mod:`repro.parallel.prefetch`
#: and the chunk-cache tier; summed over ranks in ``run_report``'s
#: ``prefetch`` section and summarized by
#: :func:`repro.parallel.report.prefetch_summary`):
#:
#: * ``prefetch_fetches`` — bulk exchanges issued (planned window and
#:   candidate fetches, tail re-plans and on-miss fetches alike);
#:   ``prefetch_messages`` — the request frames they sent, one per owner.
#: * ``prefetch_{kmer,tile}_ids_fetched`` — unique ids those exchanges
#:   asked owners for; ``prefetch_{kmer,tile}_ids_deduped`` — ids a plan
#:   dropped because they repeated or were already cached.
#: * ``prefetch_{kmer,tile}_hits`` — lookups the chunk cache answered
#:   (the corrector's, and stage 2's probe of the fetched windows);
#:   ``prefetch_{kmer,tile}_misses`` — lookups no local tier could
#:   (answered 0 and tainted in a first pass, fetched at once in the
#:   tail).
#: * ``prefetch_tail_reads`` — reads a first-pass miss tainted, replayed
#:   in the rank's tail; ``prefetch_replans`` — tail drift re-plans (one
#:   per piece of ≤ ``chunk_size`` tail reads per ``run()``);
#:   ``prefetch_miss_fetches`` — synchronous fetches the tail replay made
#:   for ids even the re-plan had not covered.
#: * ``prefetch_cache_bytes`` — chunk-cache table bytes at the end of the
#:   phase (not part of ``RankMemoryReport.peak``).
#: * ``prefetch_requests_served`` / ``prefetch_{kmer,tile}_ids_served``
#:   — the serving side of those exchanges.
PREFETCH_COUNTERS = (
    "prefetch_fetches",
    "prefetch_messages",
    "prefetch_kmer_ids_fetched",
    "prefetch_tile_ids_fetched",
    "prefetch_kmer_ids_deduped",
    "prefetch_tile_ids_deduped",
    "prefetch_kmer_hits",
    "prefetch_tile_hits",
    "prefetch_kmer_misses",
    "prefetch_tile_misses",
    "prefetch_tail_reads",
    "prefetch_replans",
    "prefetch_miss_fetches",
    "prefetch_cache_bytes",
    "prefetch_requests_served",
    "prefetch_kmer_ids_served",
    "prefetch_tile_ids_served",
)

#: The per-tier lookup counter family.  Every count resolution runs an
#: ordered tier stack (:mod:`repro.parallel.lookup`); the stack bumps
#: ``lookup_<tier>_requests`` / ``_hits`` / ``_misses`` / ``_bytes`` for
#: each tier it presents ids to, where ``hits + misses == requests`` at
#: every tier and ``bytes`` charges 12 bytes (id + count) per hit.
#: ``<tier>`` is one of
#: :data:`repro.parallel.lookup.stack.TIER_NAMES`.  The family is not
#: split by spectrum; the per-kind counters that remain beside it —
#: ``{kind}_lookups``, ``reads_table_{kind}_hits``, ``remote_{kind}_*``
#: and ``prefetch_{kind}_*`` — are the ones
#: :mod:`repro.perfmodel.workload` and ``benchmarks/e2e/ledger.py`` read
#: per kind.  The owned, allgather and group tiers have no per-kind
#: counter: ``lookup_owned_hits`` / ``lookup_allgather_hits`` /
#: ``lookup_group_hits`` are their counts.
#:
#: The serving side of the ``remote`` tier has two counters of its own:
#: ``requests_served`` (Step IV count requests answered) and
#: ``serve_probes`` (table probes made answering them).  A serve turn
#: answers every request already queued with one probe per kind, so
#: ``requests_served / serve_probes`` is the mean serve batch;
#: ``kmer_ids_served`` / ``tile_ids_served`` count the ids.
LOOKUP_TIER_COUNTER_KINDS = ("requests", "hits", "misses", "bytes")


def _payload_nbytes(payload) -> int:
    """Data-byte size of a payload, without wire framing overhead.

    The communicator passes the exact encoded frame length straight to
    :meth:`CommStats.record_send`, so this sizer only serves callers
    that account traffic without encoding (tests, ad-hoc tooling).
    Payloads with no cheap analytic size — dicts, strings, arbitrary
    objects — are sized by actually encoding them, not the old
    one-machine-word guess.
    """
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (tuple, list)):
        return sum(_payload_nbytes(p) for p in payload)
    if payload is None or isinstance(payload, (bool, int, float, np.generic)):
        # Scalars / None: count a machine word.
        return 8
    from repro.simmpi import wire

    return len(wire.encode_payload(payload))


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
    #: A rank's worker and communication threads both account traffic
    #: (the two-thread Step IV mode), so updates are locked.
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

    def record_send(self, tag: int, payload, dest: int | None = None,
                    nbytes: int | None = None) -> None:
        """Account one outgoing message (thread-safe).

        ``nbytes`` is the exact encoded frame length when the caller has
        it (the communicator send boundary always does); without it the
        payload is sized by :func:`_payload_nbytes`.
        """
        if nbytes is None:
            nbytes = _payload_nbytes(payload)
        with self._lock:
            self.messages_sent += 1
            self.bytes_sent += nbytes
            self.messages_by_tag[tag] = self.messages_by_tag.get(tag, 0) + 1
            self.bytes_by_tag[tag] = self.bytes_by_tag.get(tag, 0) + nbytes
            if dest is not None:
                self.messages_by_peer[dest] = (
                    self.messages_by_peer.get(dest, 0) + 1
                )
                self.bytes_by_peer[dest] = (
                    self.bytes_by_peer.get(dest, 0) + nbytes
                )

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
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

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
