"""Message envelope and tag space.

User code may use any tag in ``[0, Tags.COLLECTIVE_BASE)``.  Tags at and
above ``COLLECTIVE_BASE`` are reserved: the collectives of
:mod:`repro.simmpi.communicator` use them (each collective call consumes
one generation number so concurrent-in-flight collectives never
cross-match), and so do the groups of :mod:`repro.simmpi.subcomm`, from
``SUBCOMM_TAG_BASE`` up.  Every communicator, the world included,
refuses a reserved tag on ``send``, ``recv``, ``iprobe`` and
``take_ready``; ``ANY_TAG`` stays legal on the receiving calls and, as
``MPI_ANY_TAG`` does, matches user tags only (:meth:`Message.matches`).
A rank still draining its mailbox with a wildcard can therefore never
take the frames of a collective its peers have already entered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Wildcard source for recv/iprobe (matches MPI_ANY_SOURCE).
ANY_SOURCE = -1
#: Wildcard tag for recv/iprobe (matches MPI_ANY_TAG).
ANY_TAG = -1


class Tags:
    """Well-known tags used by the distributed Reptile protocol."""

    #: Request for k-mer counts (payload: uint64 ids).
    KMER_REQUEST = 1
    #: Request for tile counts (payload: uint64 ids).
    TILE_REQUEST = 2
    #: Response to a count request (payload: uint32 counts).
    COUNT_RESPONSE = 3
    #: Universal-mode request; the kind is encoded in the payload.
    UNIVERSAL_REQUEST = 4
    #: A rank announcing it finished its own reads (to rank 0).
    WORKER_DONE = 5
    #: Rank 0 announcing the whole correction phase is over.
    SHUTDOWN = 6
    #: Bulk prefetch request: one coalesced message per owning rank
    #: carrying a request id plus deduplicated k-mer AND tile ids
    #: (payload: uint64 ``[req_id, n_kmer, kmer_ids..., tile_ids...]``).
    PREFETCH_REQUEST = 7
    #: Response to a bulk prefetch (payload: uint32
    #: ``[req_id, kmer_counts..., tile_counts...]``).
    PREFETCH_RESPONSE = 8
    #: Fault-mode count request (payload: uint64
    #: ``[seq, owner, kind, ids...]``): carries a sequence number so
    #: retransmits and stale responses are unambiguous, and the *true*
    #: owner of the ids so a partner rank can answer for its dead ward.
    RESILIENT_REQUEST = 9
    #: Response to a resilient request (payload: uint32
    #: ``[seq, owner, counts...]`` — seq/owner echoed from the request).
    RESILIENT_RESPONSE = 10
    #: Replica transfer from a doomed rank to its recovery partner
    #: (reliable: never subject to frame faults).
    REPLICA = 15

    #: First tag reserved for collectives; user tags must stay below.
    COLLECTIVE_BASE = 1 << 20


@dataclass(frozen=True)
class Message:
    """A delivered message."""

    source: int
    tag: int
    payload: Any

    def matches(self, source: int, tag: int) -> bool:
        """Does this message match a (source, tag) pattern with wildcards?

        As in MPI, ``ANY_TAG`` matches user tags only: a reserved tag (a
        collective generation, a group's window) is matched only when
        named, so a wildcard receive never takes a collective's frame."""
        return source in (ANY_SOURCE, self.source) and (
            tag == self.tag
            or (tag == ANY_TAG and self.tag < Tags.COLLECTIVE_BASE)
        )
