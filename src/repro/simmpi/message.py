"""Message envelope and tag space.

User code may use any tag in ``[0, Tags.COLLECTIVE_BASE)``.  Tags at and
above ``COLLECTIVE_BASE`` are reserved: the collectives of
:mod:`repro.simmpi.communicator` use them (each collective call consumes
one generation number so concurrent-in-flight collectives never
cross-match), and so do the groups of :mod:`repro.simmpi.subcomm`, from
``SUBCOMM_TAG_BASE`` up.  Every communicator, the world included,
refuses a reserved tag on ``send``, ``recv``, ``iprobe`` and
``take_queued``; ``ANY_TAG`` stays legal on ``recv`` and ``iprobe``
and, as ``MPI_ANY_TAG`` does, matches user tags only
(:meth:`Message.matches`).  A rank still draining its mailbox with a
wildcard can therefore never take the frames of a collective its peers
have already entered.
"""

from __future__ import annotations

from typing import Any

#: Wildcard source for recv/iprobe (matches MPI_ANY_SOURCE).
ANY_SOURCE = -1
#: Wildcard tag for recv/iprobe (matches MPI_ANY_TAG).
ANY_TAG = -1


class Tags:
    """Well-known tags used by the distributed Reptile protocol.

    A Step IV count request is one frame under every plan and from every
    client: ``uint64 [seq, who | ...]``, where ``seq`` is the round's
    sequence number and ``who`` names the frame within it (the owner of
    its ids, plus ``kind * size`` for a base-mode tile frame).  The kind
    travels in the tag (``KMER_REQUEST`` / ``TILE_REQUEST``) or, under
    ``UNIVERSAL_REQUEST``, as a third header word, the k-mer id count
    (:func:`repro.parallel.server.frame_request`).  Every answer is
    ``uint32 [seq, who | counts]`` under ``COUNT_RESPONSE``.
    """

    #: Base-mode k-mer count request (payload: uint64
    #: ``[seq, who, kmer_ids...]``).
    KMER_REQUEST = 1
    #: Base-mode tile count request (payload: uint64
    #: ``[seq, who, tile_ids...]``).
    TILE_REQUEST = 2
    #: Answer to any count request (payload: uint32
    #: ``[seq, who, counts...]``, the request's header echoed).
    COUNT_RESPONSE = 3
    #: Universal count request, both kinds in one frame (payload: uint64
    #: ``[seq, who, kmer count, kmer_ids..., tile_ids...]``).
    UNIVERSAL_REQUEST = 4
    #: A rank announcing it finished its own reads (to rank 0).
    WORKER_DONE = 5
    #: Rank 0 announcing the whole correction phase is over.
    SHUTDOWN = 6
    #: Replica transfer from a doomed rank to its recovery partner
    #: (reliable: never subject to frame faults).
    REPLICA = 15

    #: First tag reserved for collectives; user tags must stay below.
    COLLECTIVE_BASE = 1 << 20


#: The Step IV count-request tags, in the order a serve turn drains them.
REQUEST_TAGS = (Tags.KMER_REQUEST, Tags.TILE_REQUEST, Tags.UNIVERSAL_REQUEST)


class Message:
    """A delivered message: ``source``, ``tag`` and ``payload``.

    Built once per delivered frame, so it is a plain slotted record (a
    frozen dataclass costs three ``object.__setattr__`` calls a frame);
    nothing mutates a message once it is delivered."""

    __slots__ = ("source", "tag", "payload")

    def __init__(self, source: int, tag: int, payload: Any) -> None:
        self.source = source
        self.tag = tag
        self.payload = payload

    def __repr__(self) -> str:
        return (
            f"Message(source={self.source!r}, tag={self.tag!r}, "
            f"payload={self.payload!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (self.source, self.tag, self.payload) == (
            other.source, other.tag, other.payload
        )

    def __hash__(self) -> int:
        return hash((self.source, self.tag, self.payload))

    def matches(self, source: int, tag: int) -> bool:
        """Does this message match a (source, tag) pattern with wildcards?

        As in MPI, ``ANY_TAG`` matches user tags only: a reserved tag (a
        collective generation, a group's window) is matched only when
        named, so a wildcard receive never takes a collective's frame."""
        return source in (ANY_SOURCE, self.source) and (
            tag == self.tag
            or (tag == ANY_TAG and self.tag < Tags.COLLECTIVE_BASE)
        )
