"""Sub-communicators (``MPI_Comm_split``).

A sub-communicator addresses a subset of the world's ranks with dense
local ranks 0..n-1, so group algorithms (the paper's Section V partial
replication exchanges, for instance) are written naturally instead of
filtering a world-wide collective.

A group *is* a :class:`~repro.simmpi.communicator.Communicator`: it
overrides only its identity (rank, size, members, stats) and the
internal point-to-point path every verb and collective shares.  That
path maps group ranks to world ranks and shifts tags into a reserved
region of the world's tag space.  Each split consumes one world
collective generation, which gives every member the same *split
ordinal*; the ordinal picks the group's stride of tags.  Messages inside
different groups (or the world) therefore can never cross-match.

The scheme imposes two restrictions.  ``ANY_TAG`` receives are not
available inside a group: the members' traffic shares the world mailbox,
and a wildcard would see through the translation.  And a group does not
split further; split the world instead.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import CommunicatorError
from repro.simmpi.communicator import Communicator
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Message

#: Base of the tag region reserved for sub-communicators.
SUBCOMM_TAG_BASE = 1 << 28
#: Tag stride per split ordinal: user tags plus collective generations.
SUBCOMM_TAG_STRIDE = 1 << 22


class SubCommunicator(Communicator):
    """A dense-rank group over a subset of the world communicator."""

    def __init__(self, parent: Communicator, members: Sequence[int],
                 ordinal: int) -> None:
        members = list(members)
        if parent.rank not in members:
            raise CommunicatorError(
                f"rank {parent.rank} is not a member of the split group"
            )
        if len(set(members)) != len(members):
            raise CommunicatorError("split group has duplicate members")
        super().__init__(parent._world, members.index(parent.rank),
                         parent._engine)
        self._parent = parent
        self._members = members
        self._tag_base = SUBCOMM_TAG_BASE + ordinal * SUBCOMM_TAG_STRIDE

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of ranks in the group."""
        return len(self._members)

    @property
    def members(self) -> tuple[int, ...]:
        """The parent ranks of the group, in local-rank order."""
        return tuple(self._members)

    @property
    def stats(self):
        """Traffic is accounted on the parent rank's ledger."""
        return self._parent.stats

    # ------------------------------------------------------------------
    def _send(self, dest: int, payload: Any, tag: int) -> None:
        """Send to a group rank under the group's shifted tag."""
        self._check_peer(dest)
        if tag >= SUBCOMM_TAG_STRIDE:
            raise CommunicatorError("sub-communicator generation overflow")
        self._parent._send(self._members[dest], payload, self._tag_base + tag)

    def _receive(self, call, source: int, tag: int) -> Message | None:
        """``call`` on the parent's mailbox, translated both ways."""
        if tag == ANY_TAG:
            raise CommunicatorError(
                "ANY_TAG is not supported inside a sub-communicator"
            )
        if source != ANY_SOURCE:
            self._check_peer(source)
            source = self._members[source]
        msg = self._parent._receive(call, source, self._tag_base + tag)
        if msg is None:
            return None
        return Message(self._members.index(msg.source), tag, msg.payload)

    def _take(self, source: int, tags: tuple[int, ...]) -> list[Message]:
        """The parent's take under the group's shifted tags, translated
        both ways."""
        if source != ANY_SOURCE:
            self._check_peer(source)
            source = self._members[source]
        base = self._tag_base
        taken = self._parent._take(source, tuple(base + tag for tag in tags))
        return [
            Message(self._members.index(msg.source), msg.tag - base, msg.payload)
            for msg in taken
        ]


def split(parent: Communicator, color: int) -> SubCommunicator:
    """Partition the parent communicator by ``color`` (collective).

    Every rank calls with its color; ranks sharing a color form one group
    with local ranks in parent-rank order.  Returns this rank's group.
    """
    if isinstance(parent, SubCommunicator):
        raise CommunicatorError(
            "a sub-communicator does not split further; split the world"
        )
    infos = parent.allgather((int(color), parent.rank))
    # The allgather consumed one parent generation; reuse it as the split
    # ordinal so all members agree without more traffic.
    members = [r for c, r in sorted(infos, key=lambda x: x[1]) if c == color]
    return SubCommunicator(parent, members, parent._generation)
