"""Transports: how encoded frames move between ranks.

The delivery contract factored out of the engines: a transport accepts
encoded wire frames addressed to a rank (:meth:`Transport.enqueue`) and
answers (source, tag)-pattern queries against that rank's pending
messages (:meth:`Transport.poll`).  Scheduling — who runs, how a rank
blocks when its poll comes up empty — stays with the engines.

Two implementations:

* :class:`LocalTransport` — one decoded-message deque per rank in shared
  memory, used by both in-memory engines (the cooperative
  scheduler and the free-threaded one).  Frames are decoded on enqueue,
  so delivery is a deep copy and the caller's engine can match against
  :class:`~repro.simmpi.message.Message` objects directly; a message
  the communicator already copied (:func:`repro.simmpi.wire.frame_copy`)
  is queued as it is by :meth:`LocalTransport.append`.  Callers
  synchronize with the world lock.
* :class:`ProcessTransport` — the shared-nothing transport behind the
  process engine.  Every rank lives in its own spawned interpreter; a
  frame travels as bytes over the destination's multiprocessing queue
  and is decoded into the destination's box when that rank next polls
  or parks.  It keeps only the queue side: matching is
  :class:`LocalTransport`'s, on the rank's one box.
"""

from __future__ import annotations

import queue as queue_mod
from collections import deque
from typing import Any

from repro.simmpi import wire
from repro.simmpi.message import ANY_SOURCE, Message


class Transport:
    """Delivery contract shared by every engine (see module docstring)."""

    def enqueue(self, dest: int, frame: bytes) -> Message | None:
        """Deliver an encoded frame to ``dest``; returns the decoded
        message when the transport decodes eagerly (local delivery)."""
        raise NotImplementedError

    def poll(self, rank: int, source: int, tag: int,
             remove: bool) -> Message | None:
        """First pending message for ``rank`` matching the pattern."""
        raise NotImplementedError

    def take_all(self, rank: int, source: int,
                 tags: tuple[int, ...]) -> list[Message]:
        """Remove every pending message for ``rank`` from ``source``
        under one of the user ``tags``: grouped in the order of
        ``tags``, each group in arrival order."""
        raise NotImplementedError


class LocalTransport(Transport):
    """Shared-memory frame delivery: one message deque per rank.

    Thread safety is the caller's: the engines invoke every method while
    holding the world lock.
    """

    def __init__(self, nranks: int) -> None:
        self.boxes: list[deque[Message]] = [deque() for _ in range(nranks)]

    def enqueue(self, dest: int, frame: bytes) -> Message | None:
        """Decode the frame (the copy-on-send boundary) and queue it."""
        return self.append(dest, wire.decode_frame(frame))

    def append(self, dest: int, msg: Message) -> Message:
        """Queue an already delivered (copied) message for ``dest``."""
        self.boxes[dest].append(msg)
        return msg

    def poll(self, rank: int, source: int, tag: int,
             remove: bool) -> Message | None:
        """First queued message for ``rank`` matching (source, tag)."""
        box = self.boxes[rank]
        for i, msg in enumerate(box):
            if msg.matches(source, tag):
                if remove:
                    del box[i]
                return msg
        return None

    def take_all(self, rank: int, source: int,
                 tags: tuple[int, ...]) -> list[Message]:
        """One scan of ``rank``'s box (see :meth:`Transport.take_all`)."""
        box = self.boxes[rank]
        groups: dict[int, list[Message]] = {tag: [] for tag in tags}
        kept: list[Message] = []
        for msg in box:
            group = groups.get(msg.tag)
            if group is not None and source in (ANY_SOURCE, msg.source):
                group.append(msg)
            else:
                kept.append(msg)
        if len(kept) == len(box):
            return []
        box.clear()
        box.extend(kept)
        return [msg for tag in tags for msg in groups[tag]]


class ProcessTransport(LocalTransport):
    """Frames over multiprocessing queues, matched in this rank's box.

    One instance lives inside each spawned rank.  ``queues[d]`` is rank
    ``d``'s delivery queue: sending is a queue put of the raw frame
    bytes, and :meth:`take` gets the next frame off this rank's own
    queue within a timeout.  A poll first admits every frame already
    queued, then matches by :class:`LocalTransport`'s scan of the box.
    """

    def __init__(self, queues: list[Any], rank: int) -> None:
        super().__init__(len(queues))
        self.queues = queues
        self.rank = rank

    def enqueue(self, dest: int, frame: bytes) -> None:
        """Put the raw frame bytes on the destination rank's queue."""
        self.queues[dest].put(frame)

    def take(self, timeout: float) -> bytes | None:
        """The next frame on this rank's queue, waiting at most
        ``timeout`` seconds; None when none came."""
        try:
            frame: bytes = self.queues[self.rank].get(timeout=timeout)
        except queue_mod.Empty:
            return None
        return frame

    def admit(self, frame: bytes) -> None:
        """Decode a taken frame into this rank's box."""
        super().enqueue(self.rank, frame)

    def poll(self, rank: int, source: int, tag: int,
             remove: bool) -> Message | None:
        """Admit the frames already queued, then scan the box."""
        self._admit_queued()
        return super().poll(rank, source, tag, remove)

    def take_all(self, rank: int, source: int,
                 tags: tuple[int, ...]) -> list[Message]:
        """Admit the frames already queued, then take from the box."""
        self._admit_queued()
        return super().take_all(rank, source, tags)

    def _admit_queued(self) -> None:
        while (frame := self.take(0)) is not None:
            self.admit(frame)
