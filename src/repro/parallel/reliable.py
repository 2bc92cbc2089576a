"""The reliable-request layer: one wait under every count client.

Step IV is one idea — ask the owner, serve peers while you wait — and
every lookup round of it is asked by the one protocol and keeps its
outstanding requests here.  Every request frame carries its ``(seq,
who)`` name and every answer echoes it, under every plan; a plan
changes only what this layer does with them.  :class:`ReliableRequests` owns the whole retry *policy*:

* **sequence** — :meth:`open` numbers each round from a per-communicator
  monotone counter, so a frame that outlives its round (delayed,
  duplicated, or answered after a retransmit) can never carry the number
  of a later one, whichever protocol object sent it;
* **window** — the requests of the open round that are still
  unanswered, with the frames to resend when a
  :class:`~repro.faults.FaultPlan` can lose them (and only then:
  unarmed, nothing is retained).  One round is open at a time;
* **wait** — :meth:`wait` runs the caller's ``progress`` (the
  protocol's ``pump``: receive and dispatch one message) until the
  window is empty, and closes the round.  Unarmed that is a plain
  blocking loop: no clock, no resend.  Armed it is the deadline /
  backoff / resend loop and the one place
  :class:`~repro.errors.LookupTimeoutError` is built;
* **stale rule** — :meth:`settle` is the single fresh-or-stale decision
  for an arriving answer.

A wait that never ends is not this layer's to detect: the engines'
deadlock detection and receive timeouts are the wedge guard.
"""

from __future__ import annotations

import itertools
import time
import weakref
from typing import Any, Callable, Iterator

from repro.errors import CommunicatorError, LookupTimeoutError
from repro.simmpi.communicator import Communicator

#: ``progress(block) -> arrived``: make one step of communication
#: progress; ``block=False`` must return at once, ``block=True`` must
#: return with a message (or raise).
Progress = Callable[[bool], bool]

_sequences: "weakref.WeakKeyDictionary[Communicator, Iterator[int]]" = (
    weakref.WeakKeyDictionary()
)


class ReliableRequests:
    """One rank's outstanding count requests (see module docstring).

    A request is named ``(seq, who)``: the round it belongs to and the
    frame within it — the owner asked (``owner + size`` for a base-mode
    tile frame, the owner's second of the round).  Both travel in the
    frame's header and come back in its answer's.  ``plan`` arms the
    retry policy when frames can be lost; otherwise the layer only
    tracks what is pending.
    """

    def __init__(self, comm: Communicator, plan=None) -> None:
        self.comm = comm
        #: The retry schedule, or None when lookups cannot be lost.
        self.plan = (
            plan if plan is not None and plan.needs_resilient_lookups else None
        )
        self._sequence = _sequences.setdefault(comm, itertools.count(1))
        #: The open round's number, or None between rounds.
        self._seq: int | None = None
        #: The open round's pending requests: who -> (dest, payload,
        #: tag) retained for resends (None when unarmed).
        self._window: dict[int, tuple[int, Any, int] | None] = {}

    @property
    def armed(self) -> bool:
        """Do requests need retained frames, deadlines and resends?"""
        return self.plan is not None

    def open(self) -> int:
        """Open a round; its sequence number exceeds every earlier one
        on this communicator (and fits the uint32 response headers).
        A round is open until its :meth:`wait` returns; opening another
        meanwhile is an error."""
        if self._seq is not None:
            raise CommunicatorError(
                f"rank {self.comm.rank}: round {self._seq} is still open"
            )
        seq = next(self._sequence)
        if seq >= 1 << 32:
            raise CommunicatorError("request sequence overflow")
        self._seq = seq
        return seq

    def send(self, who: int, dest: int, payload: Any, tag: int) -> None:
        """Ship one request of the open round and hold it outstanding."""
        self._window[who] = (dest, payload, tag) if self.plan is not None else None
        self.comm.send(dest, payload, tag=tag)

    def settle(self, seq: int, who: int) -> bool:
        """An answer for ``(seq, who)`` arrived: is it the first?

        True settles the request.  False means stale — a retry raced its
        original answer, a duplicated frame, or a round long over —
        which an armed layer counts and tolerates; unarmed nothing can
        produce one, so it is a protocol error.
        """
        if seq == self._seq and who in self._window:
            del self._window[who]
            return True
        if self.plan is None:
            raise CommunicatorError(
                f"rank {self.comm.rank}: unmatched answer from {who} "
                f"to request {seq}"
            )
        self.comm.stats.bump("stale_responses")
        return False

    def wait(self, progress: Progress) -> None:
        """Run ``progress`` until every request of the open round
        settled, then close the round (on an error too).

        Unarmed: blocking progress, nothing else.  Armed: non-blocking
        progress against a ``plan.timeout_for(attempt)`` deadline; each
        expiry resends what is still pending and lengthens the next
        deadline, up to ``plan.max_retries``.
        """
        try:
            if not self._window:
                return
            if self.plan is None:
                self._wait_blocking(self._window, progress)
            else:
                self._wait_retrying(self._seq, self._window, progress)
        finally:
            self._seq = None
            self._window = {}

    def _wait_blocking(self, window: dict, progress: Progress) -> None:
        while window:
            if not progress(True):
                raise CommunicatorError(
                    f"rank {self.comm.rank}: a blocking progress turn "
                    f"returned empty-handed, answers from {sorted(window)} "
                    "still pending"
                )

    def _wait_retrying(self, seq: int, window: dict, progress: Progress) -> None:
        comm, plan = self.comm, self.plan
        # On the cooperative engine an empty probe yields the turn, so
        # the loop needs no wall-clock sleep to let peers progress.
        sleep_hint = 0.0 if comm.probe_yields else 0.002
        attempt = 0
        deadline = time.monotonic() + plan.timeout_for(attempt)
        while window:
            if progress(False):
                continue
            if time.monotonic() > deadline:
                comm.stats.bump("lookup_timeouts")
                attempt += 1
                if attempt > plan.max_retries:
                    pending = sorted(window)
                    raise LookupTimeoutError(
                        f"rank {comm.rank}: {pending} never answered "
                        f"request {seq} within {plan.max_retries} retries "
                        f"({plan.total_budget():.2f}s budget)",
                        rank=comm.rank,
                        pending=pending,
                        attempts=attempt,
                    )
                for who in sorted(window):
                    dest, payload, tag = window[who]
                    comm.send(dest, payload, tag=tag)
                    comm.stats.bump("lookup_retries")
                deadline = time.monotonic() + plan.timeout_for(attempt)
            elif sleep_hint:
                time.sleep(sleep_hint)
