"""Opt-in runtime verification for simmpi SPMD runs.

Enabled with ``run_spmd(..., verify=True)``.  Two mechanisms:

* a **wait-for graph** across ranks, updated at every blocking receive:
  when rank *r* blocks on a specific source *s*, the verifier records
  the edge *r -> s* and immediately checks whether the edge closes a
  cycle (mutual waits) or points at a rank that has already finished
  (and so can never send again).  Either way the run fails *now* with a
  :class:`~repro.errors.DeadlockError` naming the blocked ranks and the
  tags each is waiting on — instead of after the threaded engine's
  120 s receive timeout.  Receives on ``ANY_SOURCE`` add no edge (any
  live rank could satisfy them); those deadlocks are still caught by
  the cooperative engine's nobody-can-run check or the timeout.

* a **finalize-time audit** after a successful run: undrained mailboxes
  (equivalently, sends that were never matched by a receive) and
  collective generation skew across ranks raise a
  :class:`~repro.errors.VerifierError` that names every leftover
  message's source, destination and tag.

All mutating methods are called by the engines while holding
``world.lock``, so the graph is always observed in a consistent state.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import TYPE_CHECKING

from repro.errors import DeadlockError, VerifierError
from repro.simmpi.message import ANY_SOURCE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simmpi.communicator import Communicator
    from repro.simmpi.engine import _World


class RuntimeVerifier:
    """Wait-for-graph deadlock detection plus a finalize audit.

    One instance is attached to a world (``world.verifier``); the
    engines call :meth:`begin_wait` / :meth:`end_wait` around every
    blocking receive and :meth:`mark_finished` when a rank's function
    returns.  All such calls happen under ``world.lock``.
    """

    def __init__(self, world: "_World") -> None:
        self._world = world
        #: rank -> {thread ident -> (source, tag)}.  A rank whose
        #: program runs several threads can have several simultaneous
        #: waits (one blocks on ANY_SOURCE while another blocks
        #: elsewhere).
        self._waits: dict[int, dict[int, tuple[int, int]]] = {
            r: {} for r in range(world.nranks)
        }
        self.finished: set[int] = set()
        self._comms: list[Communicator] = []
        #: (source, dest, tag) -> sends never matched by a receive;
        #: filled by the finalize audit from mailbox leftovers.
        self.unmatched_sends: Counter[tuple[int, int, int]] = Counter()

    # ------------------------------------------------------------------
    # wait-for graph (engine-facing; caller holds world.lock)
    # ------------------------------------------------------------------
    def begin_wait(self, rank: int, source: int,
                   tag: int) -> DeadlockError | None:
        """Record that ``rank`` blocks on ``(source, tag)``; diagnose.

        Returns a :class:`DeadlockError` if the new edge closes a
        wait-for cycle or targets a finished rank, else None.  The
        caller is responsible for raising it and waking other ranks.
        """
        self._waits[rank][threading.get_ident()] = (source, tag)
        if source == ANY_SOURCE:
            return None
        if source in self.finished:
            return self._diagnose([rank, source],
                                  f"rank {source} already finished")
        cycle = self._find_cycle(rank)
        if cycle is not None:
            return self._diagnose(cycle, "wait-for graph closed a cycle",
                                  cycle=cycle)
        return None

    def end_wait(self, rank: int) -> None:
        """The current thread's blocking receive completed."""
        self._waits[rank].pop(threading.get_ident(), None)

    def mark_finished(self, rank: int) -> DeadlockError | None:
        """``rank``'s program function returned; nobody can receive a
        message from it anymore.  Returns a diagnosis if some rank is
        blocked specifically on it with nothing pending."""
        self.finished.add(rank)
        stuck = [
            r for r, waits in self._waits.items()
            if r != rank and any(
                src == rank and self._truly_blocked(r, src, tag)
                for src, tag in waits.values()
            )
        ]
        if stuck:
            return self._diagnose([*stuck, rank],
                                  f"rank {rank} already finished")
        return None

    # -- graph internals ------------------------------------------------
    def _truly_blocked(self, rank: int, source: int, tag: int) -> bool:
        """A wait edge is real only while no matching message is queued
        (a sender may have deposited one the receiver has not woken up
        to collect yet)."""
        return self._world.find_message(rank, source, tag,
                                        remove=False) is None

    def _edges(self, rank: int) -> set[int]:
        return {
            src for src, tag in self._waits[rank].values()
            if src != ANY_SOURCE and self._truly_blocked(rank, src, tag)
        }

    def _find_cycle(self, start: int) -> list[int] | None:
        """DFS over wait edges from ``start``; a path back to ``start``
        is a deadlock cycle (returned in wait order)."""
        path: list[int] = [start]

        def dfs(rank: int) -> list[int] | None:
            for nxt in sorted(self._edges(rank)):
                if nxt == start:
                    return [*path, start]
                if nxt in path:
                    continue  # a cycle not involving start; its own
                    # begin_wait already had the chance to flag it
                path.append(nxt)
                found = dfs(nxt)
                if found is not None:
                    return found
                path.pop()
            return None

        return dfs(start)

    def _diagnose(self, ranks: list[int], detail: str,
                  cycle: list[int] | None = None) -> DeadlockError:
        blocked: dict[int, tuple[int, int]] = {}
        for r in dict.fromkeys(ranks):
            waits = self._waits.get(r, {})
            if waits:
                # Prefer a specific-source wait for the report.
                specific = [w for w in waits.values() if w[0] != ANY_SOURCE]
                blocked[r] = specific[0] if specific else \
                    next(iter(waits.values()))
        from repro.faults import describe_faults

        return DeadlockError.from_blocked(blocked, detail=detail,
                                          cycle=cycle,
                                          faults=describe_faults(self._world))

    # ------------------------------------------------------------------
    # finalize audit
    # ------------------------------------------------------------------
    def register_comm(self, comm: "Communicator") -> None:
        """Track a world communicator for the generation-skew audit."""
        self._comms.append(comm)

    def finalize(self) -> None:
        """Audit the world after a successful run.

        Raises :class:`VerifierError` on undrained mailboxes (sends that
        no receive ever matched) or collective generation skew across
        the registered world communicators.
        """
        problems: list[str] = []
        for rank, box in enumerate(self._world.mailboxes):
            for msg in box:
                self.unmatched_sends[(msg.source, rank, msg.tag)] += 1
        if self.unmatched_sends:
            leftovers = ", ".join(
                f"{n} message(s) from rank {src} to rank {dst} with tag {tag}"
                for (src, dst, tag), n in sorted(self.unmatched_sends.items())
            )
            total = sum(self.unmatched_sends.values())
            problems.append(
                f"{total} undrained message(s) — unmatched sends left in "
                f"mailboxes at finalize: {leftovers}"
            )
        generations = {c.rank: c._generation for c in self._comms}
        if generations and len(set(generations.values())) > 1:
            per_rank = ", ".join(
                f"rank {r}={g}" for r, g in sorted(generations.items())
            )
            problems.append(
                "collective generation skew: ranks completed different "
                f"numbers of collectives ({per_rank}); some rank skipped "
                "or repeated a collective"
            )
        if problems:
            raise VerifierError(
                "finalize audit failed: " + "; ".join(problems)
            )
