"""Deterministic, seeded fault injection for the simmpi runtime.

The paper's distributed Step IV assumes every remote k-mer/tile lookup
is eventually answered; at BG/Q scale that assumption is the first thing
a real deployment loses.  This module makes the loss reproducible: a
picklable :class:`FaultPlan` scripts frame-level faults (drop, duplicate,
delay) plus rank-level faults (scripted crashes and stalls),
and a :class:`FaultInjector` applies them at the transport boundary so
the *same* chaos replays on the cooperative, threaded, and process
engines.

Determinism without a shared sequence counter
---------------------------------------------
A per-edge message counter would be nondeterministic under threads (the
interleaving decides which message is "third").  Instead every decision
is a pure function of the frame's *content*: a keyed blake2b over the
encoded frame bytes, the destination, and how many times this exact
frame has been offered to that destination before (so a retransmitted
frame — byte-identical by construction — draws a fresh decision).  Since
frames embed their source and tag, two logical messages never collide,
and the per-child injectors of the process engine see exactly the same
(frame, dest, occurrence) triples a single shared injector would.

Fault scoping
-------------
Frame faults apply only to the *lookup plane* (:data:`DROPPABLE_TAGS`):
Step IV's count requests and their answers.  Control
traffic (DONE/SHUTDOWN, replica transfers) and collectives (the whole
of Step III, the read-table exchange included) ride a reliable
substrate — the same layering as TeaMPI, which interposes resilience
under an unchanged MPI-style API.  Crash and stall faults are *phase-gated*: they count
only correction-phase communication events, announced by the engines'
``enter_phase`` hook, because the recovery protocol replicates state at
the phase boundary (crashing earlier would be unsurvivable by design,
and :meth:`FaultPlan.validate` documents that contract).

Recovery model (ReStore-style)
------------------------------
The plan travels with the SPMD program, so every rank knows which ranks
are doomed before correction starts.  Each doomed rank replicates its
spectrum shard and read partition in memory to a partner
(``(rank+1) % size``), and clients route requests for a doomed owner's
keys straight to the partner (the scripted plan stands in for a failure
detector).  After correcting its own reads
the partner replays the ward's reads from the replica; the crashed
rank's partial results are discarded, so the merged output is
bit-identical to the fault-free run regardless of where the crash fired.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import threading
import time
from dataclasses import dataclass, replace

from repro.errors import ConfigError, RankCrashError
from repro.simmpi import wire
from repro.simmpi.message import REQUEST_TAGS, Tags
from repro.simmpi.transport import Transport

#: Tags the injector may drop/duplicate/delay — Step IV's
#: lookup plane: the count requests and their answers.  Everything else
#: (DONE, SHUTDOWN, REPLICA, service control, collectives — all of Step
#: III) is delivered reliably.
DROPPABLE_TAGS = frozenset({*REQUEST_TAGS, Tags.COUNT_RESPONSE})

_TWO64 = float(1 << 64)


@dataclass(frozen=True)
class CrashFault:
    """Scripted death of one rank after its N-th correction-phase send."""

    rank: int
    after_events: int = 3


@dataclass(frozen=True)
class StallFault:
    """Scripted pause of one rank (``seconds``) at its N-th
    correction-phase send — a slow rank, not a dead one."""

    rank: int
    after_events: int = 3
    seconds: float = 0.5


@dataclass(frozen=True)
class FaultPlan:
    """A picklable, JSON-round-trippable chaos script.

    Frame-fault rates are cumulative-threshold probabilities per
    droppable frame; ``max_drops_per_frame`` caps how many times one
    logical frame (by content) may be lost, which is what makes a plan
    *survivable*: a retransmitting client needs at most
    ``2 * max_drops_per_frame`` failed rounds per lookup (request plus
    response may each be lost up to the cap), so any
    ``max_retries >= 2 * max_drops_per_frame`` budget suffices.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    #: How many transport events (enqueues + polls) a delayed frame is
    #: held back before being flushed.
    delay_events: int = 3
    #: Cap on drops per distinct frame content; None means uncapped
    #: (such plans may not be survivable).
    max_drops_per_frame: int | None = 2
    crashes: tuple[CrashFault, ...] = ()
    stalls: tuple[StallFault, ...] = ()
    #: Retry schedule of the resilient lookup clients.
    base_timeout_s: float = 0.25
    backoff: float = 2.0
    max_retries: int = 6

    # ------------------------------------------------------------------
    def timeout_for(self, attempt: int) -> float:
        """Deadline length of retry round ``attempt`` (0-based):
        ``base_timeout_s * backoff ** attempt``."""
        return self.base_timeout_s * self.backoff**attempt

    def total_budget(self) -> float:
        """Worst-case seconds a lookup may wait before
        :class:`~repro.errors.LookupTimeoutError`: the sum of all
        ``max_retries + 1`` deadline rounds."""
        return sum(self.timeout_for(a) for a in range(self.max_retries + 1))

    # ------------------------------------------------------------------
    @property
    def has_frame_faults(self) -> bool:
        return (
            self.drop_rate > 0 or self.duplicate_rate > 0
            or self.delay_rate > 0
        )

    @property
    def needs_resilient_lookups(self) -> bool:
        """Whether Step IV must run its retry/failover protocol (any
        frame fault or crash; stalls alone only slow the happy path)."""
        return self.has_frame_faults or bool(self.crashes)

    @property
    def stall_only(self) -> bool:
        """True when the plan only slows ranks down — the one fault kind
        compatible with the runtime verifier's mailbox audit."""
        return not self.has_frame_faults and not self.crashes

    def doomed_ranks(self) -> frozenset[int]:
        """Ranks scripted to die (each needs a live recovery partner)."""
        return frozenset(c.rank for c in self.crashes)

    @staticmethod
    def partner_of(rank: int, size: int) -> int:
        """The recovery partner of a doomed rank."""
        return (rank + 1) % size

    # ------------------------------------------------------------------
    def validate(self, nranks: int) -> None:
        """Reject plans the runtime cannot honor on ``nranks`` ranks."""
        _numbers(self, ("seed", "delay_events", "max_retries"), (
            "drop_rate", "duplicate_rate", "delay_rate",
            "base_timeout_s", "backoff",
        ))
        if self.max_drops_per_frame is not None:
            _numbers(self, ("max_drops_per_frame",))
        for crash in self.crashes:
            _numbers(crash, ("rank", "after_events"))
        for stall in self.stalls:
            _numbers(stall, ("rank", "after_events"), ("seconds",))
        rates = {
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "delay_rate": self.delay_rate,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if sum(rates.values()) > 1.0:
            raise ConfigError(
                "fault rates are cumulative thresholds and must sum to <= 1"
            )
        if self.delay_events < 1:
            raise ConfigError("delay_events must be >= 1")
        if self.max_drops_per_frame is not None and self.max_drops_per_frame < 0:
            raise ConfigError("max_drops_per_frame must be >= 0 or None")
        if self.base_timeout_s <= 0:
            raise ConfigError("base_timeout_s must be positive")
        if self.backoff < 1.0:
            raise ConfigError("backoff must be >= 1")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        doomed = [c.rank for c in self.crashes]
        if len(set(doomed)) != len(doomed):
            raise ConfigError("at most one CrashFault per rank")
        for c in self.crashes:
            if not 0 <= c.rank < nranks:
                raise ConfigError(f"crash rank {c.rank} out of range")
            if c.rank == 0:
                raise ConfigError(
                    "rank 0 coordinates the DONE/SHUTDOWN handshake and "
                    "cannot be doomed"
                )
            if c.after_events < 1:
                raise ConfigError("crash after_events must be >= 1")
            partner = self.partner_of(c.rank, nranks)
            if partner in set(doomed):
                raise ConfigError(
                    f"recovery partner {partner} of doomed rank {c.rank} "
                    "is itself doomed"
                )
        for s in self.stalls:
            if not 0 <= s.rank < nranks:
                raise ConfigError(f"stall rank {s.rank} out of range")
            if s.after_events < 1:
                raise ConfigError("stall after_events must be >= 1")
            if s.seconds < 0:
                raise ConfigError("stall seconds must be >= 0")

    # ------------------------------------------------------------------
    # JSON round trip (the CLI's --faults plan.json)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The plan as plain JSON-serializable types (see from_dict)."""
        out = {
            "seed": self.seed,
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "delay_rate": self.delay_rate,
            "delay_events": self.delay_events,
            "max_drops_per_frame": self.max_drops_per_frame,
            "crashes": [vars(c).copy() for c in self.crashes],
            "stalls": [vars(s).copy() for s in self.stalls],
            "base_timeout_s": self.base_timeout_s,
            "backoff": self.backoff,
            "max_retries": self.max_retries,
        }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (unknown fields
        are a ConfigError, not silently dropped)."""
        data = dict(data)
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown fault-plan field(s): {', '.join(sorted(unknown))}"
            )
        faults = {}
        for field, kind in (("crashes", CrashFault), ("stalls", StallFault)):
            entries = data.pop(field, [])
            for entry in entries:
                unknown = set(entry) - set(kind.__dataclass_fields__)
                if unknown:
                    raise ConfigError(
                        f"unknown {field} field(s): {', '.join(sorted(unknown))}"
                    )
            faults[field] = tuple(kind(**entry) for entry in entries)
        return cls(**faults, **data)

    def to_json(self) -> str:
        """The plan as pretty-printed JSON (the ``--faults`` file)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from :meth:`to_json` text."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "FaultPlan":
        """Load a JSON plan file (``repro correct --faults plan.json``)."""
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def with_seed(self, seed: int) -> "FaultPlan":
        """The same chaos script under a different seed."""
        return replace(self, seed=seed)


def _numbers(
    obj: object, ints: tuple[str, ...], reals: tuple[str, ...] = ()
) -> None:
    """A ConfigError names a field of ``obj`` that is not an integer
    (``ints``) or a number (``reals``); a bool is neither."""
    for names, kind, what in (
        (ints, numbers.Integral, "an integer"), (reals, numbers.Real, "a number")
    ):
        for name in names:
            value = getattr(obj, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{name} must be {what}, got {value!r}")


class CrashedRank:
    """Picklable result sentinel for a rank killed by its CrashFault."""

    __slots__ = ("rank",)

    def __init__(self, rank: int) -> None:
        self.rank = rank

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CrashedRank({self.rank})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CrashedRank) and other.rank == self.rank

    def __hash__(self) -> int:
        return hash(("CrashedRank", self.rank))


# ----------------------------------------------------------------------
class FaultInjector:
    """Applies one :class:`FaultPlan` to a world's transport and ranks.

    One instance per world on the in-memory engines; one per spawned
    child on the process engine (equivalent by the content-hash argument
    in the module docstring).  ``stats`` is the world's per-rank
    :class:`~repro.simmpi.instrument.CommStats` list — fault counters
    are charged to the *sending* rank, read from the frame header.
    """

    def __init__(self, plan: FaultPlan, nranks: int, stats=None) -> None:
        self.plan = plan
        self.nranks = nranks
        self._stats = stats
        self._key = hashlib.blake2b(
            str(plan.seed).encode(), digest_size=16
        ).digest()
        self._lock = threading.Lock()
        #: (dest, frame digest) -> times this exact frame was offered.
        self._occurrence: dict[tuple[int, bytes], int] = {}
        #: frame digest -> drops applied so far.
        self._drops: dict[bytes, int] = {}
        #: Transport activity counter driving delayed-frame release.
        self._events = 0
        self._delayed: list[tuple[int, int, bytes]] = []
        self._phase: dict[int, str] = {}
        self._comm_events: dict[int, int] = {}
        self._crashes = {c.rank: c for c in plan.crashes}
        self._stalls: dict[int, list[StallFault]] = {}
        for s in plan.stalls:
            self._stalls.setdefault(s.rank, []).append(s)
        self._fired_crashes: set[int] = set()
        self._fired_stalls: set[tuple[int, int]] = set()
        self._active_stalls: dict[int, float] = {}
        #: Internal fault tally (mirrors the per-rank stats bumps) so
        #: :meth:`describe_pending` works even without a stats list.
        self.counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # frame faults
    # ------------------------------------------------------------------
    def decide(self, dest: int, frame: bytes) -> str:
        """The fate of one offered frame: ``pass``, ``drop``,
        ``duplicate``, or ``delay`` (deterministic in the plan seed and
        the frame's content/occurrence)."""
        plan = self.plan
        if not plan.has_frame_faults:
            return "pass"
        _source, tag = wire.frame_header(frame)
        if tag not in DROPPABLE_TAGS:
            return "pass"
        digest = hashlib.blake2b(frame, digest_size=8).digest()
        with self._lock:
            occ = self._occurrence.get((dest, digest), 0)
            self._occurrence[(dest, digest)] = occ + 1
        draw = hashlib.blake2b(
            digest
            + dest.to_bytes(4, "little", signed=True)
            + occ.to_bytes(8, "little"),
            key=self._key,
            digest_size=8,
        ).digest()
        u = int.from_bytes(draw, "little") / _TWO64
        edge = plan.drop_rate
        verdict = "pass"
        if u < edge:
            verdict = "drop"
        elif u < (edge := edge + plan.duplicate_rate):
            verdict = "duplicate"
        elif u < edge + plan.delay_rate:
            verdict = "delay"
        if verdict == "drop":
            cap = plan.max_drops_per_frame
            with self._lock:
                lost = self._drops.get(digest, 0)
                if cap is not None and lost >= cap:
                    return "pass"
                self._drops[digest] = lost + 1
        return verdict

    def defer(self, dest: int, frame: bytes) -> None:
        """Hold a delayed frame until ``delay_events`` more transport
        events pass (released by :meth:`take_due`)."""
        with self._lock:
            self._delayed.append(
                (self._events + self.plan.delay_events, dest, frame)
            )

    def take_due(self) -> list[tuple[int, bytes]]:
        """Advance the transport event clock and release due frames."""
        with self._lock:
            self._events += 1
            if not self._delayed:
                return []
            now = self._events
            due = [(d, f) for at, d, f in self._delayed if at <= now]
            self._delayed = [e for e in self._delayed if e[0] > now]
            return due

    def record(self, source: int, name: str) -> None:
        """Charge one fault counter to the sending rank."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1
        if self._stats is not None and 0 <= source < len(self._stats):
            self._stats[source].bump(name)

    # ------------------------------------------------------------------
    # rank faults (crash / stall), phase-gated
    # ------------------------------------------------------------------
    def enter_phase(self, rank: int, phase: str) -> None:
        """Engines/protocols announce phase entry; crash/stall triggers
        count communication events only inside "correction"."""
        with self._lock:
            self._phase[rank] = phase
            self._comm_events[rank] = 0

    def at_event(self, rank: int) -> None:
        """One correction-phase communication event on ``rank``: fire
        any scripted stall (sleep) or crash (:class:`RankCrashError`)."""
        if rank not in self._crashes and rank not in self._stalls:
            return
        with self._lock:
            if self._phase.get(rank) != "correction":
                return
            n = self._comm_events.get(rank, 0) + 1
            self._comm_events[rank] = n
        stall_s = None
        for s in self._stalls.get(rank, ()):
            key = (rank, s.after_events)
            if s.after_events == n and key not in self._fired_stalls:
                self._fired_stalls.add(key)
                stall_s = s.seconds
        if stall_s is not None:
            self.record(rank, "stalls_injected")
            self._active_stalls[rank] = stall_s
            try:
                time.sleep(stall_s)
            finally:
                self._active_stalls.pop(rank, None)
        crash = self._crashes.get(rank)
        if crash is not None and crash.after_events == n:
            self._fired_crashes.add(rank)
            self.record(rank, "crashes_injected")
            raise RankCrashError(rank, n)

    def crash_fired(self, rank: int) -> bool:
        return rank in self._fired_crashes

    # ------------------------------------------------------------------
    def describe_pending(self) -> str:
        """One-line state summary for deadlock diagnostics: what the
        plan has already done and what is still scripted to happen."""
        parts: list[str] = []
        with self._lock:
            counts = dict(self.counts)
            delayed = len(self._delayed)
            events = dict(self._comm_events)
        fault_bits = [f"{k}={v}" for k, v in sorted(counts.items()) if v]
        if fault_bits:
            parts.append(", ".join(fault_bits))
        if delayed:
            parts.append(f"{delayed} frame(s) held in the delay buffer")
        for rank, seconds in sorted(self._active_stalls.items()):
            parts.append(f"rank {rank} stall of {seconds}s in progress")
        for c in sorted(self._crashes.values(), key=lambda c: c.rank):
            if c.rank in self._fired_crashes:
                parts.append(f"rank {c.rank} crash fired")
            else:
                parts.append(
                    f"rank {c.rank} crash pending (after event "
                    f"{c.after_events}, at {events.get(c.rank, 0)})"
                )
        for rank, stalls in sorted(self._stalls.items()):
            pending = [
                s for s in stalls
                if (rank, s.after_events) not in self._fired_stalls
            ]
            if pending:
                parts.append(
                    f"rank {rank} has {len(pending)} stall(s) pending"
                )
        return "; ".join(parts) if parts else "no faults fired yet"


# ----------------------------------------------------------------------
class FaultyTransport(Transport):
    """A :class:`Transport` decorator applying an injector's frame
    faults at the enqueue boundary.

    Only wraps when a plan is active — fault-free runs never construct
    one, so the hot path stays untouched.  ``enqueue`` returns None for
    undelivered frames (dropped/delayed); the engines tolerate that.
    ``on_deliver`` is an engine hook invoked for frames released from
    the delay buffer, so a receiver blocked on exactly that frame is
    woken (re-armed/notified) the way a direct deposit would.
    """

    def __init__(self, inner: Transport, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector
        self.on_deliver = None

    def __getattr__(self, name):
        # boxes / queues / take / admit / rank of the inner transport
        # stay reachable for engines and white-box tests.
        return getattr(self.inner, name)

    def enqueue(self, dest: int, frame: bytes):
        inj = self.injector
        source, _tag = wire.frame_header(frame)
        verdict = inj.decide(dest, frame)
        out = None
        if verdict == "pass":
            out = self.inner.enqueue(dest, frame)
        elif verdict == "drop":
            inj.record(source, "frames_dropped")
        elif verdict == "duplicate":
            out = self.inner.enqueue(dest, frame)
            self.inner.enqueue(dest, frame)
            inj.record(source, "frames_duplicated")
        elif verdict == "delay":
            inj.defer(dest, frame)
            inj.record(source, "frames_delayed")
        self._flush()
        return out

    def poll(self, rank: int, source: int, tag: int, remove: bool):
        self._flush()
        return self.inner.poll(rank, source, tag, remove)

    def take_all(self, rank: int, source: int, tags: tuple[int, ...]):
        self._flush()
        return self.inner.take_all(rank, source, tags)

    def _flush(self) -> None:
        for dest, frame in self.injector.take_due():
            msg = self.inner.enqueue(dest, frame)
            if self.on_deliver is not None:
                self.on_deliver(dest, msg)


def describe_faults(world: object) -> str | None:
    """The injector's pending-state rendering for a world, or None when
    no injection is active (feeds DeadlockError diagnostics)."""
    injector = getattr(world, "injector", None)
    if injector is None:
        return None
    rendered: str | None = injector.describe_pending()
    return rendered
