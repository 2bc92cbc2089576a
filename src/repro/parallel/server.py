"""The Step IV request/response protocol.

"If a rank during error correction does not have a k-mer (or tile) ... it
sends a message to the owning rank, requesting the count of the k-mer or
tile.  The communication thread of each rank probes any incoming messages;
based on the probe, it first finds out the nature of the request (if it is
a k-mer or a tile lookup) ... and sends the appropriate response."

The paper's per-rank *communication thread* is realized here as a message
pump every rank runs at its communication points: while a rank awaits
responses it serves whatever requests arrive, so request/response cycles
between ranks can never deadlock (a rank blocked on a response always has
its peer's request sitting in some mailbox).  The same pump runs on
every engine — cooperative, threaded and process alike.

Termination follows the paper, over a round's correcting ranks: each
reports DONE to the first of them when its own reads are finished and
keeps serving; that root sends SHUTDOWN once every one has reported, and
only then do they stop their pumps.  A batch round is every rank's,
rooted at rank 0; a rank outside a service round's window waits in its
pump meanwhile (:meth:`CorrectionProtocol.serve_until`), serving.

**One frame.**  A count request has one wire form, whichever round
asks and whatever the fault plan:
``uint64 [seq, who | ...]``, answered by ``uint32 [seq, who | counts]``
under ``COUNT_RESPONSE`` (see :class:`~repro.simmpi.message.Tags`).
``seq`` is the round's number from
:meth:`~repro.parallel.reliable.ReliableRequests.open`; ``who`` names the
frame within the round — the owner asked, plus ``size`` for a base-mode
tile frame — and so tells the server whose table to probe.  In
**universal** mode a round asks each owner once, both kinds in one
frame (``[seq, who, n_kmer | kmer ids, tile ids]``), so the receiver
never probes for the tag ("makes the call to MPI_Probe unwarranted");
in the base mode the kind travels as the tag — one frame per kind per
owner — and the receiver probes first, then receives by the probed tag.
A fault plan changes only the retry policy, never a frame.

**One client.**  A lookup round is one call,
:meth:`CorrectionProtocol.ask`: owner -> ``(k-mer keys, tile keys)``
in, owner -> ``(k-mer counts, tile counts)`` out.  It frames each
owner's share in the protocol's layout (:func:`frame_request`), pumps
until every frame is answered, and lands each answer in its owner's
slot of its kind by the answer's ``who`` — a universal answer is cut
at the k-mer count asked.  The layout is known here alone.  One round
is open at a time.  The
ids on the wire are keys (:mod:`repro.parallel.ownership`).  The one
ordering of a blocking round's keys — one sort per kind, cut at the
owners' key ranges, which buckets them, drops repeats and hands the
rank's own segment to its shard — is the lookup stack's
(:class:`~repro.parallel.lookup.stack.LookupRound`), not sorted again
here.  The wait goes through :mod:`repro.parallel.reliable`
(outstanding requests, sequence numbers, the retry policy under a
fault plan).

**One serve path.**  Serving is bulk: a turn that receives a request
also takes every request already delivered, of any request tag, in
one mailbox scan (:meth:`Communicator.take_queued`, which never blocks
and never yields), probes each owner's tables once per kind for all of
them, and answers each requester with its own frame
(:func:`serve_queued`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.errors import CommunicatorError
from repro.hashing.counthash import CountHash
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.parallel.lookup.routing import (
    KIND_KMER,
    KIND_TILE,
    RouteTable,
    ShardServer,
)
from repro.parallel.lookup.tiers import Tally
from repro.parallel.reliable import ReliableRequests
from repro.simmpi.communicator import Communicator
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, REQUEST_TAGS, Message, Tags

_NO_COUNTS = np.empty(0, dtype=np.uint32)


def frame_request(
    universal: bool, seq: int, owner: int, kmers: np.ndarray, tiles: np.ndarray,
    size: int,
) -> list[tuple[int, np.ndarray, int]]:
    """The frames of one owner's share of round ``seq``: its k-mer and
    tile keys.

    Returns ``(who, payload, tag)`` per frame: one universal frame named
    ``owner``, its header ``[seq, who, n_kmer]``, or a base-mode frame
    per kind present, named ``owner + kind * size``, its header ``[seq,
    who]``.  Each payload is one array, its header written in front of
    its ids.
    """
    if universal:
        n_kmer = kmers.shape[0]
        payload = np.empty(3 + n_kmer + tiles.shape[0], dtype=np.uint64)
        payload[:3] = (seq, owner, n_kmer)
        payload[3 : 3 + n_kmer] = kmers
        payload[3 + n_kmer :] = tiles
        return [(owner, payload, Tags.UNIVERSAL_REQUEST)]
    frames = []
    for kind, ids, tag in (
        (KIND_KMER, kmers, Tags.KMER_REQUEST),
        (KIND_TILE, tiles, Tags.TILE_REQUEST),
    ):
        if ids.shape[0]:
            who = owner + kind * size
            payload = np.empty(2 + ids.shape[0], dtype=np.uint64)
            payload[:2] = (seq, who)
            payload[2:] = ids
            frames.append((who, payload, tag))
    return frames


def _parse_request(
    msg: Message, size: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(owner, k-mer ids, tile ids, answer header) of one request."""
    payload = np.asarray(msg.payload, dtype=np.uint64)
    header, ids = payload[:2], payload[2:]
    if msg.tag == Tags.UNIVERSAL_REQUEST:
        n_kmer, ids = int(ids[0]), ids[1:]
    elif msg.tag == Tags.KMER_REQUEST:
        n_kmer = ids.shape[0]
    elif msg.tag == Tags.TILE_REQUEST:
        n_kmer = 0
    else:
        raise CommunicatorError(f"tag {msg.tag} is not a count request")
    return int(header[1]) % size, ids[:n_kmer], ids[n_kmer:], header


def serve_queued(comm: Communicator, shards: ShardServer, first: Message) -> None:
    """Answer ``first`` and every count request already delivered.

    The queued requests come in one mailbox scan (``take_queued``), by
    request tag, each tag's in arrival order.  One shard probe per owner
    named (a table probe per kind) for the whole batch — the rank's own
    tables, or a bound ward's replica — then one response frame per
    request, in the order the requests were taken: its header, then the
    counts of its k-mer ids, then of its tile ids.  A count of 0 means
    the key does not exist anywhere — "If a k-mer or tile does not exist
    at its owning rank, it can be inferred that the k-mer or tile does
    not exist at all" (the paper's -1 response).  The turn's counters
    are booked at once before the responses go out, ``requests_served``
    after them.
    """
    batch = [first, *comm.take_queued(ANY_SOURCE, REQUEST_TAGS)]
    size = comm.size
    requests = [_parse_request(msg, size) for msg in batch]
    tally = Tally()
    by_owner: dict[int, list[int]] = {}
    for i, request in enumerate(requests):
        by_owner.setdefault(request[0], []).append(i)
    answers: list[np.ndarray] = [np.empty(0, np.uint32)] * len(batch)
    for owner, mine in by_owner.items():
        kmer_counts, tile_counts = shards.lookup(
            owner,
            _joined([requests[i][1] for i in mine]),
            _joined([requests[i][2] for i in mine]),
            tally,
        )
        tally.bump("kmer_ids_served", int(kmer_counts.shape[0]))
        tally.bump("tile_ids_served", int(tile_counts.shape[0]))
        if owner != comm.rank:
            tally.bump("failover_requests_served", len(mine))
        # The owner's responses end to end, written by one concatenate;
        # each requester is sent its own slice.
        parts, ends = [], []
        k_at = t_at = end = 0
        for i in mine:
            _, kmers, tiles, header = requests[i]
            k_end, t_end = k_at + kmers.shape[0], t_at + tiles.shape[0]
            parts += (header, kmer_counts[k_at:k_end], tile_counts[t_at:t_end])
            end += 2 + k_end - k_at + t_end - t_at
            ends.append(end)
            k_at, t_at = k_end, t_end
        # The headers fit uint32: open() bounds seq, and who < 2 * size.
        joined = np.concatenate(parts, dtype=np.uint32, casting="unsafe")
        start = 0
        for i, end in zip(mine, ends):
            answers[i] = joined[start:end]
            start = end
    tally.bump("serve_probes")
    comm.stats.add(tally)
    for msg, answer in zip(batch, answers):
        comm.send(msg.source, answer, tag=Tags.COUNT_RESPONSE)
    comm.stats.bump("requests_served", len(batch))


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """``parts`` end to end (the one part itself when there is one)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class CorrectionProtocol:
    """One rank's endpoint in the correction-phase messaging.

    Serving always goes through :attr:`shards` — the rank's
    :class:`~repro.parallel.lookup.routing.ShardServer` — so crash
    recovery is a re-bind (:meth:`ShardServer.bind_ward`), not a special
    code path; client-side addressing goes through :attr:`routes`, the
    :class:`~repro.parallel.lookup.routing.RouteTable` compiled from the
    fault plan.
    """

    def __init__(
        self,
        comm: Communicator,
        owned_kmers: CountHash | SortedSpectrum,
        owned_tiles: CountHash | SortedSpectrum,
        universal: bool = False,
        faults=None,
    ) -> None:
        self.comm = comm
        self.universal = universal
        #: The serving half: this rank's owned tables plus any ward
        #: replicas recovery binds on (see CorrectionSession.correct).
        self.shards = ShardServer(comm.rank, owned_kmers, owned_tiles)
        #: Owner -> effective destination under the fault plan.
        self.routes = RouteTable.compile(faults, comm.size)
        #: Extra tag -> handler(Message) hooks; lets higher layers (e.g.
        #: the dynamic work-allocation ablation) ride the same pump.
        self.handlers: dict[int, Callable[[Message], None]] = {}
        #: Outstanding requests and the retry policy
        #: (:mod:`repro.parallel.reliable`): the one thing ``faults``
        #: changes besides the routes, never a frame.
        self.requests = ReliableRequests(comm, faults)
        #: The last round's chunks and answers, owner -> (k-mer, tile).
        self._asked: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._answers: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._done_seen = 0      # a round's first rank only
        self._shutdown = False
        self._done_sent = False
        self._doomed = faults.doomed_ranks() if faults is not None else frozenset()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def ask(
        self, chunks: dict[int, tuple[np.ndarray, np.ndarray]]
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """One lookup round: ask each owner for the counts of its chunk
        — owner -> ``(k-mer keys, tile keys)`` — and pump, serving
        whatever arrives, until every owner answered; returns owner ->
        ``(k-mer counts, tile counts)``.

        The protocol's mode picks the frame layout.  A request for a
        doomed owner goes to its recovery partner; when that is this
        rank, the ward's replica answers here with no message at all.
        """
        if self._done_sent:
            raise CommunicatorError("a lookup round after finish()")
        comm = self.comm
        if comm.rank in chunks:
            raise CommunicatorError("a lookup round given locally-owned ids")
        seq = self.requests.open()
        self._asked = chunks
        answers = self._answers = {}
        for owner, (kmers, tiles) in chunks.items():
            dest = self.routes.dest_for(owner)
            if dest == comm.rank:
                answers[owner] = self.shards.lookup(owner, kmers, tiles, comm.stats)
                comm.stats.bump("failover_requests_served")
                continue
            answers[owner] = (_NO_COUNTS, _NO_COUNTS)
            for who, payload, tag in frame_request(
                self.universal, seq, owner, kmers, tiles, comm.size
            ):
                self.requests.send(who, dest, payload, tag)
        self.requests.wait(self.pump)
        return answers

    def _land(self, who: int, counts: np.ndarray) -> None:
        """An answer to frame ``who`` of the open round, into its
        owner's slot of its kind (a universal answer fills both)."""
        kind, owner = divmod(who, self.comm.size)
        if self.universal:
            nk = self._asked[owner][0].shape[0]
            self._answers[owner] = (counts[:nk], counts[nk:])
        elif kind == KIND_KMER:
            self._answers[owner] = (counts, self._answers[owner][1])
        else:
            self._answers[owner] = (self._answers[owner][0], counts)

    # ------------------------------------------------------------------
    # server side (the "communication thread")
    # ------------------------------------------------------------------
    def pump(self, block: bool = False) -> bool:
        """Receive and dispatch one message (a request brings every
        queued request with it); True if one arrived.

        A blocking turn in universal mode receives directly and reads
        the kind from the payload.  Otherwise an ``iprobe`` comes first
        (the paper's ``MPI_Probe`` pattern): in base mode to learn the
        kind, and in the armed retry loop
        (:meth:`ReliableRequests.wait`, the one non-blocking caller),
        whose progress on the cooperative engine depends on a miss
        yielding the turn.
        """
        comm = self.comm
        if self.universal and block:
            msg = comm.recv(ANY_SOURCE, ANY_TAG)
        else:
            if not self.universal:
                comm.stats.bump("probe_calls")
            probed = comm.iprobe(ANY_SOURCE, ANY_TAG)
            if probed is not None:
                msg = comm.recv(probed.source, probed.tag)
            elif block:
                msg = comm.recv(ANY_SOURCE, ANY_TAG)
            else:
                return False
        self._dispatch(msg)
        return True

    @contextmanager
    def taking(self, tag: int) -> Iterator[list[Message]]:
        """Collect every frame tagged ``tag`` that the pump meets inside
        the block into the yielded list, in arrival order (a
        :attr:`handlers` entry for the block's length).

        A frame that may reach the rank before it starts to wait for it
        — a round's result at rank 0 while rank 0 still corrects — is
        taken from the moment the block opens, whichever pump meets it."""
        arrived: list[Message] = []
        self.handlers[tag] = arrived.append
        try:
            yield arrived
        finally:
            del self.handlers[tag]

    def serve_until(self, tag: int, count: int) -> list[Message]:
        """Serve from the blocking pump until ``count`` frames tagged
        ``tag`` have arrived; returns them in arrival order.

        This is how a rank with no reads of its own waits: as the
        paper's communication thread, it answers every request that
        reaches it meanwhile, and the awaited frames (a service command)
        ride the pump (:meth:`taking`)."""
        with self.taking(tag) as arrived:
            while len(arrived) < count:
                self.pump(block=True)
        return arrived

    def _dispatch(self, msg: Message) -> None:
        tag = msg.tag
        if tag in REQUEST_TAGS:
            serve_queued(self.comm, self.shards, msg)
        elif tag == Tags.COUNT_RESPONSE:
            payload = np.asarray(msg.payload, np.uint32)
            seq, who = payload[:2].tolist()
            if self.requests.settle(seq, who):
                self._land(who, payload[2:])
        elif tag == Tags.WORKER_DONE:
            self._done_seen += 1
        elif tag == Tags.SHUTDOWN:
            self._shutdown = True
        elif tag in self.handlers:
            self.handlers[tag](msg)
        else:
            raise CommunicatorError(f"unexpected tag {tag} in correction phase")

    # ------------------------------------------------------------------
    # session rounds
    # ------------------------------------------------------------------
    def reset_round(self) -> None:
        """Re-arm the protocol for another correction round.

        A :class:`~repro.parallel.session.CorrectionSession` keeps one
        protocol alive across repeated ``correct()`` calls; this
        re-opens lookups.  The termination count is not touched here:
        :meth:`finish` clears it when its handshake ends, because a
        peer's DONE for the next round may reach this rank's standing
        pump before the round's command does.  Sequence numbers are the
        communicator's, not this object's, so a delayed or duplicated
        frame from *any* earlier round — of this protocol or one a
        finalize replaced — carries a stale number and is discarded,
        never mistaken for an answer to the current round.
        """
        self._done_sent = False

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def finish(self, ranks: Sequence[int] | None = None) -> None:
        """Report completion and serve until the round's shutdown.

        Collective over ``ranks``, the round's correcting ranks (every
        rank by default): each must eventually call it.  The first of
        them collects DONE and sends SHUTDOWN; a one-rank round sends no
        frame at all.
        """
        if self._done_sent:
            return
        self._done_sent = True
        comm = self.comm
        if ranks is None:
            ranks = range(comm.size)
        root = ranks[0]
        # Doomed ranks never report DONE (they are dead) and must not be
        # sent SHUTDOWN (nobody drains a dead rank's mailbox).
        live = [r for r in ranks if r not in self._doomed]
        if comm.rank == root:
            self._done_seen += 1  # the root's own completion
        else:
            comm.send(root, None, tag=Tags.WORKER_DONE)
        while not self._shutdown:
            if comm.rank == root and self._done_seen == len(live):
                for dest in live:
                    if dest != root:
                        comm.send(dest, None, tag=Tags.SHUTDOWN)
                break
            self.pump(block=True)
        self._shutdown = False
        self._done_seen = 0
