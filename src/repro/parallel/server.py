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

Termination follows the paper: each rank reports DONE to rank 0 when its
own reads are finished and keeps serving; rank 0 broadcasts SHUTDOWN once
every rank has reported, and only then do ranks stop their pumps.

A lookup round asks each owner for k-mer and tile counts together.  In
**universal** mode that is one frame per owner, ``uint64 [n_kmer,
kmer_ids..., tile_ids...]`` under a single tag, so the receiver never
probes for the tag ("makes the call to MPI_Probe unwarranted"); in the
base mode the kind travels as the tag — one frame per kind per owner —
and the receiver probes first, then receives by the probed tag.  An
owner answers each frame with the counts of its ids, in order; a
base-mode answer leads with the kind it answers.

Serving is **bulk**: a turn that receives a request also takes every
request already delivered (:meth:`Communicator.take_ready`, which never
blocks and never yields), probes the shard once per kind for all of
them, and answers each requester with its own frame
(:func:`serve_queued`).  The request half ships what the round left
for each owner as the round ordered it
(:meth:`CorrectionProtocol.request_chunks`): the one ordering of a
round's ids — by (kind, owner, id), which buckets them, drops repeats
and hands the rank's own segment to its shard — is the lookup stack's
(:class:`~repro.parallel.lookup.stack.LookupRound`), not sorted again
here.  The endpoint waits through :mod:`repro.parallel.reliable`
(outstanding requests, sequence numbers, the retry policy under a
fault plan).
"""

from __future__ import annotations

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
from repro.parallel.lookup.stack import LookupRound
from repro.parallel.reliable import ReliableRequests
from repro.simmpi.communicator import Communicator
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Message, Tags


#: A request's tag -> the tags a serve turn drains along with it (what
#: the same clients may have queued beside it).
_SERVED_WITH = {
    Tags.UNIVERSAL_REQUEST: (Tags.UNIVERSAL_REQUEST,),
    Tags.KMER_REQUEST: (Tags.KMER_REQUEST, Tags.TILE_REQUEST),
    Tags.TILE_REQUEST: (Tags.KMER_REQUEST, Tags.TILE_REQUEST),
    Tags.RESILIENT_REQUEST: (Tags.RESILIENT_REQUEST,),
}


def is_request(msg: Message) -> bool:
    """Is this a Step IV count request (to be answered by :func:`serve_queued`)?"""
    return msg.tag in _SERVED_WITH


def frame_request(
    universal: bool, chunk: np.ndarray, n_kmer: int
) -> list[tuple[np.ndarray, int, int]]:
    """The fault-free frames of one owner's share of a round.

    ``chunk`` is ``[kmer ids | tile ids]`` with ``n_kmer`` k-mer ids.
    Returns ``(payload, tag, slot)`` per frame; the frame's request is
    named ``owner + slot * size`` (see :func:`read_answer`): slot 0 for
    the universal frame or a base-mode k-mer frame, 1 for a base-mode
    tile frame.
    """
    if universal:
        header = np.array([n_kmer], dtype=np.uint64)
        return [(np.concatenate([header, chunk]), Tags.UNIVERSAL_REQUEST, 0)]
    frames = []
    if n_kmer:
        frames.append((chunk[:n_kmer], Tags.KMER_REQUEST, KIND_KMER))
    if n_kmer < chunk.shape[0]:
        frames.append((chunk[n_kmer:], Tags.TILE_REQUEST, KIND_TILE))
    return frames


def read_answer(universal: bool, msg: Message, size: int) -> tuple[int, np.ndarray]:
    """(request name, counts) of one ``COUNT_RESPONSE``.

    A base-mode answer leads with the kind it answers: an owner may take
    one client's tile frame before its k-mer frame (a serve turn sweeps
    the queued requests kind by kind, while more arrive), so arrival
    order cannot tell them apart."""
    counts = np.asarray(msg.payload, np.uint32)
    if universal:
        return msg.source, counts
    return msg.source + int(counts[0]) * size, counts[1:]


def join_answers(
    answers: dict[int, np.ndarray], asked: set[int], size: int
) -> dict[int, np.ndarray]:
    """Owner -> counts aligned with the chunk it was sent, from answers
    keyed by request name (a base-mode owner answers two frames)."""
    joined = {}
    for owner in asked:
        parts = [answers[key] for key in (owner, owner + size) if key in answers]
        joined[owner] = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return joined


_KMER_HEADER = np.array([KIND_KMER], dtype=np.uint32)
_TILE_HEADER = np.array([KIND_TILE], dtype=np.uint32)
_NO_HEADER = np.empty(0, dtype=np.uint32)


def _parse_request(
    msg: Message,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k-mer ids, tile ids, response header) of one request.

    A base-mode answer leads with its kind (see :func:`read_answer`); a
    resilient request's (seq, owner) header is echoed in the response
    so the client can discard answers from superseded retry rounds."""
    payload = np.asarray(msg.payload, dtype=np.uint64)
    tag = msg.tag
    if tag == Tags.KMER_REQUEST:
        return payload, payload[:0], _KMER_HEADER
    if tag == Tags.TILE_REQUEST:
        return payload[:0], payload, _TILE_HEADER
    if tag == Tags.UNIVERSAL_REQUEST:
        header, ids = _NO_HEADER, payload[1:]
        n_kmer = int(payload[0])
    elif tag == Tags.RESILIENT_REQUEST:
        header, ids = payload[:2].astype(np.uint32), payload[3:]
        n_kmer = int(payload[2])
    else:
        raise CommunicatorError(f"tag {tag} is not a count request")
    return ids[:n_kmer], ids[n_kmer:], header


def serve_queued(comm: Communicator, shards: ShardServer, first: Message) -> None:
    """Answer ``first`` and every count request already delivered.

    One shard probe (a table probe per kind) for the whole batch, then
    one response frame per request, in the order the requests were
    taken: the counts of its k-mer ids, then of its tile ids.  A count
    of 0 means the key does not exist anywhere — "If a k-mer or tile
    does not exist at its owning rank, it can be inferred that the k-mer
    or tile does not exist at all" (the paper's -1 response).
    """
    batch = [first]
    for tag in _SERVED_WITH[first.tag]:
        while (msg := comm.take_ready(ANY_SOURCE, tag)) is not None:
            batch.append(msg)
    requests = [_parse_request(msg) for msg in batch]
    stats = comm.stats
    kmer_counts, tile_counts = shards.lookup(
        np.concatenate([kmers for kmers, _, _ in requests]),
        np.concatenate([tiles for _, tiles, _ in requests]),
        stats,
    )
    stats.bump("serve_probes")
    stats.bump("kmer_ids_served", int(kmer_counts.shape[0]))
    stats.bump("tile_ids_served", int(tile_counts.shape[0]))
    k_at = t_at = 0
    for msg, (kmers, tiles, header) in zip(batch, requests):
        answer = np.concatenate([
            header,
            kmer_counts[k_at : k_at + kmers.shape[0]],
            tile_counts[t_at : t_at + tiles.shape[0]],
        ])
        k_at += kmers.shape[0]
        t_at += tiles.shape[0]
        if msg.tag != Tags.RESILIENT_REQUEST:
            comm.send(msg.source, answer, tag=Tags.COUNT_RESPONSE)
            continue
        comm.send(msg.source, answer, tag=Tags.RESILIENT_RESPONSE)
        if int(header[1]) != comm.rank:
            stats.bump("failover_requests_served")
    stats.bump("requests_served", len(batch))


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
        self.owned_kmers = owned_kmers
        self.owned_tiles = owned_tiles
        self.universal = universal
        #: The active :class:`~repro.faults.FaultPlan` (or None): with
        #: frame faults or crashes scripted, lookups switch to the
        #: sequence-numbered RESILIENT_* tags with timeout + retry.
        self.faults = faults
        #: The serving half: this rank's owned tables plus any ward
        #: replicas recovery binds on (see CorrectionSession.correct).
        self.shards = ShardServer(comm.rank, comm.size, owned_kmers, owned_tiles)
        #: Owner -> effective destination under the fault plan.
        self.routes = RouteTable.compile(faults, comm.size)
        #: Extra tag -> handler(Message) hooks; lets higher layers (e.g.
        #: the dynamic work-allocation ablation) ride the same pump.
        self.handlers: dict[int, "callable"] = {}
        #: Outstanding requests and the retry policy
        #: (:mod:`repro.parallel.reliable`); shared with the prefetch
        #: endpoint that rides this protocol's pump.
        self.requests = ReliableRequests(comm, faults)
        self._responses: dict[int, np.ndarray] = {}
        self._round = -1         # sequence number of the open round
        self._done_seen = 0      # rank 0 only
        self._shutdown = False
        self._done_sent = False
        self._doomed = faults.doomed_ranks() if faults is not None else frozenset()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def request_counts(
        self,
        kmer_ids: np.ndarray,
        kmer_owners: np.ndarray,
        tile_ids: np.ndarray,
        tile_owners: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Global ``(k-mer counts, tile counts)`` for ids owned by other
        ranks, in one round.

        ``*_owners[i]`` must be the owning rank of ``*_ids[i]`` (none
        equal to this rank).  The ids are ordered once, as a
        :class:`~repro.parallel.lookup.stack.LookupRound` with no local
        tier, and each distinct owner gets one request (one per kind in
        the base mode, :meth:`request_chunks`); the caller's
        "communication thread" (the pump) serves incoming requests while
        the responses are in flight.

        Under a fault plan that needs it, the round is resilient: each
        request goes to the owner's *effective* destination (the
        recovery partner when the owner is doomed) and carries the
        round's sequence number (so retransmits and stale responses are
        unambiguous) and the owner id (so the partner knows which shard
        to answer from); the wait then retries on a deadline.
        """
        kmer_ids = np.ascontiguousarray(kmer_ids, dtype=np.uint64)
        tile_ids = np.ascontiguousarray(tile_ids, dtype=np.uint64)
        rnd = LookupRound(
            kmer_ids, tile_ids, self.comm.size,
            np.concatenate([kmer_owners, tile_owners]),
        )
        kmer_pos, tile_pos = rnd.positions(KIND_KMER), rnd.positions(KIND_TILE)
        if kmer_pos.size or tile_pos.size:
            rnd.ask(kmer_pos, tile_pos, self, self.comm.rank, self.comm.stats)
        return rnd.answers()

    def request_chunks(
        self, chunks: dict[int, tuple[np.ndarray, int]]
    ) -> dict[int, np.ndarray]:
        """Ship each owner its chunk of a round as ordered — owner ->
        ``(ids, n_kmer)``, k-mer ids first — and pump until all have
        answered; returns owner -> counts in chunk order."""
        if self._done_sent:
            raise CommunicatorError("a lookup round after finish()")
        self._responses = {}
        self._round = self.requests.open()
        for owner, (chunk, n_kmer) in chunks.items():
            self._send(owner, chunk, n_kmer)
        return self._collect(set(chunks))

    def _send(self, owner: int, chunk: np.ndarray, n_kmer: int) -> None:
        dest = self.routes.dest_for(owner)
        if dest == self.comm.rank:
            # This rank is the dead owner's partner: answer from the
            # shard it re-bound, no message needed.
            self._responses[owner] = np.concatenate(self.shards.lookup(
                chunk[:n_kmer], chunk[n_kmer:], self.comm.stats
            ))
            return
        if self.requests.armed:
            header = np.array([self._round, owner, n_kmer], dtype=np.uint64)
            self.requests.send(
                self._round, owner, dest, np.concatenate([header, chunk]),
                Tags.RESILIENT_REQUEST,
            )
            return
        size = self.comm.size
        for payload, tag, slot in frame_request(self.universal, chunk, n_kmer):
            self.requests.send(self._round, owner + slot * size, dest, payload, tag)

    def _collect(self, asked: set[int]) -> dict[int, np.ndarray]:
        """Pump — serving whatever arrives — until every owner answered."""
        self.requests.wait(self._round, self.pump)
        return join_answers(self._responses, asked, self.comm.size)

    # ------------------------------------------------------------------
    # server side (the "communication thread")
    # ------------------------------------------------------------------
    def pump(self, block: bool = False) -> bool:
        """Receive and dispatch one message (a request brings every
        queued request with it); True if one arrived.

        In base mode an ``iprobe`` precedes the receive (the paper's
        ``MPI_Probe`` pattern); in universal mode the message is received
        directly and its kind read from the payload — a non-blocking
        turn takes what was already delivered and, on a miss, returns
        without handing the CPU away.  Only the armed retry loop
        (:meth:`ReliableRequests.wait`) still probes there: on the
        cooperative engine its progress depends on a miss yielding the
        turn.
        """
        comm = self.comm
        if self.universal and block:
            msg = comm.recv(ANY_SOURCE, ANY_TAG)
        elif self.universal and not self.requests.armed:
            msg = comm.take_ready(ANY_SOURCE, ANY_TAG)
            if msg is None:
                return False
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

    def _dispatch(self, msg: Message) -> None:
        tag = msg.tag
        if is_request(msg):
            serve_queued(self.comm, self.shards, msg)
        elif tag == Tags.COUNT_RESPONSE:
            key, counts = read_answer(self.universal, msg, self.comm.size)
            if self.requests.settle(self._round, key):
                self._responses[key] = counts
        elif tag == Tags.RESILIENT_RESPONSE:
            payload = np.asarray(msg.payload, np.uint32)
            seq, owner = int(payload[0]), int(payload[1])
            if self.requests.settle(seq, owner):
                self._responses[owner] = payload[2:]
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
        protocol alive across repeated ``correct()`` calls; after each
        round's DONE/SHUTDOWN handshake this clears the round-local
        termination and response state so the next round starts clean.
        Sequence numbers are the communicator's, not this object's, so
        a delayed or duplicated frame from *any* earlier round — of this
        protocol or one a finalize replaced — carries a stale number and
        is discarded, never mistaken for an answer to the current round.
        """
        self._done_sent = False
        self._shutdown = False
        self._done_seen = 0
        self._responses = {}
        self._round = -1

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Report completion and serve until the global shutdown.

        Collective in effect: every rank must eventually call it.
        """
        if self._done_sent:
            return
        self._done_sent = True
        # Doomed ranks never report DONE (they are dead) and must not be
        # sent SHUTDOWN (nobody drains a dead rank's mailbox).
        expected = self.comm.size - len(self._doomed)
        if self.comm.rank == 0:
            self._done_seen += 1  # rank 0's own completion
        else:
            self.comm.send(0, None, tag=Tags.WORKER_DONE)
        while not self._shutdown:
            if self.comm.rank == 0 and self._done_seen == expected:
                for dest in range(1, self.comm.size):
                    if dest not in self._doomed:
                        self.comm.send(dest, None, tag=Tags.SHUTDOWN)
                self._shutdown = True
                break
            self.pump(block=True)
