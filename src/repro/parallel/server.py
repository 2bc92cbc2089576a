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
its peer's request sitting in some mailbox).  Under the free-threaded
engine the pump can also be run on a genuine second thread
(:class:`repro.parallel.driver.ParallelReptile` with ``comm_thread=True``
on the threaded engine), matching the paper's structure literally.

Termination follows the paper: each rank reports DONE to rank 0 when its
own reads are finished and keeps serving; rank 0 broadcasts SHUTDOWN once
every rank has reported, and only then do ranks stop their pumps.

In **universal** mode a request carries its kind (k-mer vs tile) inside
the payload under a single tag, so the receiver never probes for the tag
("makes the call to MPI_Probe unwarranted"); in the base mode the receiver
probes first, then receives by the probed tag.

Serving is **bulk**: a turn that receives a request also takes every
request already delivered (:meth:`Communicator.take_ready`, which never
blocks and never yields), probes the table once per kind for all of
them, and answers each requester with its own frame
(:func:`serve_queued`).  The request half — partition by owner, send,
reassemble — is :func:`request_by_owner`; the pump endpoint here and
the two-thread endpoint in :mod:`repro.parallel.commthread` share both,
and both wait through :mod:`repro.parallel.reliable` (outstanding
requests, sequence numbers, the retry policy under a fault plan).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from repro.errors import CommunicatorError
from repro.hashing.counthash import CountHash
from repro.parallel.lookup.routing import (
    KIND_KMER,
    KIND_TILE,
    RouteTable,
    ShardServer,
    partition_by_dest,
)
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
    universal: bool, kind: int, ids: np.ndarray
) -> tuple[np.ndarray, int]:
    """(payload, tag) of one fault-free count request, in the mode's framing."""
    if universal:
        payload = np.concatenate([np.array([kind], dtype=np.uint64), ids])
        return payload, Tags.UNIVERSAL_REQUEST
    return ids, Tags.KMER_REQUEST if kind == KIND_KMER else Tags.TILE_REQUEST


def request_by_owner(
    comm: Communicator,
    ids: np.ndarray,
    owners: np.ndarray,
    send: Callable[[int, np.ndarray], None],
    collect: Callable[[set[int]], dict[int, np.ndarray]],
) -> np.ndarray:
    """The client half of a lookup round: counts aligned with ``ids``.

    ``send(owner, chunk)`` ships one owner's ids; ``collect(asked)``
    waits however the endpoint waits and returns owner -> counts for
    every owner asked.  Owners answer in the order their ids were sent,
    so reassembly is a concatenation in owner order, then the inverse
    of the partitioning sort.
    """
    ids = np.ascontiguousarray(ids, dtype=np.uint64)
    if ids.size == 0:
        return np.empty(0, dtype=np.uint32)
    # Every synchronous round trip is accounted: the prefetch engine's
    # zero-mid-correction-messaging guarantee is asserted on this.
    comm.stats.bump("blocking_request_counts")
    order, bounds = partition_by_dest(owners, comm.size)
    sorted_ids = ids[order]
    bounds = bounds.tolist()
    asked = [d for d in range(comm.size) if bounds[d] != bounds[d + 1]]
    if comm.rank in asked:
        raise CommunicatorError("request_counts given locally-owned ids")
    for owner in asked:
        send(owner, sorted_ids[bounds[owner]:bounds[owner + 1]])
    responses = collect(set(asked))
    assembled = np.empty(ids.shape[0], dtype=np.uint32)
    at = 0
    for owner in asked:
        resp = responses[owner]
        assembled[at : at + resp.shape[0]] = resp
        at += resp.shape[0]
    if at != ids.shape[0]:
        raise CommunicatorError(
            f"response length mismatch: got {at}, wanted {ids.shape[0]}"
        )
    out = np.empty_like(assembled)
    out[order] = assembled
    return out


def _parse_request(msg: Message) -> tuple[int, int, np.ndarray, np.ndarray | None]:
    """(source, kind, ids, response header) of one request frame.

    A resilient request's (seq, owner) header is echoed in the response
    so the client can discard answers from superseded retry rounds."""
    payload = np.asarray(msg.payload, dtype=np.uint64)
    tag = msg.tag
    if tag == Tags.KMER_REQUEST:
        return msg.source, KIND_KMER, payload, None
    if tag == Tags.TILE_REQUEST:
        return msg.source, KIND_TILE, payload, None
    if tag == Tags.UNIVERSAL_REQUEST:
        kind, ids, header = int(payload[0]), payload[1:], None
    elif tag == Tags.RESILIENT_REQUEST:
        kind, ids, header = int(payload[2]), payload[3:], payload[:2].astype(np.uint32)
    else:
        raise CommunicatorError(f"tag {tag} is not a count request")
    return msg.source, (KIND_KMER if kind == KIND_KMER else KIND_TILE), ids, header


def serve_queued(comm: Communicator, shards: ShardServer, first: Message) -> None:
    """Answer ``first`` and every count request already delivered.

    One table probe per kind for the whole batch, then one response
    frame per request, in the order the requests were taken.  A count
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
    counts: dict[int, np.ndarray] = {}
    for kind, counter in ((KIND_KMER, "kmer_ids_served"), (KIND_TILE, "tile_ids_served")):
        asked = [ids for _, k, ids, _ in requests if k == kind]
        if asked:
            counts[kind] = shards.lookup(
                kind, asked[0] if len(asked) == 1 else np.concatenate(asked)
            )
            stats.bump("serve_probes")
            stats.bump(counter, int(counts[kind].shape[0]))
    at = {KIND_KMER: 0, KIND_TILE: 0}
    for source, kind, ids, header in requests:
        mine = counts[kind][at[kind] : at[kind] + ids.shape[0]]
        at[kind] += ids.shape[0]
        if header is None:
            comm.send(source, mine, tag=Tags.COUNT_RESPONSE)
            continue
        comm.send(source, np.concatenate([header, mine]), tag=Tags.RESILIENT_RESPONSE)
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
        owned_kmers: CountHash,
        owned_tiles: CountHash,
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
        #: replicas recovery binds on (see correct_distributed).
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
        self, kind: int, ids: np.ndarray, owners: np.ndarray
    ) -> np.ndarray:
        """Global counts for ids owned by other ranks.

        ``owners[i]`` must be the owning rank of ``ids[i]`` (none equal to
        this rank).  One request message goes to each distinct owner; the
        caller's "communication thread" (the pump) serves incoming
        requests while the responses are in flight.

        Under a fault plan that needs it, the round is resilient: each
        request goes to the owner's *effective* destination (the
        recovery partner when the owner is doomed) and carries the
        round's sequence number (so retransmits and stale responses are
        unambiguous) and the owner id (so the partner knows which shard
        to answer from); the wait then retries on a deadline.
        """
        if self._done_sent and np.size(ids):
            raise CommunicatorError("request_counts after finish()")
        self._responses = {}
        self._round = self.requests.open()
        return request_by_owner(
            self.comm, ids, owners, partial(self._send, kind), self._collect
        )

    def _send(self, kind: int, owner: int, chunk: np.ndarray) -> None:
        dest = self.routes.dest_for(owner)
        if dest == self.comm.rank:
            # This rank is the dead owner's partner: answer from the
            # shard it re-bound, no message needed.
            self._responses[owner] = self.shards.lookup(kind, chunk)
            return
        if self.requests.armed:
            header = np.array([self._round, owner, kind], dtype=np.uint64)
            payload, tag = np.concatenate([header, chunk]), Tags.RESILIENT_REQUEST
        else:
            payload, tag = frame_request(self.universal, kind, chunk)
        self.requests.send(self._round, owner, dest, payload, tag)

    def _collect(self, asked: set[int]) -> dict[int, np.ndarray]:
        """Pump — serving whatever arrives — until every owner answered."""
        self.requests.wait(self._round, self.pump)
        return self._responses

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
            if self.requests.settle(self._round, msg.source):
                self._responses[msg.source] = np.asarray(msg.payload, np.uint32)
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
