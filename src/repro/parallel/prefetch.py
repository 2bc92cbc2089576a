"""The bulk-prefetch wire endpoint: coalesced lookups, one per owner.

The prefetch engine (:class:`~repro.parallel.lookup.planner.PrefetchExecutor`)
plans a chunk's lookups ahead of time and resolves them here: ids
deduplicated, coalesced into **one message per owning rank**, sent
without waiting while the protocol's pump services peers.  This module
is only the wire half — planning, caching and "which ids are foreign"
all live in :mod:`repro.parallel.lookup`; the
wait, its retries under a fault plan and the stale-answer rule are the
protocol's :class:`~repro.parallel.reliable.ReliableRequests`.

One ``PREFETCH_REQUEST`` per owner carries
``uint64 [req_id, n_kmer, kmer_ids..., tile_ids...]``; the owner answers
``uint32 [req_id, kmer_counts..., tile_counts...]``; ``req_id`` — the
fetch's sequence number in that layer — disambiguates in-flight
fetches.  Handlers ride the protocol's ``handlers`` hook and serve
through its :class:`~repro.parallel.lookup.routing.ShardServer`, so a
recovery partner answers for its bound wards with no extra logic here.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

import numpy as np
from numpy.typing import NDArray

from repro.errors import CommunicatorError
from repro.hashing.inthash import mix_to_rank
from repro.parallel.lookup.routing import (
    RouteTable,
    ShardServer,
    partition_by_dest,
)
from repro.parallel.reliable import ReliableRequests
from repro.simmpi.communicator import Communicator
from repro.simmpi.message import Message, Tags


class PrefetchCapable(Protocol):
    """What the endpoint needs from a correction protocol."""

    handlers: dict[int, Callable[[Message], None]]
    requests: ReliableRequests
    #: The active fault plan (or None): doomed owners' routes.
    faults: Any

    @property
    def shards(self) -> ShardServer: ...

    def pump(self, block: bool = False) -> bool: ...


class BulkFetch:
    """Handle for one in-flight bulk exchange (ids must be unique)."""

    def __init__(
        self, req_id: int, kmer_ids: NDArray[np.uint64], tile_ids: NDArray[np.uint64]
    ) -> None:
        self.req_id = req_id
        self.kmer_ids = kmer_ids
        self.tile_ids = tile_ids
        self.kmer_counts = np.zeros(kmer_ids.shape[0], dtype=np.uint32)
        self.tile_counts = np.zeros(tile_ids.shape[0], dtype=np.uint32)
        #: Destination -> (kmer, tile) positions into the result arrays,
        #: in the order that destination's ids were sent; popped as the
        #: answers land.
        self.slices: dict[int, tuple[NDArray[np.int64], NDArray[np.int64]]] = {}


class PrefetchEndpoint:
    """One rank's client+server endpoint for bulk prefetch messages.

    Registers handlers for the two prefetch tags on the given protocol,
    so peers are served wherever that protocol pumps its own traffic."""

    def __init__(self, protocol: PrefetchCapable, comm: Communicator) -> None:
        self.protocol = protocol
        self.comm = comm
        #: The protocol's reliable-request layer: fetches are rounds in
        #: the same windows as its blocking lookups, so the retry policy
        #: and the stale rule are the layer's, not this module's.
        self.requests = protocol.requests
        self._fetches: dict[int, BulkFetch] = {}
        #: Owner -> effective destination (doomed owners route to their
        #: recovery partner from the start of the phase).
        self.routes = RouteTable.compile(protocol.faults, comm.size)
        protocol.handlers[Tags.PREFETCH_REQUEST] = self._on_request
        protocol.handlers[Tags.PREFETCH_RESPONSE] = self._on_response

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def issue(
        self, kmer_ids: NDArray[np.uint64], tile_ids: NDArray[np.uint64]
    ) -> BulkFetch:
        """Send one coalesced request per owning rank; returns at once.

        ``kmer_ids``/``tile_ids`` must be deduplicated and foreign (the
        planner guarantees both); redeem the handle with :meth:`collect`."""
        kmer_ids = np.ascontiguousarray(kmer_ids, dtype=np.uint64)
        tile_ids = np.ascontiguousarray(tile_ids, dtype=np.uint64)
        stats = self.comm.stats
        req_id = self.requests.open()
        fetch = BulkFetch(req_id, kmer_ids, tile_ids)
        if kmer_ids.size or tile_ids.size:
            k_by = self._by_dest(kmer_ids)
            t_by = self._by_dest(tile_ids)
            for dest in sorted(set(k_by) | set(t_by)):
                kpos = k_by.get(dest, np.empty(0, dtype=np.int64))
                tpos = t_by.get(dest, np.empty(0, dtype=np.int64))
                fetch.slices[dest] = (kpos, tpos)
            self._fetches[req_id] = fetch
        if fetch.slices:
            stats.bump("prefetch_fetches")
            stats.bump("prefetch_kmer_ids_fetched", int(kmer_ids.size))
            stats.bump("prefetch_tile_ids_fetched", int(tile_ids.size))
            for dest, (kpos, tpos) in list(fetch.slices.items()):
                if dest == self.comm.rank:
                    # Fault mode only: this rank is a dead owner's
                    # partner, so the ward's ids resolve from the
                    # re-bound shard — no message at all.
                    kc, tc = self.protocol.shards.lookup(
                        kmer_ids[kpos], tile_ids[tpos], stats
                    )
                    fetch.kmer_counts[kpos] = kc
                    fetch.tile_counts[tpos] = tc
                    del fetch.slices[dest]
                    stats.bump("failover_requests_served")
                    continue
                header = np.array([req_id, kpos.size], dtype=np.uint64)
                payload = np.concatenate([header, kmer_ids[kpos], tile_ids[tpos]])
                self.requests.send(
                    req_id, dest, dest, payload, Tags.PREFETCH_REQUEST)
                stats.bump("prefetch_messages")
        return fetch

    def collect(self, fetch: BulkFetch) -> tuple[NDArray[np.uint32], NDArray[np.uint32]]:
        """Wait until every owner answered; returns (kmer, tile) counts
        aligned with the issued ids.  The wait pumps, serving incoming
        peer requests, which keeps the exchange deadlock-free; under a
        fault plan it resends the retained frames on a deadline, and a
        duplicate answer never reaches the slices (``settle``)."""
        self.requests.wait(fetch.req_id, self.protocol.pump)
        self._fetches.pop(fetch.req_id, None)
        return fetch.kmer_counts, fetch.tile_counts

    def drain(self) -> None:
        """Service any already-arrived peer traffic."""
        while self.protocol.pump(block=False):
            pass

    def _by_dest(self, ids: NDArray[np.uint64]) -> dict[int, NDArray[np.int64]]:
        """Positions of ``ids`` grouped by effective destination rank.

        Ownership comes from :func:`mix_to_rank`; the
        :class:`RouteTable` redirects doomed owners to their recovery
        partner, so one payload may mix the partner's own ids with its
        dead ward's — the serving shard recomputes per-id ownership.
        When the partner is *this* rank, :meth:`issue` resolves the
        self entry locally."""
        if ids.size == 0:
            return {}
        owners = np.asarray(mix_to_rank(ids, self.comm.size), dtype=np.int64)
        dests = self.routes.map_owners(owners)
        order, bounds = partition_by_dest(dests, self.comm.size)
        out: dict[int, NDArray[np.int64]] = {}
        for dest in range(self.comm.size):
            lo, hi = int(bounds[dest]), int(bounds[dest + 1])
            if lo == hi:
                continue
            if dest == self.comm.rank and not self.requests.armed:
                raise CommunicatorError("prefetch given locally-owned ids")
            out[dest] = order[lo:hi]
        return out

    # ------------------------------------------------------------------
    # server side (runs inside the peer-serving loop)
    # ------------------------------------------------------------------
    def _on_request(self, msg: Message) -> None:
        payload = np.asarray(msg.payload, dtype=np.uint64)
        req_id, n_kmer = int(payload[0]), int(payload[1])
        ids = payload[2:]
        # A payload may mix our own ids with a bound ward's; the shard
        # recomputes ownership per id when it holds replicas.
        stats = self.comm.stats
        kcounts, tcounts = self.protocol.shards.lookup(
            ids[:n_kmer], ids[n_kmer:], stats
        )
        response = np.concatenate(
            [np.array([req_id], dtype=np.uint32), kcounts, tcounts])
        # Responses are fire-and-forget: the requester's collect() is
        # the only party that cares, and eager buffering completes the
        # send at the call.
        self.comm.isend(  # noqa: MPI010
            msg.source, response, tag=Tags.PREFETCH_RESPONSE)
        stats.bump("prefetch_requests_served")
        stats.bump("prefetch_kmer_ids_served", n_kmer)
        stats.bump("prefetch_tile_ids_served", int(ids.size) - n_kmer)

    def _on_response(self, msg: Message) -> None:
        payload = np.asarray(msg.payload, dtype=np.uint32)
        req_id = int(payload[0])
        if not self.requests.settle(req_id, msg.source):
            return
        fetch = self._fetches[req_id]
        kpos, tpos = fetch.slices.pop(msg.source)
        counts = payload[1:]
        fetch.kmer_counts[kpos] = counts[: kpos.size]
        fetch.tile_counts[tpos] = counts[kpos.size :]
