"""Step IV with a genuine per-rank communication thread.

"Each rank at the beginning of this step forks two separate threads — one
thread is responsible for the error correction of the reads in its part of
the file, while the other thread acts as a communication thread.  The
communication thread of each rank probes any incoming messages ... looks
up the corresponding hash table ... and sends the appropriate response."

:class:`CommThreadProtocol` is that design taken literally: a daemon
thread per rank blocks on ``recv(ANY, ANY)``, serves k-mer/tile requests
from the owned tables, routes count responses to the worker thread through
a queue, and participates in the DONE/SHUTDOWN handshake.  It exposes the
same ``request_counts``/``finish`` surface as the pump-based
:class:`~repro.parallel.server.CorrectionProtocol`, so the distributed
spectrum view works unchanged on top of either — and it shares that
module's request and bulk-serve routines: the two endpoints differ only
in who waits for the responses and on which thread requests are served.

Only the free-running :class:`~repro.simmpi.engine.ThreadedEngine` can
host it — the cooperative engine's determinism depends on one thread per
rank — and the driver enforces that.
"""

from __future__ import annotations

import queue
import threading

import numpy as np

from repro.errors import CommunicatorError
from repro.hashing.counthash import CountHash
from repro.parallel.lookup.routing import ShardServer
from repro.parallel.reliable import IDLE_SLICE, WEDGE_TIMEOUT, ReliableRequests
from repro.parallel.server import (
    frame_request,
    is_request,
    join_answers,
    read_answer,
    request_by_owner,
    serve_queued,
)
from repro.simmpi.communicator import Communicator
from repro.simmpi.message import ANY_SOURCE, ANY_TAG, Message, Tags


class CommThreadProtocol:
    """Two-thread Step IV endpoint (see module docstring)."""

    def __init__(
        self,
        comm: Communicator,
        owned_kmers: CountHash,
        owned_tiles: CountHash,
        universal: bool = False,
        autostart: bool = True,
    ) -> None:
        self.comm = comm
        self.owned_kmers = owned_kmers
        self.owned_tiles = owned_tiles
        self.universal = universal
        #: The serving half (no wards are ever bound here: comm_thread
        #: mode rejects fault plans, so the shard stays single-probe).
        self.shards = ShardServer(comm.rank, comm.size, owned_kmers, owned_tiles)
        #: Extra tag -> handler(Message) hooks, mirroring
        #: :attr:`CorrectionProtocol.handlers`.  Handlers run ON THE
        #: COMMUNICATION THREAD, so they must be thread-safe with respect
        #: to the worker (the prefetch endpoint uses a condition variable).
        self.handlers: dict[int, "callable"] = {}
        #: Outstanding requests (never armed: comm_thread mode rejects
        #: fault plans); the prefetch endpoint's fetches share it.
        self.requests = ReliableRequests(comm)
        self._responses: "queue.Queue[Message]" = queue.Queue()
        self._received: dict[int, np.ndarray] = {}
        self._round = -1  # sequence number of the open round
        self._shutdown = threading.Event()
        self._failure: BaseException | None = None
        self._done_seen = 0  # rank 0's comm thread only
        self._done_sent = False
        self._thread = threading.Thread(
            target=self._serve_loop,
            name=f"comm-thread-{comm.rank}",
            daemon=True,
        )
        self._started = False
        if autostart:
            self.start()

    def start(self) -> None:
        """Fork the communication thread (idempotent).

        ``autostart=False`` + an explicit ``start()`` lets callers
        register extra :attr:`handlers` first — otherwise a fast peer's
        message under a not-yet-registered tag (e.g. a prefetch request)
        could reach the thread before the handler exists.
        """
        if not self._started:
            self._started = True
            self._thread.start()

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def request_counts(
        self,
        kmer_ids: np.ndarray,
        kmer_owners: np.ndarray,
        tile_ids: np.ndarray,
        tile_owners: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Global ``(k-mer counts, tile counts)`` for foreign ids in one
        round; blocks on the response queue while the communication
        thread keeps serving."""
        if self._done_sent and (np.size(kmer_ids) or np.size(tile_ids)):
            raise CommunicatorError("request_counts after finish()")
        self._round = self.requests.open()
        self._received = {}
        return request_by_owner(
            self.comm, kmer_ids, kmer_owners, tile_ids, tile_owners,
            self._send, self._collect,
        )

    def _send(self, owner: int, chunk: np.ndarray, n_kmer: int) -> None:
        size = self.comm.size
        for payload, tag, slot in frame_request(self.universal, chunk, n_kmer):
            self.requests.send(self._round, owner + slot * size, owner, payload, tag)

    def _collect(self, asked: set[int]) -> dict[int, np.ndarray]:
        """Block on the response queue until every owner answered."""
        self.requests.wait(self._round, self._take_response)
        return join_answers(self._received, asked, self.comm.size)

    def _take_response(self, block: bool) -> bool:
        """The worker's progress step: one response off the queue the
        communication thread fills (always blocking, an idle slice at
        most — this mode admits no fault plan, so no retry loop polls)."""
        self._check_failure()
        try:
            msg = self._responses.get(timeout=IDLE_SLICE)
        except queue.Empty:
            return False
        key, counts = read_answer(self.universal, msg, self.comm.size)
        if self.requests.settle(self._round, key):
            self._received[key] = counts
        return True

    def finish(self) -> None:
        """Announce completion; wait for the communication thread to see
        the global shutdown, then reap it."""
        if self._done_sent:
            return
        self._done_sent = True
        self.comm.send(0, None, tag=Tags.WORKER_DONE)
        self._thread.join(timeout=WEDGE_TIMEOUT)
        self._check_failure()
        if self._thread.is_alive():
            raise CommunicatorError(
                f"rank {self.comm.rank}'s communication thread did not shut down"
            )

    def _check_failure(self) -> None:
        if self._failure is not None:
            raise self._failure

    # ------------------------------------------------------------------
    # communication thread
    # ------------------------------------------------------------------
    def _serve_loop(self) -> None:
        try:
            while not self._shutdown.is_set():
                msg = self.comm.recv(ANY_SOURCE, ANY_TAG)
                self._dispatch(msg)
        except BaseException as exc:  # noqa: BLE001 - handed to the worker
            self._failure = exc
            self._shutdown.set()

    def _dispatch(self, msg: Message) -> None:
        tag = msg.tag
        if is_request(msg):
            serve_queued(self.comm, self.shards, msg)
        elif tag == Tags.COUNT_RESPONSE:
            self._responses.put(msg)
        elif tag == Tags.WORKER_DONE:
            if self.comm.rank != 0:
                raise CommunicatorError("WORKER_DONE delivered to a non-root rank")
            self._done_seen += 1
            if self._done_seen == self.comm.size:
                for dest in range(self.comm.size):
                    if dest != 0:
                        self.comm.send(dest, None, tag=Tags.SHUTDOWN)
                self._shutdown.set()
        elif tag == Tags.SHUTDOWN:
            self._shutdown.set()
        elif tag in self.handlers:
            self.handlers[tag](msg)
        else:
            raise CommunicatorError(
                f"unexpected tag {tag} on the communication thread"
            )
