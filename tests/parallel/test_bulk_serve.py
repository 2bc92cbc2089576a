"""Bulk serving: N queued requests answered in one turn are answered
exactly as they would have been one by one."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CommunicatorError
from repro.hashing.counthash import CountHash
from repro.hashing.inthash import mix_to_rank
from repro.parallel.lookup.routing import KIND_KMER, KIND_TILE, ShardServer
from repro.parallel.server import (
    CorrectionProtocol,
    serve_queued,
)
from repro.simmpi import ANY_SOURCE, run_spmd
from repro.simmpi.instrument import CommStats
from repro.simmpi.message import Message, Tags

SIZE = 4
SERVER = 0
WARD = 1  # the dead rank whose replica the server holds

_UNIVERSE = np.arange(400, dtype=np.uint64)
_OWNERS = np.asarray(mix_to_rank(_UNIVERSE, SIZE), dtype=np.int64)
#: Ids a request may name per owner the server answers for once the
#: ward is bound; the upper half of the universe is in no table.
POOLS = {
    owner: [int(k) for k in _UNIVERSE[_OWNERS == owner]]
    for owner in (SERVER, WARD)
}
_PRESENT = 200


def _tables(owner, offset):
    keys = _UNIVERSE[(_OWNERS == owner) & (_UNIVERSE < _PRESENT)]
    kmers, tiles = CountHash(), CountHash()
    kmers.add_counts(keys, keys + np.uint64(offset))
    tiles.add_counts(keys, keys + np.uint64(offset + 1))
    return kmers, tiles


def _shards(ward_bound):
    shards = ShardServer(SERVER, *_tables(SERVER, 1))
    if ward_bound:
        shards.bind_ward(WARD, *_tables(WARD, 11))
    return shards


def _oracle(kind, ids):
    """What the tables above hold, worked out without them."""
    out = []
    for key in ids:
        offset = 1 if _OWNERS[key] == SERVER else 11
        out.append(key + offset + (kind == KIND_TILE) if key < _PRESENT else 0)
    return out


class Mailbox:
    """A communicator reduced to what a serve turn touches."""

    def __init__(self, queued=()):
        self.rank, self.size = SERVER, SIZE
        self.stats = CommStats()
        self.queued = list(queued)
        self.sent = []

    def take_queued(self, source=ANY_SOURCE, tags=()):
        taken = [
            msg for tag in tags for msg in self.queued if msg.matches(source, tag)
        ]
        ids = {id(msg) for msg in taken}
        self.queued = [msg for msg in self.queued if id(msg) not in ids]
        return taken

    def send(self, dest, payload, tag=0):
        self.sent.append((dest, tag, str(payload.dtype), payload.tolist()))

    def sent_to(self, dest):
        return [frame[1:] for frame in self.sent if frame[0] == dest]


def _who(mode, kind, owner):
    """The frame's name in its round: the owner, plus ``kind * size``
    for a base-mode frame."""
    return owner + kind * SIZE if mode == "base" else owner


def _frame(mode, seq, source, kind, owner, ids):
    """One request for ``ids`` of one kind, owned by ``owner`` (a pair
    request whose other side is empty, in universal mode)."""
    ids = np.array(ids, dtype=np.uint64)
    header = [seq, _who(mode, kind, owner)]
    if mode == "universal":
        n_kmer = ids.size if kind == KIND_KMER else 0
        return Message(source, Tags.UNIVERSAL_REQUEST,
                       np.concatenate([np.array([*header, n_kmer], np.uint64), ids]))
    tag = Tags.KMER_REQUEST if kind == KIND_KMER else Tags.TILE_REQUEST
    return Message(source, tag, np.concatenate([np.array(header, np.uint64), ids]))


def _owned_ids(owner):
    """The owner a frame names in its header, and ids it owns."""
    return st.tuples(
        st.just(owner), st.lists(st.sampled_from(POOLS[owner]), max_size=8)
    )


_REQUEST = st.tuples(
    st.integers(1, SIZE - 1),                       # requester
    st.sampled_from([KIND_KMER, KIND_TILE]),
    st.sampled_from([SERVER, WARD]).flatmap(_owned_ids),  # owner, ids
).map(lambda r: (r[0], r[1], *r[2]))
_COUNTERS = ("requests_served", "kmer_ids_served", "tile_ids_served",
             "failover_requests_served")
_MINE, _WARDS = POOLS[SERVER], POOLS[WARD]


@given(st.sampled_from(["universal", "base"]),
       st.lists(_REQUEST, min_size=1, max_size=7))
@example("universal", [(1, KIND_KMER, SERVER, []), (1, KIND_KMER, SERVER, [])])
@example("base", [(2, KIND_TILE, SERVER, [_MINE[0]] * 3),
                  (2, KIND_KMER, SERVER, [_MINE[0]]),
                  (2, KIND_TILE, SERVER, [_MINE[1], _MINE[0]])])
@example("universal", [(3, KIND_KMER, WARD, _WARDS[:4]), (1, KIND_TILE, SERVER, []),
                       (3, KIND_KMER, WARD, _WARDS[:4])])
@example("base", [(3, KIND_TILE, WARD, _WARDS[-3:]), (1, KIND_TILE, SERVER, _MINE[:2]),
                  (2, KIND_KMER, WARD, _WARDS[:1])])
@settings(max_examples=150, deadline=None)
def test_bulk_equals_one_by_one(mode, requests):
    frames = [
        _frame(mode, seq, *request)
        for seq, request in enumerate(requests)
    ]
    shards = _shards(ward_bound=True)
    bulk = Mailbox(frames[1:])
    serve_queued(bulk, shards, frames[0])
    assert bulk.queued == []

    # The reference: the same requests, each served by a turn of its
    # own, in the order the bulk turn takes them (the one it received,
    # then what is queued, tag by tag — which in universal mode is
    # simply arrival order).
    taken = [frames[0]] + sorted(frames[1:], key=lambda m: m.tag)
    single = Mailbox()
    for frame in taken:
        serve_queued(single, shards, frame)

    for requester in range(1, SIZE):
        assert bulk.sent_to(requester) == single.sent_to(requester)
    for name in _COUNTERS:
        assert bulk.stats.get(name) == single.stats.get(name), name
    assert bulk.stats.get("requests_served") == len(requests)
    assert bulk.stats.get("failover_requests_served") == sum(
        owner == WARD for _, _, owner, _ in requests
    )
    # One shard probe a turn, one table probe per (owner, kind) asked.
    tables = {(owner, kind) for _, kind, owner, ids in requests if ids}
    assert bulk.stats.get("serve_probes") == 1
    assert bulk.stats.get("table_probe_calls") == len(tables)
    assert single.stats.get("serve_probes") == len(requests)

    # And one by one is right: each response echoes its request's
    # (seq, who) header, then carries its counts, in both modes.
    for frame, (dest, tag, dtype, payload) in zip(taken, single.sent):
        seq = next(n for n, f in enumerate(frames) if f is frame)
        requester, kind, owner, ids = requests[seq]
        assert dest == requester and dtype == "uint32"
        assert tag == Tags.COUNT_RESPONSE
        assert payload[:2] == [seq, _who(mode, kind, owner)]
        assert payload[2:] == _oracle(kind, ids)


@pytest.mark.parametrize("mode", ["universal", "base"])
def test_a_frame_for_an_owner_not_held_is_refused(mode):
    """A request names its owner; a server that neither is that owner
    nor holds its replica refuses it rather than answer from the wrong
    table."""
    stranger = 2
    frame = _frame(mode, 0, 1, KIND_KMER, stranger, [5])
    for ward_bound in (False, True):
        with pytest.raises(CommunicatorError, match="no replica"):
            serve_queued(Mailbox(), _shards(ward_bound), frame)
    # Without the ward bound, the ward is a stranger too.
    with pytest.raises(CommunicatorError, match="no replica"):
        serve_queued(Mailbox(), _shards(False), _frame(mode, 0, 1, KIND_TILE, WARD, []))


def test_bulk_without_wards_probes_the_owned_table_once():
    """No replica bound: the whole batch is one probe of the rank's own
    table per kind, whatever the ids."""
    shards = _shards(ward_bound=False)
    frames = [
        _frame("universal", 0, 1, KIND_KMER, SERVER, _MINE[:5]),
        _frame("universal", 1, 2, KIND_KMER, SERVER, _MINE[3:9]),
        _frame("universal", 2, 3, KIND_KMER, SERVER, []),
    ]
    comm = Mailbox(frames[1:])
    serve_queued(comm, shards, frames[0])
    assert comm.stats.get("serve_probes") == 1
    assert comm.stats.get("table_probe_calls") == 1
    assert comm.stats.get("table_probe_ids") == 11
    assert comm.stats.get("requests_served") == 3
    assert comm.stats.get("kmer_ids_served") == 11
    assert comm.stats.get("failover_requests_served") == 0
    assert comm.sent_to(2) == [
        (Tags.COUNT_RESPONSE, "uint32", [1, SERVER, *_oracle(KIND_KMER, _MINE[3:9])])
    ]
    assert comm.sent_to(3) == [(Tags.COUNT_RESPONSE, "uint32", [2, SERVER])]


def test_serving_leaves_other_traffic_queued_in_order():
    done = Message(2, Tags.WORKER_DONE, None)
    response = Message(3, Tags.COUNT_RESPONSE, np.zeros(1, np.uint32))
    request = _frame("universal", 0, 1, KIND_TILE, SERVER, _MINE[:2])
    comm = Mailbox([done, request, response])
    serve_queued(comm, _shards(False), _frame("universal", 1, 2, KIND_KMER, SERVER, []))
    assert comm.queued == [done, response]
    assert comm.stats.get("requests_served") == 2


@pytest.mark.parametrize("universal", [True, False], ids=["universal", "probe"])
def test_one_pump_turn_answers_every_queued_request(universal):
    """Through a real engine: three clients' requests are waiting when
    the server takes its turn; that one turn answers all three (at the
    parent commit it answered one)."""
    keys = np.arange(60, dtype=np.uint64)
    owners = np.asarray(mix_to_rank(keys, SIZE), dtype=np.int64)
    wanted = keys[owners == SERVER]

    def prog(comm):
        table = CountHash()
        table.add_counts(keys[owners == comm.rank], 5)
        protocol = CorrectionProtocol(comm, table, table, universal=universal)
        served = None
        if comm.rank == SERVER:
            # Every client's "sent" marker follows its request.
            for peer in range(1, comm.size):
                comm.recv(source=peer, tag=99)
            assert protocol.pump(block=True)
            served = {
                name: comm.stats.get(name)
                for name in ("requests_served", "serve_probes", "probe_calls")
            }
        else:
            # A client round whose wait begins by telling the server
            # "my request is on its way to you".
            wait = protocol.requests.wait

            def marked_wait(progress):
                comm.send(SERVER, None, tag=99)
                return wait(progress)

            protocol.requests.wait = marked_wait
            kmers, tiles = protocol.ask({SERVER: (wanted, wanted[:0])})[SERVER]
            assert (kmers == 5).all() and kmers.size == wanted.size
            assert tiles.size == 0
        protocol.finish()
        return served

    served = run_spmd(prog, SIZE, engine="cooperative").results[SERVER]
    assert served["requests_served"] == SIZE - 1
    assert served["serve_probes"] == 1
    # Base mode still pays exactly one counted probe for the turn.
    assert served["probe_calls"] == (0 if universal else 1)
