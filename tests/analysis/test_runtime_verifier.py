"""Runtime verifier: wait-for-graph deadlock detection and the
finalize-time audit, positive and negative, on both engines."""

import time

import numpy as np
import pytest

from repro.errors import DeadlockError, VerifierError
from repro.simmpi import run_spmd
from repro.simmpi.engine import CooperativeEngine, ThreadedEngine

ENGINES = [
    pytest.param(lambda: CooperativeEngine(), id="cooperative"),
    pytest.param(lambda: ThreadedEngine(), id="threaded"),
]


# ----------------------------------------------------------------------
# wait-for graph: bugs caught
# ----------------------------------------------------------------------
class TestDeadlockDetection:
    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_skipped_barrier_caught_well_under_timeout(self, make_engine):
        """Rank 0 skips a barrier: the classic rank-divergent collective.
        Must fail in seconds, not after the 120 s receive timeout."""

        def prog(comm):
            if comm.rank != 0:
                comm.barrier()
            return comm.rank

        start = time.monotonic()
        with pytest.raises(DeadlockError) as exc:
            run_spmd(prog, 3, engine=make_engine(), verify=True)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0  # far under the 120 s default timeout
        assert "deadlock detected" in str(exc.value)
        assert "finished" in str(exc.value)

    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_mutual_wait_cycle_names_ranks_and_tags(self, make_engine):
        def prog(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=5)
            elif comm.rank == 1:
                comm.recv(source=0, tag=6)

        with pytest.raises(DeadlockError) as exc:
            run_spmd(prog, 2, engine=make_engine(), verify=True)
        message = str(exc.value)
        assert "rank 0" in message and "rank 1" in message
        assert "tag=5" in message and "tag=6" in message
        assert exc.value.blocked[0] == (1, 5)
        assert exc.value.blocked[1] == (0, 6)

    def test_threaded_cycle_reports_cycle_ranks(self):
        def prog(comm):
            comm.recv(source=(comm.rank + 1) % comm.size, tag=1)

        with pytest.raises(DeadlockError) as exc:
            run_spmd(prog, 3, engine=ThreadedEngine(), verify=True)
        assert exc.value.cycle  # the ring wait closed a cycle

    def test_same_message_shape_as_cooperative_global_check(self):
        """Satellite: the sequential engine's nobody-can-run check and
        the wait-for-graph detector share one code path in errors.py and
        so one message shape."""

        def prog(comm):
            comm.recv(source=(comm.rank + 1) % comm.size, tag=7)

        # Cooperative global check (verify off) ...
        with pytest.raises(DeadlockError) as coop:
            run_spmd(prog, 2, engine="cooperative")
        # ... and the wait-for-graph detector (threaded + verify).
        with pytest.raises(DeadlockError) as graph:
            run_spmd(prog, 2, engine=ThreadedEngine(), verify=True)
        for exc in (coop, graph):
            assert str(exc.value).startswith("deadlock detected: rank ")
            assert "blocked in recv(source=" in str(exc.value)
            assert exc.value.blocked[0] == (1, 7)

    def test_wait_on_any_source_falls_back_to_global_check(self):
        """ANY_SOURCE waits add no edge; the cooperative engine's global
        check still reports them through the same DeadlockError shape."""

        def prog(comm):
            comm.recv(tag=99)

        with pytest.raises(DeadlockError) as exc:
            run_spmd(prog, 2, engine="cooperative", verify=True)
        assert "ANY_SOURCE" in str(exc.value)


# ----------------------------------------------------------------------
# wait-for graph: clean programs pass (no false positives)
# ----------------------------------------------------------------------
class TestNoFalsePositives:
    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_ring_exchange_passes(self, make_engine):
        def prog(comm):
            comm.send((comm.rank + 1) % comm.size, comm.rank, tag=1)
            return comm.recv(tag=1).payload

        res = run_spmd(prog, 4, engine=make_engine(), verify=True)
        assert sorted(res.results) == [0, 1, 2, 3]

    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_collectives_pass(self, make_engine):
        def prog(comm):
            comm.barrier()
            total = comm.allreduce(comm.rank)
            gathered = comm.gather(comm.rank)
            value = comm.bcast("x")
            comm.barrier()
            return (total, gathered if comm.rank == 0 else None, value)

        res = run_spmd(prog, 4, engine=make_engine(), verify=True)
        assert res.results[0] == (6, [0, 1, 2, 3], "x")

    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_zero_size_alltoallv_chunks_pass(self, make_engine):
        """Satellite edge case: empty numpy chunks are legal collective
        payloads and must not trip the verifier or the audit."""

        def prog(comm):
            chunks = [
                np.arange(comm.rank, dtype=np.int64)
                if d == (comm.rank + 1) % comm.size
                else np.empty(0, dtype=np.int64)
                for d in range(comm.size)
            ]
            out = comm.alltoallv(chunks)
            return [len(c) for c in out]

        res = run_spmd(prog, 3, engine=make_engine(), verify=True)
        assert all(len(r) == 3 for r in res.results)

    def test_pump_any_source_service_loop_passes(self):
        """Satellite edge case: Step IV's finish() serves peers from
        blocking recv(ANY_SOURCE, ANY_TAG) turns until the shutdown;
        those waits must not create wait-for edges or spurious
        deadlocks under real concurrency."""
        from repro.hashing.counthash import CountHash
        from repro.parallel.server import CorrectionProtocol

        def prog(comm):
            table = CountHash(capacity=64)
            keys = np.array([10 + comm.rank], dtype=np.uint64)
            table.add_counts(keys, 1)
            protocol = CorrectionProtocol(comm, table, table, universal=True)
            # Ask every other rank for its key.
            others = np.array(
                [r for r in range(comm.size) if r != comm.rank],
                dtype=np.int64,
            )
            # A chunk names its owner: rank r holds key 10 + r.
            answers = protocol.ask({
                int(r): (np.array([r + 10], dtype=np.uint64),
                         np.empty(0, dtype=np.uint64))
                for r in others
            })
            protocol.finish()
            return [int(answers[int(r)][0][0]) for r in others]

        res = run_spmd(prog, 3, engine=ThreadedEngine(), verify=True)
        assert all(r == [1, 1] for r in res.results)

    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_nested_split_subcommunicators_pass(self, make_engine):
        """Satellite edge case: split twice, run collectives on both
        subgroups; generations must line up at finalize."""

        def prog(comm):
            evens = comm.split(comm.rank % 2)
            first = evens.allreduce(1)
            halves = comm.split(comm.rank // 2)
            second = halves.allgather(comm.rank)
            comm.barrier()
            return (first, sorted(second))

        res = run_spmd(prog, 4, engine=make_engine(), verify=True)
        assert res.results[0] == (2, [0, 1])

    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_full_reptile_pipeline_passes_verification(self, make_engine):
        """The real driver is deadlock-free and drains every mailbox."""
        from repro.config import ReptileConfig
        from repro.datasets.profiles import PROFILES
        from repro.parallel.heuristics import HeuristicConfig
        from repro.parallel.session import CorrectionSession

        dataset = PROFILES["E.Coli"].scaled(genome_size=4_000, seed=3)
        config = ReptileConfig(
            kmer_length=12, tile_overlap=4,
            kmer_threshold=18, tile_threshold=2, chunk_size=200,
        )
        heur = HeuristicConfig()
        block = dataset.block
        bounds = [len(block) * r // 3 for r in range(4)]

        def prog(comm):
            mine = block.slice(bounds[comm.rank], bounds[comm.rank + 1])
            session = CorrectionSession(comm, config, heur, retain_raw=False)
            session.ingest(mine)
            result = session.correct(mine)
            return int(result.corrections_per_read.sum())

        res = run_spmd(prog, 3, engine=make_engine(), verify=True)
        assert sum(res.results) > 0


# ----------------------------------------------------------------------
# finalize audit
# ----------------------------------------------------------------------
class TestFinalizeAudit:
    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_undrained_mailbox_fails_audit(self, make_engine):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, "leak", tag=7)

        with pytest.raises(VerifierError) as exc:
            run_spmd(prog, 2, engine=make_engine(), verify=True)
        message = str(exc.value)
        assert "undrained" in message
        assert "from rank 0 to rank 1 with tag 7" in message

    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_drained_run_passes_audit(self, make_engine):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, "ok", tag=7)
            elif comm.rank == 1:
                comm.recv(source=0, tag=7)

        run_spmd(prog, 2, engine=make_engine(), verify=True)

    @pytest.mark.parametrize("make_engine", ENGINES)
    @pytest.mark.parametrize("tags", [(7, 6), (7,)], ids=["drained", "one-left"])
    def test_take_queued_hit_counts_as_a_receive(self, make_engine, tags):
        """Messages removed by the non-blocking drain are matched sends;
        one it leaves behind is still reported."""

        def prog(comm):
            if comm.rank == 0:
                for _ in range(3):
                    comm.send(1, "queued", tag=7)
                comm.send(1, "queued", tag=6)
                comm.send(1, None, tag=8)
            else:
                comm.recv(source=0, tag=8)
                taken = comm.take_queued(source=0, tags=tags)
                assert len(taken) == 2 + len(tags)

        if tags == (7, 6):
            run_spmd(prog, 2, engine=make_engine(), verify=True)
            return
        with pytest.raises(VerifierError) as exc:
            run_spmd(prog, 2, engine=make_engine(), verify=True)
        assert "1 message(s) from rank 0 to rank 1 with tag 6" in str(exc.value)

    @pytest.mark.parametrize("make_engine", ENGINES)
    def test_bulk_served_universal_round_passes_verification(self, make_engine):
        """The universal pump serves every queued request in bulk (the
        first received, the rest taken with take_queued) while rounds
        wait and finish() waits; every request and response is still
        matched."""
        from repro.hashing.counthash import CountHash
        from repro.parallel.ownership import KeySpace
        from repro.parallel.server import CorrectionProtocol

        space = KeySpace(24)
        keys = np.sort(space.keys(np.arange(200, dtype=np.uint64)))

        def prog(comm):
            cuts = space.cuts(keys, comm.size)
            table = CountHash()
            table.add_counts(keys[cuts[comm.rank] : cuts[comm.rank + 1]], 3)
            protocol = CorrectionProtocol(comm, table, table, universal=True)
            # Each owner is asked for its keys as both kinds.
            chunks = {
                owner: (keys[cuts[owner] : cuts[owner + 1]],) * 2
                for owner in range(comm.size) if owner != comm.rank
            }
            for _ in range(3):
                answers = protocol.ask(chunks)
                assert all(
                    (counts == 3).all() and counts.size == cuts[owner + 1] - cuts[owner]
                    for owner, pair in answers.items() for counts in pair
                )
            protocol.finish()
            return comm.stats.get("requests_served")

        res = run_spmd(prog, 4, engine=make_engine(), verify=True)
        assert sum(res.results) == 4 * 3 * 3

    def test_generation_skew_fails_audit(self):
        """Unit-level: skew without a deadlock (a skipped collective
        whose messages happened to be absorbed) is caught at finalize."""
        from repro.analysis.verifier import RuntimeVerifier
        from repro.simmpi.engine import CooperativeEngine

        world = CooperativeEngine().create_world(2)
        verifier = RuntimeVerifier(world)

        class FakeComm:
            def __init__(self, rank, generation):
                self.rank = rank
                self._generation = generation

        verifier.register_comm(FakeComm(0, 3))
        verifier.register_comm(FakeComm(1, 4))
        with pytest.raises(VerifierError, match="generation skew"):
            verifier.finalize()

    def test_equal_generations_pass_audit(self):
        from repro.analysis.verifier import RuntimeVerifier
        from repro.simmpi.engine import CooperativeEngine

        world = CooperativeEngine().create_world(2)
        verifier = RuntimeVerifier(world)

        class FakeComm:
            def __init__(self, rank, generation):
                self.rank = rank
                self._generation = generation

        verifier.register_comm(FakeComm(0, 3))
        verifier.register_comm(FakeComm(1, 3))
        verifier.finalize()

    def test_verify_off_skips_the_audit(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, "leak", tag=7)

        res = run_spmd(prog, 2)  # no error: verification is opt-in
        assert res.results == [None, None]
