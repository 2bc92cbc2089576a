"""Crash recovery: replication, takeover, and replay.

A doomed rank's spectrum shard and read partition must survive it in
its partner's memory, and the partner must re-own the
dead rank's reads so the merged output is exactly what a fault-free
run produces.  Recovery correctness is output *identity*, not output
plausibility.
"""

import asyncio
import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError, ServiceError
from repro.faults import CrashFault, FaultPlan
from repro.hashing.counthash import narrow_pairs
from repro.parallel import session as session_mod
from repro.parallel.driver import ParallelReptile
from repro.parallel.heuristics import HeuristicConfig
from repro.service import SpectrumService
from repro.simmpi import wire
from repro.simmpi.engine import CooperativeEngine
from repro.simmpi.message import Tags

from tests.faults.conftest import assert_identical, run_plan, totals


class TestPartnerRecovery:
    def test_crash_recovers_bit_identically(self, scale, serial_reference):
        plan = FaultPlan(
            seed=1, crashes=(CrashFault(rank=1, after_events=4),)
        )
        result = run_plan(scale, plan, nranks=4)
        assert result.crashed_ranks == (1,)
        assert_identical(result, serial_reference, scale)
        total = totals(result)
        assert total.get("crashes_injected") == 1
        assert total.get("replicas_sent") == 1
        assert total.get("replicas_held") == 1
        assert total.get("takeover_reads") > 0
        # The crashed rank's report is an empty placeholder.
        assert len(result.reports[1].block) == 0
        # Its reads resurface in the partner's block.
        assert len(result.reports[2].block) > len(result.reports[3].block)

    def test_partner_wraps_to_rank_zero(self, scale, serial_reference):
        plan = FaultPlan(
            seed=2, crashes=(CrashFault(rank=3, after_events=4),)
        )
        result = run_plan(scale, plan, nranks=4)
        assert result.crashed_ranks == (3,)
        assert_identical(result, serial_reference, scale)

    def test_crash_with_prefetch(self, scale, serial_reference):
        plan = FaultPlan(
            seed=3, crashes=(CrashFault(rank=2, after_events=3),)
        )
        result = run_plan(
            scale, plan, nranks=4, heuristics=HeuristicConfig(prefetch=True)
        )
        assert result.crashed_ranks == (2,)
        assert_identical(result, serial_reference, scale)

    def test_ward_replay_is_chunk_size_invariant(self, scale, serial_reference):
        """The partner replays its ward's reads as one share, like its
        own: the same recovery, request for request, at any chunk_size."""
        plan = FaultPlan(
            seed=1, crashes=(CrashFault(rank=1, after_events=4),)
        )
        ledgers = []
        for chunk_size in (1, 7, 250, 10**6):
            sized = dataclasses.replace(
                scale, config=dataclasses.replace(scale.config, chunk_size=chunk_size)
            )
            result = run_plan(sized, plan, nranks=4)
            assert result.crashed_ranks == (1,)
            assert_identical(result, serial_reference, scale)
            ledgers.append((
                result.counter_per_rank("takeover_reads").tolist(),
                result.counter_per_rank("blocking_request_counts").tolist(),
            ))
        takeover = ledgers[0][0]
        assert takeover[2] > 0 and sum(takeover) == takeover[2]
        assert all(ledger == ledgers[0] for ledger in ledgers[1:])

    def test_misfire_is_an_error(self, scale):
        # after_events far beyond the rank's event count: the crash
        # never fires, and silently continuing would double-correct the
        # "dead" rank's reads (partner replays them too).
        plan = FaultPlan(
            seed=4, crashes=(CrashFault(rank=1, after_events=10**9),)
        )
        with pytest.raises(ConfigError, match="never fired"):
            run_plan(scale, plan, nranks=4)


class _ReplicaTap(CooperativeEngine):
    """The cooperative engine, keeping every REPLICA frame deposited
    (under an armed plan every send is an encoded frame)."""

    def __init__(self):
        self.frames = []

    def deposit(self, world, rank, dest, frame):
        if wire.frame_header(frame)[1] == Tags.REPLICA:
            self.frames.append(frame)
        super().deposit(world, rank, dest, frame)


class TestReplicaAtTableWidth:
    def test_replica_frame_ships_table_width_pairs(
        self, scale, serial_reference, monkeypatch
    ):
        shards, held = {}, {}
        replicate = session_mod.replicate_state

        def spy(comm, plan, spectra, block):
            shards[comm.rank] = (spectra.kmers, spectra.tiles)
            held[comm.rank] = replicate(comm, plan, spectra, block)
            return held[comm.rank]

        monkeypatch.setattr(session_mod, "replicate_state", spy)
        tap = _ReplicaTap()
        plan = FaultPlan(seed=1, crashes=(CrashFault(rank=1, after_events=4),))
        result = run_plan(scale, plan, nranks=2, engine=tap)
        assert result.crashed_ranks == (1,)
        assert_identical(result, serial_reference, scale)

        (frame,) = tap.frames
        assert wire.frame_header(frame) == (1, Tags.REPLICA)
        kmer_keys, kmer_counts, tile_keys, tile_counts = (
            wire.decode_frame(frame).payload[:4]
        )
        # 24-bit k-mer keys and counts below 2^16: 6 B a k-mer pair.
        assert kmer_keys.dtype == np.uint32
        assert kmer_counts.dtype == tile_counts.dtype == np.uint16
        ward_kmers, ward_tiles = shards[1]
        replica_kmers, replica_tiles = held[0].replicas[1]
        for keys, counts, own, replica in (
            (kmer_keys, kmer_counts, ward_kmers, replica_kmers),
            (tile_keys, tile_counts, ward_tiles, replica_tiles),
        ):
            # Already at the width the one width rule picks.
            narrow_keys, narrow_counts = narrow_pairs(keys, counts)
            assert narrow_keys.dtype == keys.dtype
            assert narrow_counts.dtype == counts.dtype
            # Every pair of the ward's shard, and the replica answers
            # each key as the ward's own table does.
            assert keys.size == len(own) == len(replica) > 0
            assert np.array_equal(own.lookup(keys), counts)
            assert np.array_equal(replica.lookup(keys), counts)


class TestAfterTheCrashRound:
    """A crash round is the fleet's last collective (a dead rank joins
    no later one).  A job after it must fail typed and alone, not wedge
    the fleet, and the run record must survive it."""

    PLAN = FaultPlan(seed=1, crashes=(CrashFault(rank=1, after_events=3),))

    @pytest.mark.parametrize("later", ["correct", "ingest"])
    def test_later_job_is_refused_and_close_returns_the_record(
        self, scale, serial_reference, later
    ):
        block = scale.dataset.block
        service = SpectrumService(
            scale.config, 4, heuristics=HeuristicConfig(universal=True),
            faults=self.PLAN,
        )

        async def drive():
            await service.ingest(block)
            first = await service.correct(block)
            with pytest.raises(ServiceError, match="crash round"):
                await getattr(service, later)(block)
            return first, await service.close()

        first, record = asyncio.run(drive())
        assert record.crashed_ranks == (1,)
        assert np.array_equal(first.block.ids, block.ids)
        assert np.array_equal(first.block.codes, serial_reference.block.codes)

    def test_job_queued_behind_the_crash_round_is_refused(self, scale):
        """Submitted before the crash round ran, so it waits in the
        queue behind it: it is refused all the same."""
        block = scale.dataset.block
        service = SpectrumService(
            scale.config, 4, heuristics=HeuristicConfig(universal=True),
            faults=self.PLAN,
        )

        async def drive():
            await service.ingest(block)
            crash = asyncio.ensure_future(service.correct(block))
            await asyncio.sleep(0)  # the crash round is taken first
            behind = asyncio.ensure_future(service.ingest(block))
            await crash
            with pytest.raises(ServiceError, match="crash round"):
                await behind
            return await service.close()

        assert asyncio.run(drive()).crashed_ranks == (1,)

    def test_session_op_after_the_crash_round(self, scale):
        from repro.parallel.driver import ParallelSession
        from repro.parallel.session import CorrectOp, IngestOp

        block = scale.dataset.block
        session = ParallelSession(
            scale.config, HeuristicConfig(universal=True), nranks=4,
            faults=self.PLAN,
        )
        with pytest.raises(ServiceError, match="crash round"):
            session.run([IngestOp(block), CorrectOp(block), CorrectOp(block)])


class TestProcessEngineCrash:
    def test_spawned_interpreter_crash_recovers(self, scale, serial_reference):
        # The real thing: a child interpreter dies mid-correction
        # (SystemExit after RankCrashError) and the run still converges
        # to the fault-free output.
        plan = FaultPlan(
            seed=6, crashes=(CrashFault(rank=1, after_events=4),)
        )
        result = run_plan(scale, plan, nranks=2, engine="process")
        assert result.crashed_ranks == (1,)
        assert_identical(result, serial_reference, scale)
        assert totals(result).get("takeover_reads") > 0
