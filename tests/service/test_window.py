"""A correct round runs on its window.

Only the window's ranks are sent the command, correct, terminate among
themselves and send a result; every other rank stays parked in its
Step IV pump, serving their lookups, and books no op for the round.
A collective placement (load balancing over more than one rank) is the
one thing the other ranks join.  Under a plan that dooms ranks the
window is the whole fleet.
"""

import asyncio

import numpy as np
import pytest

from repro.bench.harness import small_scale
from repro.core.corrector import ReptileCorrector
from repro.core.spectrum import LocalSpectrumView, build_spectra
from repro.faults import CrashFault, FaultPlan, StallFault
from repro.parallel.driver import ParallelSession
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.session import CorrectOp, IngestOp, SessionRankReport
from repro.service import SpectrumService
from repro.service.program import SERVICE_CMD_TAG, SERVICE_RESULT_TAG
from repro.simmpi.message import REQUEST_TAGS, Tags

P = 4
CHUNK = 100


@pytest.fixture(scope="module")
def scale():
    return small_scale("E.Coli", genome_size=3_000, chunk_size=CHUNK)


def head(block, n, start=0):
    return block.select(np.arange(start, start + n))


def frames_by_tag(out):
    """Frames the whole fleet sent, per tag."""
    total = {}
    for stats in out.stats:
        for tag, n in stats.messages_by_tag.items():
            total[tag] = total.get(tag, 0) + n
    return total


@pytest.fixture(scope="module")
def serial(scale):
    """The serial corrector against the spectrum of the whole block."""
    view = LocalSpectrumView(build_spectra(scale.dataset.block, scale.config))
    return ReptileCorrector(scale.config, view)


class TestOneRankWindow:
    @pytest.fixture(scope="class")
    def runs(self, scale):
        """[ingest] and [ingest, one-chunk correct]: op 1's window is
        rank 1 alone."""
        block = scale.dataset.block
        session = ParallelSession(scale.config, HeuristicConfig(), nranks=P)
        return (
            session.run([IngestOp(block)]),
            session.run([IngestOp(block), CorrectOp(head(block, 60))]),
        )

    def test_the_round_costs_one_command_and_one_result(self, runs):
        ingest, both = (frames_by_tag(out) for out in runs)
        added = {
            tag: both.get(tag, 0) - ingest.get(tag, 0)
            for tag in (SERVICE_CMD_TAG, SERVICE_RESULT_TAG,
                        Tags.WORKER_DONE, Tags.SHUTDOWN)
        }
        assert added == {
            SERVICE_CMD_TAG: 1, SERVICE_RESULT_TAG: 1,
            Tags.WORKER_DONE: 0, Tags.SHUTDOWN: 0,
        }

    def test_ranks_outside_the_window_book_no_op(self, runs):
        _, out = runs
        kinds = [report.op_kinds for report in out.rank_reports]
        assert kinds == [("ingest",), ("ingest", "correct"),
                         ("ingest",), ("ingest",)]
        reads = [len(report.block) for report in out.result_for(0).reports]
        assert reads == [0, 60, 0, 0]

    def test_the_window_rank_is_served_by_the_others(self, runs):
        """The lone corrector asks the three parked ranks for counts:
        they answer from their standing pumps."""
        _, out = runs
        served = [stats.get("requests_served") for stats in out.stats]
        assert served[1] == 0
        assert all(served[rank] > 0 for rank in (0, 2, 3))


@pytest.mark.parametrize("load_balance", [True, False],
                         ids=["balanced", "contiguous"])
@pytest.mark.parametrize("engine", ["threaded", "process"])
def test_a_multi_rank_window_is_bit_identical_to_serial(
    engine, load_balance, scale, serial
):
    """A 2-part round (op 1: ranks 2-3) and a 3-part round (op 2: ranks
    2, 3, 0) among one-rank rounds, on engines that run the ranks
    concurrently."""
    block = scale.dataset.block
    rounds = [head(block, 150), head(block, 250, start=200),
              head(block, 40, start=500)]
    out = ParallelSession(
        scale.config, HeuristicConfig(load_balance=load_balance),
        nranks=P, engine=engine,
    ).run([IngestOp(block)] + [CorrectOp(b) for b in rounds])
    assert out.n_correct_ops == 3
    for index, batch in enumerate(rounds):
        got = out.result_for(index).corrected_block
        np.testing.assert_array_equal(got.ids, batch.ids)
        np.testing.assert_array_equal(
            got.codes, serial.correct_block(batch).block.codes
        )
    holders = [
        [rank for rank, report in enumerate(out.result_for(i).reports)
         if len(report.block)]
        for i in range(3)
    ]
    assert holders == [[2, 3], [0, 2, 3], [3]]
    # Two-rank and three-rank handshakes, rooted at rank 2; none for the
    # one-rank round.
    frames = frames_by_tag(out)
    assert frames[Tags.WORKER_DONE] == frames[Tags.SHUTDOWN] == 1 + 2


def test_a_slice_that_beats_the_roots_shutdown_to_rank_0_is_taken(
    scale, serial
):
    """A window that wraps past the last rank — 3 parts from rank 2:
    ranks 2, 3, 0 — has rank 0 correct without rooting the handshake.
    The root sends SHUTDOWN to rank 3, then to rank 0; a stall holds the
    second send back, so rank 3 leaves its handshake and sends its slice
    while rank 0 still pumps in its own.  Rank 0 takes it there."""
    block = scale.dataset.block
    half = len(block) // 2
    batch = head(block, 250, start=100)
    # Two ingests turn the window: op 2's 3-part window starts at rank 2.
    ops = [IngestOp(head(block, half)),
           IngestOp(head(block, len(block) - half, start=half)),
           CorrectOp(batch)]

    def sent_by_root(out):
        """The root's Step IV sends: lookups, answers and SHUTDOWNs."""
        tags = (*REQUEST_TAGS, Tags.COUNT_RESPONSE, Tags.SHUTDOWN)
        return sum(out.stats[2].messages_by_tag.get(tag, 0) for tag in tags)

    ingests = ParallelSession(scale.config, HeuristicConfig(), nranks=P,
                              engine="threaded").run(ops[:2])
    clean = ParallelSession(scale.config, HeuristicConfig(), nranks=P,
                            engine="threaded").run(ops)
    # The round's last Step IV send of the root is its SHUTDOWN to
    # rank 0 (the stall counts sends from the root's correct on).
    to_rank_0 = sent_by_root(clean) - sent_by_root(ingests)
    plan = FaultPlan(
        stalls=(StallFault(rank=2, after_events=to_rank_0, seconds=0.5),)
    )
    out = ParallelSession(scale.config, HeuristicConfig(), nranks=P,
                          engine="threaded", faults=plan).run(ops)
    assert out.stats[2].get("stalls_injected") == 1
    holders = [rank for rank, report in enumerate(out.result_for(0).reports)
               if len(report.block)]
    assert holders == [0, 2, 3]
    got = out.result_for(0).corrected_block
    np.testing.assert_array_equal(got.ids, batch.ids)
    np.testing.assert_array_equal(
        got.codes, serial.correct_block(batch).block.codes
    )


def test_a_crash_plan_widens_a_small_round_to_the_fleet(scale):
    """Under a plan that dooms a rank even a one-chunk round is the
    whole fleet's, and its crash round still answers every read,
    bit-identical to a fault-free round."""
    plan = FaultPlan(seed=5, crashes=(CrashFault(rank=2, after_events=2),))
    block = scale.dataset.block
    small = head(block, 60)

    def run(faults):
        service = SpectrumService(
            scale.config, P, heuristics=HeuristicConfig(), faults=faults
        )

        async def drive():
            async with service:
                await service.ingest(block)
                return await service.correct(small)

        return asyncio.run(drive()), service.result

    clean, clean_record = run(None)
    crashed, record = run(plan)
    assert record.crashed_ranks == (2,)
    np.testing.assert_array_equal(crashed.block.ids, small.ids)
    np.testing.assert_array_equal(crashed.block.codes, clean.block.codes)
    np.testing.assert_array_equal(
        crashed.corrections_per_read, clean.corrections_per_read
    )
    # Fault-free, the round is one rank's; doomed, every live rank's.
    corrected = [
        sum(kind == "correct" for kind in report.op_kinds)
        for report in clean_record.rank_reports
    ]
    assert sorted(corrected) == [0, 0, 0, 1]
    live = [r for r in record.rank_reports
            if isinstance(r, SessionRankReport)]
    assert len(live) == P - 1
    assert all("correct" in report.op_kinds for report in live)
