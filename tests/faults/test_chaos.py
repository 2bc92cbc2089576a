"""The headline chaos experiment (acceptance gate).

Eight spawned interpreters, a seeded plan losing >= 5% of droppable
frames, and one rank killed mid-correction: the run must converge to
the byte-exact fault-free serial output with every loss accounted for
— nonzero drop and retry ledgers, no silently missing reads.
"""

from repro.faults import CrashFault, FaultPlan
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.report import run_report

from tests.faults.conftest import assert_identical, run_plan, totals

CHAOS_PLAN = FaultPlan(
    seed=1234,
    drop_rate=0.05,
    duplicate_rate=0.02,
    delay_rate=0.02,
    max_drops_per_frame=2,
    crashes=(CrashFault(rank=2, after_events=4),),
    base_timeout_s=0.1,
    max_retries=8,
)


class TestEightRankChaos:
    def test_process_engine_chaos(self, scale, serial_reference):
        result = run_plan(
            scale,
            CHAOS_PLAN,
            nranks=8,
            engine="process",
            heuristics=HeuristicConfig(prefetch=True),
        )
        # Zero silent losses: the merged block holds exactly the input
        # ids, and every read matches the fault-free reference.
        assert_identical(result, serial_reference, scale)
        assert result.crashed_ranks == (2,)

        total = totals(result)
        assert total.get("frames_dropped") > 0
        assert total.get("lookup_retries") > 0
        assert total.get("crashes_injected") == 1
        assert total.get("takeover_reads") > 0

        # The run report carries the whole resilience ledger.
        report = run_report(result)
        res = report["resilience"]
        assert res["crashed_ranks"] == [2]
        assert res["frames_dropped"] == total.get("frames_dropped")
        assert res["lookup_retries"] == total.get("lookup_retries")
        assert report["totals"]["reads"] == len(scale.dataset.block)
