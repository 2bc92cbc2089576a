"""Retry exhaustion and fault-aware diagnostics, end to end.

An *unsurvivable* plan (uncapped 100% drop) must surface as a typed
:class:`LookupTimeoutError` carrying the pending state — never a hang
and never silently wrong output.  A deadlock under injection must name
the plan's pending faults in its diagnostics.
"""

import numpy as np
import pytest

from repro.errors import (
    CommunicatorError,
    DeadlockError,
    LookupTimeoutError,
)
from repro.faults import FaultPlan, StallFault
from repro.parallel.driver import ParallelReptile
from repro.parallel.heuristics import HeuristicConfig
from repro.simmpi import run_spmd
from repro.simmpi.message import Tags

from tests.faults.conftest import run_plan


class TestRetryExhaustion:
    """The three retrying clients give up the same way."""

    @pytest.mark.parametrize(
        "heuristics",
        [
            HeuristicConfig(),
            HeuristicConfig(prefetch=True),
            HeuristicConfig(read_kmers=True),
        ],
        ids=["step4", "prefetch", "read_tables"],
    )
    def test_unsurvivable_plan_raises_typed_error(self, scale, heuristics):
        # Every droppable frame is lost forever; the client must give up
        # after max_retries rounds with a typed, diagnosable error.
        plan = FaultPlan(
            seed=0,
            drop_rate=1.0,
            max_drops_per_frame=None,  # uncapped: beyond any budget
            base_timeout_s=0.01,
            max_retries=2,
        )
        with pytest.raises(LookupTimeoutError) as err:
            run_plan(scale, plan, nranks=2, heuristics=heuristics)
        assert err.value.rank in (0, 1)
        assert err.value.pending  # names what never arrived
        assert err.value.attempts is not None
        assert err.value.attempts > plan.max_retries
        assert f"({plan.total_budget():.2f}s budget)" in str(err.value)


class TestVerifierInteraction:
    def test_frame_faults_reject_verify(self):
        plan = FaultPlan(seed=0, drop_rate=0.5)

        def fn(comm):
            return comm.rank

        with pytest.raises(CommunicatorError):
            run_spmd(fn, 2, verify=True, faults=plan)

    def test_stall_only_plan_passes_verify(self):
        plan = FaultPlan(stalls=(StallFault(rank=1, seconds=0.0),))

        def fn(comm):
            comm.send((comm.rank + 1) % comm.size, comm.rank, tag=1)
            return comm.recv(source=(comm.rank - 1) % comm.size, tag=1).payload

        spmd = run_spmd(fn, 2, verify=True, faults=plan)
        assert spmd.results == [1, 0]


class TestDeadlockDiagnostics:
    def test_deadlock_error_names_pending_faults(self):
        # A rank that waits for a message nobody sends, under an armed
        # plan: the DeadlockError must carry the injection state.
        plan = FaultPlan(
            stalls=(StallFault(rank=1, after_events=1, seconds=0.0),)
        )

        def fn(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=Tags.KMER_REQUEST)
            return comm.rank

        with pytest.raises(DeadlockError) as err:
            run_spmd(fn, 2, faults=plan)
        text = str(err.value)
        assert "fault injection active" in text
        assert "stall" in text

    def test_deadlock_error_without_plan_is_unchanged(self):
        def fn(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=Tags.KMER_REQUEST)
            return comm.rank

        with pytest.raises(DeadlockError) as err:
            run_spmd(fn, 2)
        assert "fault injection" not in str(err.value)


class TestNoPlanNoOverhead:
    def test_no_plan_leaves_no_resilience_trace(self, scale, serial_reference):
        result = ParallelReptile(
            scale.config, HeuristicConfig(), nranks=2
        ).run(scale.dataset.block)
        block = result.corrected_block
        assert np.array_equal(block.codes, serial_reference.block.codes)
        assert result.crashed_ranks == ()
        for stats in result.stats:
            for name in ("frames_dropped", "lookup_retries",
                         "lookup_timeouts", "replicas_sent"):
                assert stats.get(name) == 0
