"""FaultInjector + FaultyTransport: white-box semantics.

The injector's contract is *determinism*: every fault decision is a
keyed hash of (plan seed, frame content, destination, occurrence), so
independent injectors — one per spawned interpreter on the process
engine — reach identical verdicts with no shared state.  These tests
drive a bare LocalTransport so each claim is visible frame by frame.
"""

import numpy as np
import pytest

from repro.faults import (
    DROPPABLE_TAGS,
    CrashFault,
    FaultInjector,
    FaultPlan,
    FaultyTransport,
    StallFault,
)
from repro.errors import RankCrashError
from repro.simmpi import wire
from repro.simmpi.message import Tags
from repro.simmpi.transport import LocalTransport

NRANKS = 4


def _frame(i, tag=Tags.KMER_REQUEST, source=0):
    return wire.encode_frame(
        source, tag, np.asarray([i, i + 1], dtype=np.uint64)
    )


def _wrapped(plan):
    inj = FaultInjector(plan, NRANKS)
    return FaultyTransport(LocalTransport(NRANKS), inj), inj


class TestDeterminism:
    def test_independent_injectors_agree(self):
        """Two injectors with the same plan make identical decisions —
        the process engine's per-child equivalence argument."""
        plan = FaultPlan(
            seed=13, drop_rate=0.2, duplicate_rate=0.1, delay_rate=0.1,
            max_drops_per_frame=None,
        )
        a = FaultInjector(plan, NRANKS)
        b = FaultInjector(plan, NRANKS)
        frames = [(i % NRANKS, _frame(i)) for i in range(200)]
        verdicts_a = [a.decide(dest, f) for dest, f in frames]
        verdicts_b = [b.decide(dest, f) for dest, f in frames]
        assert verdicts_a == verdicts_b
        assert set(verdicts_a) == {"pass", "drop", "duplicate", "delay"}

    def test_seed_changes_decisions(self):
        frames = [(1, _frame(i)) for i in range(300)]
        plan = FaultPlan(seed=1, drop_rate=0.3, max_drops_per_frame=None)
        a = FaultInjector(plan, NRANKS)
        b = FaultInjector(plan.with_seed(2), NRANKS)
        assert [a.decide(d, f) for d, f in frames] != \
               [b.decide(d, f) for d, f in frames]

    def test_retransmit_gets_a_fresh_draw(self):
        """The occurrence counter means an identical retransmitted frame
        is a new coin flip, not a guaranteed repeat of the first fate."""
        plan = FaultPlan(seed=0, drop_rate=0.5, max_drops_per_frame=None)
        inj = FaultInjector(plan, NRANKS)
        frame = _frame(7)
        fates = {inj.decide(1, frame) for _ in range(64)}
        assert fates == {"pass", "drop"}


class TestLossCap:
    def test_cap_bounds_losses_per_frame(self):
        plan = FaultPlan(seed=0, drop_rate=1.0, max_drops_per_frame=2)
        inj = FaultInjector(plan, NRANKS)
        frame = _frame(1)
        fates = [inj.decide(1, frame) for _ in range(10)]
        assert fates[:2] == ["drop", "drop"]
        assert fates[2:] == ["pass"] * 8

    def test_uncapped_plan_drops_forever(self):
        plan = FaultPlan(seed=0, drop_rate=1.0, max_drops_per_frame=None)
        inj = FaultInjector(plan, NRANKS)
        frame = _frame(1)
        assert [inj.decide(1, frame) for _ in range(10)] == ["drop"] * 10


class TestReliableTags:
    def test_control_tags_never_faulted(self):
        plan = FaultPlan(seed=0, drop_rate=1.0, max_drops_per_frame=None)
        inj = FaultInjector(plan, NRANKS)
        for tag in (Tags.WORKER_DONE, Tags.SHUTDOWN, Tags.REPLICA):
            assert inj.decide(1, _frame(0, tag=tag)) == "pass"

    def test_collective_tags_never_faulted(self):
        plan = FaultPlan(seed=0, drop_rate=1.0, max_drops_per_frame=None)
        inj = FaultInjector(plan, NRANKS)
        tag = Tags.COLLECTIVE_BASE + 3
        assert tag not in DROPPABLE_TAGS
        assert inj.decide(1, _frame(0, tag=tag)) == "pass"


class TestFaultyTransport:
    def test_drop_never_reaches_the_inner_box(self):
        t, inj = _wrapped(
            FaultPlan(seed=0, drop_rate=1.0, max_drops_per_frame=1)
        )
        frame = _frame(3)
        assert t.enqueue(1, frame) is None  # dropped (first loss)
        assert len(t.inner.boxes[1]) == 0
        t.enqueue(1, frame)  # cap reached -> delivered
        assert len(t.inner.boxes[1]) == 1
        assert inj.counts == {"frames_dropped": 1}

    def test_duplicate_delivers_twice(self):
        t, inj = _wrapped(
            FaultPlan(seed=3, duplicate_rate=1.0)
        )
        t.enqueue(2, _frame(5))
        assert len(t.inner.boxes[2]) == 2
        assert inj.counts == {"frames_duplicated": 1}

    def test_delay_holds_then_delivers(self):
        t, inj = _wrapped(
            FaultPlan(seed=0, delay_rate=1.0, delay_events=3)
        )
        t.enqueue(1, _frame(11))
        assert len(t.inner.boxes[1]) == 0  # held
        # Transport activity (polls) advances the event clock.
        for _ in range(3):
            t.poll(0, -1, -1, remove=False)
        assert len(t.inner.boxes[1]) == 1  # released, nothing lost
        assert inj.counts == {"frames_delayed": 1}

    def test_fault_free_plan_is_passthrough(self):
        t, inj = _wrapped(FaultPlan(seed=0))
        msg = t.enqueue(1, _frame(1))
        assert msg is not None
        assert len(t.inner.boxes[1]) == 1
        assert inj.counts == {}


class TestRankFaults:
    def test_crash_fires_only_in_correction_phase(self):
        plan = FaultPlan(crashes=(CrashFault(rank=1, after_events=2),))
        inj = FaultInjector(plan, NRANKS)
        # Build-phase events never trigger.
        for _ in range(5):
            inj.at_event(1)
        inj.enter_phase(1, "correction")
        inj.at_event(1)
        with pytest.raises(RankCrashError):
            inj.at_event(1)
        assert inj.crash_fired(1)
        # Other ranks are untouched.
        inj.enter_phase(2, "correction")
        for _ in range(10):
            inj.at_event(2)

    def test_stall_sleeps_once(self):
        plan = FaultPlan(
            stalls=(StallFault(rank=1, after_events=1, seconds=0.0),)
        )
        inj = FaultInjector(plan, NRANKS)
        inj.enter_phase(1, "correction")
        inj.at_event(1)
        assert inj.counts == {"stalls_injected": 1}
        inj.at_event(1)  # no re-fire
        assert inj.counts == {"stalls_injected": 1}

    def test_describe_pending(self):
        plan = FaultPlan(
            drop_rate=0.5,
            crashes=(CrashFault(rank=2, after_events=9),),
        )
        inj = FaultInjector(plan, NRANKS)
        assert "rank 2 crash pending" in inj.describe_pending()
        inj.record(0, "frames_dropped")
        assert "frames_dropped=1" in inj.describe_pending()
