"""FaultPlan: validation, retry arithmetic, and serialization.

The plan is the whole interface between a chaos experiment and the
runtime — it must round-trip losslessly (JSON for the CLI, pickle for
the process engine) and reject anything the recovery protocol cannot
honor before a single rank starts.
"""

import pickle

import pytest

from repro.errors import ConfigError
from repro.faults import DROPPABLE_TAGS, CrashFault, FaultPlan, StallFault
from repro.simmpi.message import Tags


class TestTimeoutArithmetic:
    """The client retry schedule, nailed down numerically."""

    def test_timeout_for_is_exponential(self):
        plan = FaultPlan(base_timeout_s=0.25, backoff=2.0)
        assert plan.timeout_for(0) == pytest.approx(0.25)
        assert plan.timeout_for(1) == pytest.approx(0.5)
        assert plan.timeout_for(4) == pytest.approx(4.0)

    def test_total_budget_sums_every_round(self):
        plan = FaultPlan(base_timeout_s=0.1, backoff=2.0, max_retries=3)
        # Rounds 0..3: 0.1 + 0.2 + 0.4 + 0.8
        assert plan.total_budget() == pytest.approx(1.5)

    def test_flat_backoff(self):
        plan = FaultPlan(base_timeout_s=0.2, backoff=1.0, max_retries=4)
        assert plan.timeout_for(3) == pytest.approx(0.2)
        assert plan.total_budget() == pytest.approx(1.0)

    def test_survivability_rule(self):
        # A capped plan is survivable iff the retry budget covers the
        # worst case of request and response each losing the cap.
        plan = FaultPlan(drop_rate=0.2, max_drops_per_frame=3, max_retries=6)
        assert plan.max_retries >= 2 * plan.max_drops_per_frame


class TestClassification:
    def test_fault_free_plan(self):
        plan = FaultPlan()
        assert not plan.has_frame_faults
        assert not plan.needs_resilient_lookups
        assert plan.stall_only

    def test_stall_only(self):
        plan = FaultPlan(stalls=(StallFault(rank=1, seconds=0.01),))
        assert plan.stall_only
        assert not plan.needs_resilient_lookups

    def test_crash_requires_resilience(self):
        plan = FaultPlan(crashes=(CrashFault(rank=1),))
        assert not plan.has_frame_faults
        assert plan.needs_resilient_lookups
        assert plan.doomed_ranks() == frozenset({1})

    def test_partner_wraps(self):
        assert FaultPlan.partner_of(3, 4) == 0
        assert FaultPlan.partner_of(1, 4) == 2


class TestValidate:
    def test_accepts_survivable_plan(self):
        FaultPlan(
            seed=1, drop_rate=0.1, crashes=(CrashFault(rank=2),)
        ).validate(4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(drop_rate=1.5),
            dict(drop_rate=-0.1),
            dict(drop_rate=0.6, duplicate_rate=0.6),  # thresholds sum > 1
            dict(delay_events=0),
            dict(max_drops_per_frame=-1),
            dict(base_timeout_s=0.0),
            dict(backoff=0.5),
            dict(max_retries=-1),
            dict(delay_rate=1.01),
            dict(stalls=(StallFault(rank=1, after_events=0),)),
            dict(crashes=(CrashFault(rank=0),)),  # coordinator is immortal
            dict(crashes=(CrashFault(rank=9),)),  # out of range
            dict(crashes=(CrashFault(rank=1, after_events=0),)),
            dict(crashes=(CrashFault(rank=1), CrashFault(rank=1))),
            dict(crashes=(CrashFault(rank=1), CrashFault(rank=2))),  # partner doomed
            dict(stalls=(StallFault(rank=7),)),
            dict(stalls=(StallFault(rank=1, seconds=-1.0),)),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            FaultPlan(**kwargs).validate(4)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("drop_rate", "0.1"),
            ("delay_rate", None),
            ("base_timeout_s", "fast"),
            ("backoff", [2]),
            ("max_retries", 2.5),
            ("delay_events", "3"),
            ("max_drops_per_frame", True),
            ("seed", 1.0),
        ],
    )
    def test_rejects_non_numbers_by_name(self, field, value):
        """A JSON plan's value of the wrong type is a ConfigError that
        names the field, not a TypeError from a comparison."""
        plan = FaultPlan.from_dict({field: value})
        with pytest.raises(ConfigError, match=field):
            plan.validate(4)

    @pytest.mark.parametrize(
        "fault, fields",
        [
            ("crashes", {"rank": 1, "after": 3}),
            ("stalls", {"rank": 1, "secs": 0.5}),
            ("crashes", {"rank": "1"}),
            ("stalls", {"rank": 1, "seconds": "long"}),
        ],
    )
    def test_rejects_bad_fault_fields_by_name(self, fault, fields):
        bad = next(iter(set(fields) - {"rank"}), "rank")
        with pytest.raises(ConfigError, match=bad):
            FaultPlan.from_dict({fault: [fields]}).validate(4)

    @pytest.mark.parametrize(
        "field, value",
        [("recovery", "spill"), ("spill_dir", "spill"), ("corrupt_rate", 0.1)],
    )
    def test_rejects_removed_recovery_fields_by_name(self, field, value):
        """Recovery is the in-memory partner replica only, and a lost
        frame is a drop: a plan file naming another recovery mode or a
        corrupt rate fails loudly, by field name."""
        assert field not in FaultPlan.__dataclass_fields__
        assert field not in FaultPlan().to_dict()
        with pytest.raises(ConfigError, match=field):
            FaultPlan.from_dict({field: value})


class TestRoundTrip:
    PLAN = FaultPlan(
        seed=42,
        drop_rate=0.07,
        duplicate_rate=0.05,
        delay_rate=0.04,
        delay_events=5,
        max_drops_per_frame=3,
        crashes=(CrashFault(rank=2, after_events=11),),
        stalls=(StallFault(rank=1, after_events=4, seconds=0.25),),
        base_timeout_s=0.125,
        backoff=1.5,
        max_retries=8,
    )

    def test_json(self):
        assert FaultPlan.from_json(self.PLAN.to_json()) == self.PLAN

    def test_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(self.PLAN.to_json())
        assert FaultPlan.from_file(path) == self.PLAN

    def test_pickle(self):
        # The process engine ships the plan to spawned interpreters.
        assert pickle.loads(pickle.dumps(self.PLAN)) == self.PLAN

    def test_with_seed(self):
        reseeded = self.PLAN.with_seed(7)
        assert reseeded.seed == 7
        assert reseeded.drop_rate == self.PLAN.drop_rate


class TestDroppableTags:
    def test_control_and_recovery_tags_are_reliable(self):
        for tag in (
            Tags.WORKER_DONE,
            Tags.SHUTDOWN,
            Tags.REPLICA,
        ):
            assert tag not in DROPPABLE_TAGS

    def test_lookup_traffic_is_droppable(self):
        for tag in (
            Tags.KMER_REQUEST,
            Tags.TILE_REQUEST,
            Tags.COUNT_RESPONSE,
            Tags.UNIVERSAL_REQUEST,
        ):
            assert tag in DROPPABLE_TAGS
