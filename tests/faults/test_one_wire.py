"""One Step IV wire under every plan.

A fault plan changes the retry policy, never a frame: the chaos runs
send the same request tags as the same run without a plan — base mode
its per-kind ``KMER_REQUEST`` / ``TILE_REQUEST`` frames, universal mode
``UNIVERSAL_REQUEST`` — and every answer is a ``COUNT_RESPONSE``.  A
prefetch plan runs the same blocking rounds, served on the same path.
"""

import pytest

from repro.faults import CrashFault, FaultPlan
from repro.parallel.heuristics import HeuristicConfig
from repro.simmpi.message import Tags

from tests.faults.conftest import assert_identical, run_plan, totals

DROPS = FaultPlan(
    seed=3, drop_rate=0.05, max_drops_per_frame=2,
    base_timeout_s=0.05, max_retries=8,
)
CRASH = FaultPlan(seed=1, crashes=(CrashFault(rank=1, after_events=4),))


def step_iv_tags(result):
    """The correction-phase lookup tags the run sent (termination and
    replica transfers aside)."""
    sent = set().union(*(s.messages_by_tag for s in result.stats))
    return {t for t in sent if t < Tags.REPLICA} - {
        Tags.WORKER_DONE, Tags.SHUTDOWN,
    }


@pytest.mark.parametrize("plan", [DROPS, CRASH], ids=["drops", "crash"])
@pytest.mark.parametrize(
    "universal, requests",
    [
        (False, {Tags.KMER_REQUEST, Tags.TILE_REQUEST}),
        (True, {Tags.UNIVERSAL_REQUEST}),
    ],
    ids=["base", "universal"],
)
def test_a_plan_sends_the_fault_free_frames(
    scale, serial_reference, plan, universal, requests
):
    heuristics = HeuristicConfig(universal=universal)
    clean = run_plan(scale, None, heuristics=heuristics)
    chaos = run_plan(scale, plan, heuristics=heuristics)
    assert_identical(chaos, serial_reference, scale)
    assert step_iv_tags(clean) == requests | {Tags.COUNT_RESPONSE}
    assert step_iv_tags(chaos) == step_iv_tags(clean)


def test_prefetch_fetches_are_served_on_the_one_path(scale, serial_reference):
    """A prefetch plan's lookups are the blocking rounds: every request
    frame is one the one serve path answers, at most one per kind per
    other owner per round, exactly as with prefetch off."""
    result = run_plan(scale, None, heuristics=HeuristicConfig(prefetch=True))
    plain = run_plan(scale, None, heuristics=HeuristicConfig())
    assert_identical(result, serial_reference, scale)
    total = totals(result)
    requests = sum(
        total.messages_by_tag.get(tag, 0)
        for tag in (Tags.KMER_REQUEST, Tags.TILE_REQUEST)
    )
    rounds = total.get("blocking_request_counts")
    assert 0 < total.get("requests_served") == requests
    assert requests <= 2 * (result.nranks - 1) * rounds
    assert total.get("requests_served") == totals(plain).get("requests_served")
    assert rounds == totals(plain).get("blocking_request_counts")
    assert step_iv_tags(result) == {
        Tags.KMER_REQUEST, Tags.TILE_REQUEST, Tags.COUNT_RESPONSE,
    }
