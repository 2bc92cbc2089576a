"""One Step IV wire under every plan.

A fault plan changes the retry policy, never a frame: the chaos runs
send the same request tags as the same run without a plan — base mode
its per-kind ``KMER_REQUEST`` / ``TILE_REQUEST`` frames, universal mode
``UNIVERSAL_REQUEST`` — and every answer is a ``COUNT_RESPONSE``.  A
prefetch fetch is a round of the same protocol, served on the same path.
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
    """Every fetch frame is a count request the one serve path answers,
    and the corrector never waits on a blocking round."""
    result = run_plan(scale, None, heuristics=HeuristicConfig(prefetch=True))
    assert_identical(result, serial_reference, scale)
    total = totals(result)
    assert total.get("prefetch_messages") > 0
    assert total.get("requests_served") == total.get("prefetch_messages")
    assert total.get("blocking_request_counts") == 0
    assert step_iv_tags(result) == {Tags.UNIVERSAL_REQUEST, Tags.COUNT_RESPONSE}
