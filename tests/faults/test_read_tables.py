"""Frame faults against the read-table heuristics (Step III + Step IV).

``read_kmers`` / ``read_tiles`` add a Step III exchange — every rank asks
the owners for the global counts of its reads' own k-mers and tiles —
and under a plan with frame faults that exchange must survive losses the
same way Step IV's lookups do.  Output identity with the serial
reference is the whole contract; the ledgers only prove the plan bit.
"""

import pytest

from repro.faults import FaultPlan
from repro.parallel.heuristics import HeuristicConfig

from tests.faults.conftest import assert_identical, run_plan, totals

PLAN = FaultPlan(
    seed=20,
    drop_rate=0.06,
    duplicate_rate=0.03,
    delay_rate=0.03,
    max_drops_per_frame=2,
    base_timeout_s=0.05,
    max_retries=8,
)


@pytest.mark.parametrize("prefetch", [False, True], ids=["blocking", "prefetch"])
def test_read_tables_survive_frame_faults(scale, serial_reference, prefetch):
    result = run_plan(
        scale,
        PLAN,
        nranks=4,
        heuristics=HeuristicConfig(
            read_kmers=True, read_tiles=True, prefetch=prefetch
        ),
    )
    assert_identical(result, serial_reference, scale)
    total = totals(result)
    assert total.get("frames_dropped") > 0
    assert total.get("lookup_retries") > 0
    # The heuristic did its job: the reads' own windows resolved from
    # the fetched tables, not over the wire.
    assert total.get("reads_table_kmer_hits") > 0
    assert total.get("reads_table_tile_hits") > 0
