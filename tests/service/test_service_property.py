"""Property: interleaving never changes a client's bytes.

N clients submitting batches through the service concurrently — in any
interleaving, coalesced or not — receive corrected reads bit-identical
to the same batches submitted sequentially, one solo round per batch.
Corrected codes depend only on read content and the served spectrum,
never on batch boundaries, round composition, or renumbered ids; this
is the invariant that makes coalescing legal at all, so it is pinned
here on the real engines (threaded + process) under partial
replication with ``prefetch=True`` (the blocking lookahead, as the
``static_prefetch_p8`` benchmark row runs it).
"""

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.harness import small_scale
from repro.parallel.heuristics import HeuristicConfig
from repro.service import ServicePolicy, SpectrumService

HEUR = HeuristicConfig(prefetch=True, replication_group=2)

#: Generous admissions: the property is about ordering, not rejection.
POLICY = ServicePolicy(max_pending=64, max_pending_per_client=64)


@pytest.fixture(scope="module")
def scale():
    return small_scale("E.Coli", genome_size=3_000, chunk_size=100)


def split_batches(block, boundaries):
    """Cut the block into one batch per adjacent boundary pair."""
    edges = [0, *sorted(boundaries), len(block)]
    return [
        block.select(np.arange(lo, hi))
        for lo, hi in zip(edges, edges[1:])
        if hi > lo
    ]


def run_service(scale, engine, submissions, *, interleaved):
    """Run the (client, batch) submissions; return results in order.

    ``interleaved=True`` submits everything concurrently (the drainer
    coalesces whatever piles up); ``False`` awaits each batch before
    submitting the next, forcing one solo round per batch.
    """
    service = SpectrumService(
        scale.config, 4, heuristics=HEUR, engine=engine, policy=POLICY
    )

    async def drive():
        async with service:
            await service.ingest(scale.dataset.block)
            if interleaved:
                return await asyncio.gather(*(
                    service.correct(batch, client=client)
                    for client, batch in submissions
                ))
            return [
                await service.correct(batch, client=client)
                for client, batch in submissions
            ]

    results = asyncio.run(drive())
    return results, service.result.report


@pytest.mark.parametrize("engine", ["threaded", "process"])
@settings(
    max_examples=3, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_interleaved_matches_sequential_per_client(engine, scale, data):
    block = scale.dataset.block
    n_clients = data.draw(st.integers(2, 3), label="n_clients")
    boundaries = data.draw(
        st.lists(
            st.integers(1, len(block) - 1),
            min_size=n_clients - 1, max_size=n_clients + 1, unique=True,
        ),
        label="boundaries",
    )
    batches = split_batches(block, boundaries)
    # Deal the batches to clients round-robin, then submit them in a
    # drawn interleaving order.
    submissions = [
        (f"client{i % n_clients}", batch) for i, batch in enumerate(batches)
    ]
    order = data.draw(st.permutations(range(len(submissions))),
                      label="order")
    interleaved_subs = [submissions[i] for i in order]

    got, report = run_service(
        scale, engine, interleaved_subs, interleaved=True
    )
    want, sequential_report = run_service(
        scale, engine, submissions, interleaved=False
    )
    assert sequential_report.coalesced == 0

    by_key = {
        (client, int(batch.ids[0])): result
        for (client, batch), result in zip(interleaved_subs, got)
    }
    for (client, batch), expected in zip(submissions, want):
        result = by_key[(client, int(batch.ids[0]))]
        np.testing.assert_array_equal(
            result.block.ids, expected.block.ids
        )
        np.testing.assert_array_equal(
            result.block.codes, expected.block.codes
        )
        np.testing.assert_array_equal(
            result.block.quals, expected.block.quals
        )
        np.testing.assert_array_equal(
            result.corrections_per_read, expected.corrections_per_read
        )
        np.testing.assert_array_equal(
            result.reads_reverted, expected.reads_reverted
        )
