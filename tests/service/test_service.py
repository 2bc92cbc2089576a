"""Service-layer tests: the async multi-client front door.

The contract under test is the acceptance matrix of the service PR:
≥3 concurrent clients coalesce into shared collective rounds and still
receive bit-identical bytes to the one-shot driver, an over-quota
client gets a typed rejection without perturbing anyone else's output,
the queue exposes backpressure, and the ``service_*`` counters flow
into the run report.
"""

import asyncio

import numpy as np
import pytest

from repro.bench.harness import small_scale
from repro.errors import ServiceError, ServiceOverloadError
from repro.parallel.driver import ParallelReptile, ParallelSession
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.session import CorrectOp, IngestOp
from repro.service import ServiceExecutor, ServicePolicy, SpectrumService
from repro.simmpi.message import Tags


@pytest.fixture(scope="module")
def scale():
    return small_scale("E.Coli", genome_size=3_000, chunk_size=100)


@pytest.fixture(scope="module")
def classic_codes(scale):
    """The one-shot driver's output — the bit-identity anchor."""
    result = ParallelReptile(
        scale.config, HeuristicConfig(), nranks=4, engine="cooperative"
    ).run(scale.dataset.block)
    return result.corrected_block.codes


def client_batches(block, n):
    """Split a block into n contiguous client batches."""
    bounds = np.linspace(0, len(block), n + 1).astype(int)
    return [
        block.select(np.arange(bounds[i], bounds[i + 1]))
        for i in range(n)
    ]


def p2p_frames(run):
    """Point-to-point frames over all ranks (tags below the collective
    range): the lookup protocol and the service command/result relay."""
    return sum(
        n
        for s in run.stats
        for tag, n in s.messages_by_tag.items()
        if tag < Tags.COLLECTIVE_BASE
    )


def expected_codes(classic_codes, batch):
    """The classic run's rows for a batch (ids are 1-based and the
    classic corrected block is id-sorted)."""
    order = np.argsort(batch.ids, kind="stable")
    return classic_codes[batch.ids[order] - 1]


class TestCoalescedBitIdentity:
    """≥3 concurrent clients, one collective round, classic bytes."""

    @pytest.mark.parametrize("engine", ["threaded", "process"])
    def test_three_clients_coalesce_bit_identically(
        self, engine, scale, classic_codes
    ):
        block = scale.dataset.block
        batches = client_batches(block, 3)

        def run(coalesce):
            service = SpectrumService(
                scale.config, 4, heuristics=HeuristicConfig(), engine=engine
            )

            async def drive():
                async with service:
                    await service.ingest(block)
                    if coalesce:
                        return await asyncio.gather(*(
                            service.correct(b, client=f"client{i}")
                            for i, b in enumerate(batches)
                        ))
                    return [
                        await service.correct(b, client=f"client{i}")
                        for i, b in enumerate(batches)
                    ]

            return asyncio.run(drive()), service.result

        results, coalesced = run(coalesce=True)
        one_by_one, solo = run(coalesce=False)
        for batch, result, alone in zip(batches, results, one_by_one):
            np.testing.assert_array_equal(
                result.block.codes, expected_codes(classic_codes, batch)
            )
            np.testing.assert_array_equal(alone.block.ids, result.block.ids)
            np.testing.assert_array_equal(alone.block.codes, result.block.codes)
            np.testing.assert_array_equal(
                alone.corrections_per_read, result.corrections_per_read
            )
            assert np.all(np.diff(result.block.ids) > 0)
        # One shared round pays the relay, termination and gather once,
        # not once per client (ingest traffic is the same in both runs).
        assert p2p_frames(coalesced) < p2p_frames(solo)
        assert (solo.report.rounds, solo.report.coalesced) == (3, 0)
        # All three corrects piled up behind the drainer and ran as one
        # coalesced collective round.
        report = coalesced.report
        assert report.rounds == 1
        assert report.coalesced == 3
        assert report.submitted == 4  # the ingest + three corrects
        assert report.rejected == 0

    def test_solo_round_keeps_original_ids(self, scale, classic_codes):
        """A lone client's round is not renumbered: its rank reports and
        result ids match a direct session run."""
        block = scale.dataset.block
        service = SpectrumService(
            scale.config, 4, heuristics=HeuristicConfig(), engine="cooperative"
        )

        async def drive():
            async with service:
                await service.ingest(block)
                return await service.correct(block)

        result = asyncio.run(drive())
        np.testing.assert_array_equal(result.block.ids, block.ids)
        np.testing.assert_array_equal(result.block.codes, classic_codes)
        assert service.result.report.coalesced == 0


class TestAdmissionControl:
    """Typed rejection, per-client quotas, and backpressure signals."""

    def test_over_quota_client_rejected_without_perturbing_others(
        self, scale, classic_codes
    ):
        block = scale.dataset.block
        batches = client_batches(block, 3)
        service = SpectrumService(
            scale.config, 4, heuristics=HeuristicConfig(),
            policy=ServicePolicy(max_pending=64, max_pending_per_client=1),
        )

        async def drive():
            async with service:
                await service.ingest(block)
                tasks = [
                    asyncio.ensure_future(
                        service.correct(batches[0], client="greedy")
                    ),
                    asyncio.ensure_future(
                        service.correct(batches[1], client="greedy")
                    ),
                    asyncio.ensure_future(
                        service.correct(batches[2], client="patient")
                    ),
                ]
                return await asyncio.gather(*tasks, return_exceptions=True)

        ok0, refused, ok2 = asyncio.run(drive())
        assert isinstance(refused, ServiceOverloadError)
        assert refused.scope == "client"
        assert refused.client == "greedy"
        # The admitted jobs (one per client) are untouched by the refusal.
        np.testing.assert_array_equal(
            ok0.block.codes, expected_codes(classic_codes, batches[0])
        )
        np.testing.assert_array_equal(
            ok2.block.codes, expected_codes(classic_codes, batches[2])
        )
        assert service.result.report.rejected == 1

    def test_queue_bound_rejects_with_queue_scope(self, scale):
        block = scale.dataset.block
        batches = client_batches(block, 3)
        service = SpectrumService(
            scale.config, 4, heuristics=HeuristicConfig(),
            policy=ServicePolicy(max_pending=2, max_pending_per_client=8),
        )

        async def drive():
            async with service:
                await service.ingest(block)
                tasks = [
                    asyncio.ensure_future(
                        service.correct(b, client=f"client{i}")
                    )
                    for i, b in enumerate(batches)
                ]
                return await asyncio.gather(*tasks, return_exceptions=True)

        results = asyncio.run(drive())
        refused = [r for r in results if isinstance(r, Exception)]
        assert len(refused) == 1
        assert isinstance(refused[0], ServiceOverloadError)
        assert refused[0].scope == "queue"
        assert refused[0].limit == 2

    def test_backpressure_depth_and_pressure(self, scale):
        block = scale.dataset.block
        batches = client_batches(block, 2)
        service = SpectrumService(
            scale.config, 4, heuristics=HeuristicConfig(),
            policy=ServicePolicy(max_pending=4, max_pending_per_client=4),
        )
        observed = {}

        async def drive():
            async with service:
                await service.ingest(block)
                tasks = [
                    asyncio.ensure_future(
                        service.correct(b, client=f"client{i}")
                    )
                    for i, b in enumerate(batches)
                ]
                # One yield: the submissions land, the drainer has not
                # taken the round yet.
                await asyncio.sleep(0)
                observed["depth"] = service.depth
                observed["pressure"] = service.pressure
                await asyncio.gather(*tasks)
                observed["after"] = service.depth

        asyncio.run(drive())
        assert observed["depth"] == 2
        assert observed["pressure"] == pytest.approx(0.5)
        assert observed["after"] == 0


class TestAccountingAndLifecycle:
    """Counters flow into stats/run_report; context managers close."""

    def test_counters_fold_into_rank0_stats(self, scale):
        block = scale.dataset.block
        batches = client_batches(block, 2)
        service = SpectrumService(
            scale.config, 4, heuristics=HeuristicConfig()
        )

        async def drive():
            async with service:
                await service.ingest(block)
                await asyncio.gather(*(
                    service.correct(b, client=f"client{i}")
                    for i, b in enumerate(batches)
                ))

        asyncio.run(drive())
        stats = service.result.stats[0]
        assert stats.get("service_submitted") == 3
        assert stats.get("service_coalesced") == 2
        assert stats.get("service_rejected") == 0
        assert stats.get("service_rounds") == 1

    def test_service_section_in_run_report(self, scale):
        from repro.parallel.report import run_report

        block = scale.dataset.block
        out = ParallelSession(
            scale.config, HeuristicConfig(), nranks=4
        ).run([IngestOp(block), CorrectOp(block)])
        report = run_report(out.result_for(0))
        assert report["service"] == {
            "service_submitted": 2,
            "service_coalesced": 0,
            "service_rejected": 0,
            "service_rounds": 1,
        }

    def test_async_context_manager_closes(self, scale):
        service = SpectrumService(
            scale.config, 4, heuristics=HeuristicConfig()
        )

        async def drive():
            async with service:
                await service.ingest(scale.dataset.block)

        asyncio.run(drive())
        assert not service.is_open
        assert service.result is not None
        assert service.result.report.submitted == 1

        async def submit_after_close():
            await service.correct(scale.dataset.block)

        with pytest.raises(ServiceError):
            asyncio.run(submit_after_close())

    def test_checkpoint_resume_through_service(self, scale, tmp_path,
                                               classic_codes):
        block = scale.dataset.block
        directory = str(tmp_path / "bundle")

        async def build():
            async with SpectrumService(
                scale.config, 4, heuristics=HeuristicConfig()
            ) as service:
                await service.ingest(block)
                await service.checkpoint(directory)

        asyncio.run(build())

        async def resume():
            async with SpectrumService(
                scale.config, 4, heuristics=HeuristicConfig(),
                resume_dir=directory,
            ) as service:
                return await service.correct(block)

        result = asyncio.run(resume())
        np.testing.assert_array_equal(result.block.codes, classic_codes)

    def test_answer_to_another_command_is_a_protocol_error(self, scale):
        """Commands are answered in order and awaited one at a time, so
        an answer carrying another sequence number is never stashed: it
        is a typed protocol error."""
        executor = ServiceExecutor(scale.config, HeuristicConfig(), 4)
        try:
            executor.channel.post_result((7, None))
            with pytest.raises(ServiceError, match="command 1, got 7"):
                executor.await_result(executor.ingest(scale.dataset.block))
        finally:
            executor.shutdown()
