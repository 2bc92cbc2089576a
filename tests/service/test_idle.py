"""An idle fleet keeps serving past its engine's receive timeout.

The peers wait for the next command in an ordinary receive while rank 0
waits on the channel, outside the engine.  Rank 0 therefore relays a
no-op before half the receive timeout runs out, so a quiet spell never
turns into a :class:`~repro.errors.DeadlockError` on the next job.
"""

import asyncio

import numpy as np
import pytest

from repro.bench.harness import small_scale
from repro.core.corrector import ReptileCorrector
from repro.core.spectrum import LocalSpectrumView, build_spectra
from repro.service import SpectrumService
from repro.simmpi import ProcessEngine, ThreadedEngine


@pytest.fixture(scope="module")
def scale():
    return small_scale("E.Coli", genome_size=3_000, chunk_size=100)


@pytest.mark.parametrize(
    "make_engine, idle_s",
    [(lambda: ThreadedEngine(timeout=1.0), 2.5),
     (lambda: ProcessEngine(timeout=2.0), 4.0)],
    ids=["threaded", "process"],
)
def test_a_fleet_idle_past_its_receive_timeout_still_serves(
    make_engine, idle_s, scale
):
    block = scale.dataset.block
    first = block.select(np.arange(0, 40))
    second = block.select(np.arange(100, 140))
    service = SpectrumService(scale.config, 2, engine=make_engine())

    async def drive():
        await service.ingest(block)
        await service.correct(first)
        await asyncio.sleep(idle_s)
        result = await service.correct(second)
        return result, await service.close()

    result, record = asyncio.run(drive())
    view = LocalSpectrumView(build_spectra(block, scale.config))
    serial = ReptileCorrector(scale.config, view).correct_block(second)
    np.testing.assert_array_equal(result.block.ids, second.ids)
    np.testing.assert_array_equal(result.block.codes, serial.block.codes)
    assert record is not None and record.report.rounds == 2
    assert record.crashed_ranks == ()
