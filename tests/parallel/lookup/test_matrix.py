"""The lookup matrix: real engines × tier-stack configurations.

This module drives the two engines that use genuinely concurrent transports (threads and OS
processes) through stacks with a replication-group tier compiled in,
with and without the chunk-cache tier (prefetch), and pins the corrected
output bit for bit to the serial reference — the acceptance bar of the
tier-stack refactor.
"""

import numpy as np
import pytest

from repro.bench.harness import small_scale
from repro.core.corrector import ReptileCorrector
from repro.core.spectrum import LocalSpectrumView, build_spectra
from repro.parallel import HeuristicConfig, ParallelReptile
from repro.parallel.lookup.stack import TIER_NAMES


@pytest.fixture(scope="module")
def scale():
    return small_scale("E.Coli", genome_size=4_000, chunk_size=100)


@pytest.fixture(scope="module")
def serial_reference(scale):
    block, cfg = scale.dataset.block, scale.config
    spectra = build_spectra(block, cfg)
    return ReptileCorrector(cfg, LocalSpectrumView(spectra)).correct_block(block)


class TestLookupMatrix:
    @pytest.mark.parametrize("engine", ["threaded", "process"])
    @pytest.mark.parametrize(
        "heuristics",
        [
            HeuristicConfig(replication_group=2),
            HeuristicConfig(prefetch=True, replication_group=2),
        ],
        ids=["group", "prefetch+group"],
    )
    def test_bit_identical_across_engines(
        self, scale, serial_reference, engine, heuristics
    ):
        result = ParallelReptile(
            scale.config, heuristics, nranks=4, engine=engine
        ).run(scale.dataset.block)
        block = result.corrected_block
        assert np.array_equal(block.codes, serial_reference.block.codes)
        assert np.array_equal(block.lengths, serial_reference.block.lengths)

        total = result.stats[0].__class__()
        for s in result.stats:
            total.merge(s)
        # The group tier must actually be in the path, and the per-tier
        # ledger must balance everywhere.
        assert total.get("lookup_group_requests") > 0
        for tier in TIER_NAMES:
            assert total.get(f"lookup_{tier}_hits") + total.get(
                f"lookup_{tier}_misses"
            ) == total.get(f"lookup_{tier}_requests")
        if heuristics.use_prefetch:
            assert total.get("blocking_request_counts") == 0
            assert total.get("lookup_chunk_cache_hits") > 0
