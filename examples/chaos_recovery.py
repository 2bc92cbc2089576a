#!/usr/bin/env python
"""Chaos recovery: correct reads while the runtime drops frames and
kills a rank — and still produce the exact fault-free output.

Arms a seeded :class:`FaultPlan` that loses 6% of Step IV's lookup
frames (at most twice per frame, so retries always converge) and kills
rank 2 after its fourth correction-phase send.  The doomed rank's
spectrum shard and read partition are replicated to its recovery
partner up front (ReStore-style); lookups run a timeout/retry protocol;
the partner re-owns and replays the dead rank's reads.  The merged
corrected output is asserted bit-identical to a fault-free run.

Run:  python examples/chaos_recovery.py
"""

import numpy as np

from repro import (
    ECOLI,
    CrashFault,
    FaultPlan,
    HeuristicConfig,
    ParallelReptile,
    ReptileConfig,
    derive_thresholds,
)
from repro.simmpi.instrument import total_stats


def main() -> None:
    dataset = ECOLI.scaled(genome_size=6_000, seed=7)
    kt, tt = derive_thresholds(
        coverage=dataset.coverage, read_length=ECOLI.read_length,
        k=12, tile_length=20, tile_step=8,
    )
    config = ReptileConfig(
        kmer_length=12, tile_overlap=4,
        kmer_threshold=kt, tile_threshold=tt, chunk_size=250,
    )

    # The fault-free run is the equivalence anchor.
    clean = ParallelReptile(config, HeuristicConfig(), nranks=4).run(
        dataset.block
    )

    # The same run under chaos (see docs/FAULTS.md for the plan schema;
    # the identical plan replays bit-for-bit on every engine).
    plan = FaultPlan(
        seed=1234,
        drop_rate=0.06,
        max_drops_per_frame=2,
        crashes=(CrashFault(rank=2, after_events=4),),
    )
    chaotic = ParallelReptile(
        config, HeuristicConfig(), nranks=4, faults=plan
    ).run(dataset.block)

    total = total_stats(chaotic.stats)
    print(f"crashed ranks:     {chaotic.crashed_ranks}")
    print(f"frames dropped:    {total.get('frames_dropped')}")
    print(f"lookup retries:    {total.get('lookup_retries')}")
    print(f"takeover reads:    {total.get('takeover_reads')} "
          f"(replayed by rank {FaultPlan.partner_of(2, 4)})")

    a, b = clean.corrected_block, chaotic.corrected_block
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.codes, b.codes)
    assert np.array_equal(a.lengths, b.lengths)
    print("\ncorrected output is bit-identical to the fault-free run")


if __name__ == "__main__":
    main()
