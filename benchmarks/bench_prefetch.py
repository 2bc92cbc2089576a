"""Step IV lookup aggregation: bulk prefetch vs per-lookup messaging.

Runs the same E.Coli-profile instance under four correction-phase modes —
base, universal, prefetch, prefetch+universal — and reports the paper's
aggregation argument as numbers: correction-phase messages, bytes, and
wall time, each normalized per corrected read.  Each side's frames must
sit exactly on its own ledger line — blocking: one request/response pair
per owner asked per lookup step of a rank's share (36 steps a rank,
whatever ``chunk_size``); prefetch: one pair per owner per bulk exchange
(two planned per chunk, plus the tail's) — and prefetch must send fewer,
never block inside ``correct_block``, and replay once per rank
(``replans <= nranks``), not once per chunk.

Also runnable standalone, emitting the ``repro.experiment/1`` JSON shape::

    PYTHONPATH=src python benchmarks/bench_prefetch.py --nranks 4 --out prefetch.json

With ``--engines-out`` the standalone run additionally times the same
prefetch workload on the threaded vs the process engine (frames over OS
pipes) at 8 ranks and exports that comparison as a second JSON exhibit.
"""

import time

import numpy as np
import pytest

from repro.bench.harness import ExperimentResult
from repro.parallel import HeuristicConfig, ParallelReptile

NRANKS = 8

#: Tags that constitute correction-phase traffic: count requests and
#: responses (per-kind and universal) plus the two prefetch bulk tags.
CORRECTION_TAGS = (1, 2, 3, 4, 7, 8)

MODES = [
    ("base", HeuristicConfig()),
    ("universal", HeuristicConfig(universal=True)),
    ("prefetch", HeuristicConfig(prefetch=True)),
    ("prefetch+universal", HeuristicConfig(prefetch=True, universal=True)),
]


def _measure(scale, heuristics, nranks, engine="cooperative"):
    start = time.perf_counter()
    result = ParallelReptile(
        scale.config, heuristics, nranks=nranks, engine=engine
    ).run(scale.dataset.block)
    wall = time.perf_counter() - start
    total = result.stats[0].__class__()
    for s in result.stats:
        total.merge(s)
    messages = sum(total.messages_by_tag.get(t, 0) for t in CORRECTION_TAGS)
    bytes_ = sum(total.bytes_by_tag.get(t, 0) for t in CORRECTION_TAGS)
    return result, total, messages, bytes_, wall


def _tier_hits(total) -> str:
    """Per-tier hit summary from the stack's ``lookup_*`` ledger, e.g.
    ``"chunk_cache:950/owned:210/remote:40"`` (tiers that saw no
    requests are omitted)."""
    from repro.parallel.lookup.stack import TIER_NAMES

    parts = [
        f"{tier}:{total.get(f'lookup_{tier}_hits')}"
        for tier in TIER_NAMES
        if total.get(f"lookup_{tier}_requests")
    ]
    return "/".join(parts)


def run_experiment(scale, nranks=NRANKS) -> ExperimentResult:
    """The exhibit: one row per mode, metrics per corrected read."""
    out = ExperimentResult(
        experiment="prefetch.aggregation",
        title=f"Step IV lookup aggregation at {nranks} ranks",
        columns=[
            "mode", "messages", "bytes", "wall_s",
            "msgs_per_read", "bytes_per_read", "wall_us_per_read",
            "blocking_lookups", "replans", "tail_reads", "miss_fetches",
            "corrections", "tier_hits",
        ],
    )
    n_reads = len(scale.dataset.block)
    baseline = None
    for name, heuristics in MODES:
        result, total, messages, bytes_, wall = _measure(
            scale, heuristics, nranks
        )
        out.add(
            name,
            messages,
            bytes_,
            round(wall, 3),
            round(messages / n_reads, 2),
            round(bytes_ / n_reads, 1),
            round(wall / n_reads * 1e6, 1),
            total.get("blocking_request_counts"),
            total.get("prefetch_replans"),
            total.get("prefetch_tail_reads"),
            total.get("prefetch_miss_fetches"),
            result.total_corrections,
            _tier_hits(total),
        )
        if baseline is None:
            baseline = (messages, result.total_corrections)
        else:
            # Every mode is an execution strategy, not an algorithm change.
            assert result.total_corrections == baseline[1]
        if heuristics.use_prefetch:
            assert total.get("blocking_request_counts") == 0
            assert messages == 2 * total.get("prefetch_messages")
            assert messages < baseline[0]
            # One tail per rank (its reads fit one chunk-sized piece
            # here): a slide back to per-chunk replay multiplies this.
            assert total.get("prefetch_replans") <= nranks
        else:
            served = total.get("requests_served")
            assert messages == 2 * served
            assert served <= (nranks - 1) * total.get("blocking_request_counts")
    out.note(
        "correction-phase traffic only (count + prefetch tags "
        f"{CORRECTION_TAGS}); cooperative engine, {n_reads} reads"
    )
    return out


def run_engine_comparison(scale, nranks=NRANKS) -> ExperimentResult:
    """Wall time of the same prefetch run, threaded vs process engine.

    The frames are identical either way — shared-memory decode-on-enqueue
    vs bytes over OS pipes — so the message/byte ledgers must match
    exactly; only the wall clock (and the process engine's interpreter
    spawn cost) differs.
    """
    out = ExperimentResult(
        experiment="prefetch.engines",
        title=f"Threaded vs process engine at {nranks} ranks, prefetch on",
        columns=[
            "engine", "wall_s", "wall_us_per_read",
            "messages", "bytes", "corrections",
        ],
    )
    n_reads = len(scale.dataset.block)
    ledger = None
    for engine in ("threaded", "process"):
        result, _total, messages, bytes_, wall = _measure(
            scale, HeuristicConfig(prefetch=True), nranks, engine=engine
        )
        out.add(
            engine,
            round(wall, 3),
            round(wall / n_reads * 1e6, 1),
            messages,
            bytes_,
            result.total_corrections,
        )
        if ledger is None:
            ledger = (messages, bytes_, result.total_corrections)
        else:
            # Engines are transports, not algorithms: same frames, same
            # exact byte accounting, same corrections.
            assert (messages, bytes_, result.total_corrections) == ledger
    out.note(
        "identical encoded frames on both engines; process-engine wall "
        "time includes spawning one interpreter per rank"
    )
    return out


@pytest.fixture(scope="module")
def exhibit(ecoli_scale):
    return run_experiment(ecoli_scale)


def test_prefetch_aggregation(benchmark, exhibit, capsys):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    with capsys.disabled():
        print(f"\n{exhibit}")
    by_mode = {row[0]: row for row in exhibit.rows}
    # Fewer correction-phase messages than base (run_experiment pins
    # each side's exact line), and no blocking lookups at all once
    # prefetch is on.
    assert by_mode["prefetch"][1] < by_mode["base"][1]
    assert by_mode["prefetch"][7] == 0
    assert by_mode["prefetch+universal"][7] == 0


def main(argv=None) -> None:
    """Standalone entry point: run the exhibit and write it as JSON."""
    import argparse

    from repro.bench.export import write_json
    from repro.bench.harness import small_scale

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nranks", type=int, default=NRANKS)
    parser.add_argument("--genome-size", type=int, default=10_000)
    parser.add_argument("--out", default="bench_prefetch.json")
    parser.add_argument(
        "--engines-out",
        default=None,
        help="also export the threaded-vs-process wall-time comparison "
        f"(always at {NRANKS} ranks) to this JSON path",
    )
    args = parser.parse_args(argv)
    scale = small_scale(
        "E.Coli", genome_size=args.genome_size, chunk_size=250
    )
    result = run_experiment(scale, nranks=args.nranks)
    print(result)
    write_json(result, args.out)
    print(f"wrote {args.out}")
    if args.engines_out:
        engines = run_engine_comparison(scale, nranks=NRANKS)
        print(engines)
        write_json(engines, args.engines_out)
        print(f"wrote {args.engines_out}")


if __name__ == "__main__":
    main()
