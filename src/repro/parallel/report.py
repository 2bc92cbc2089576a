"""Machine-readable run reports.

``repro correct --report run.json`` (and
:func:`run_report`) serializes everything a run measured — per-rank reads,
corrections, lookups, traffic, memory, timings, plus the configuration
that produced them — so pipelines can archive and compare runs without
parsing console output.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.parallel.driver import ParallelRunResult
from repro.parallel.lookup.stack import TIER_NAMES, resolution_order
from repro.simmpi.instrument import (
    LOOKUP_TIER_COUNTER_KINDS,
    PREFETCH_COUNTERS,
    RESILIENCE_COUNTERS,
    SERVICE_COUNTERS,
    SESSION_COUNTERS,
)


def serving_summary(total) -> dict[str, float]:
    """``requests_served`` / ``serve_probes`` and their ratio, from a
    fleet-total :class:`~repro.simmpi.instrument.CommStats`."""
    served = total.get("requests_served")
    probes = total.get("serve_probes")
    return {
        "requests_served": served,
        "serve_probes": probes,
        "mean_batch": round(served / probes, 3) if probes else 0.0,
    }


def prefetch_summary(total) -> dict[str, float]:
    """The Step IV prefetch ledger in one row, from a fleet-total
    :class:`~repro.simmpi.instrument.CommStats`: bulk exchanges and
    their frames, what the tail replayed, and the share of corrector
    lookups no local tier could answer (see ``PREFETCH_COUNTERS``)."""
    hits = total.get("prefetch_kmer_hits") + total.get("prefetch_tile_hits")
    misses = total.get("prefetch_kmer_misses") + total.get(
        "prefetch_tile_misses"
    )
    return {
        "fetches": total.get("prefetch_fetches"),
        "messages": total.get("prefetch_messages"),
        "replans": total.get("prefetch_replans"),
        "tail_reads": total.get("prefetch_tail_reads"),
        "miss_fetches": total.get("prefetch_miss_fetches"),
        "miss_ratio": round(misses / (hits + misses), 6) if misses else 0.0,
        "cache_bytes": total.get("prefetch_cache_bytes"),
    }


def run_report(result: ParallelRunResult) -> dict[str, Any]:
    """A JSON-serializable summary of a distributed run."""
    heur = result.heuristics
    cfg = result.config
    per_rank = []
    for r, report in enumerate(result.reports):
        stats = result.stats[r]
        per_rank.append(
            {
                "rank": r,
                "reads": len(report.block),
                "errors_corrected": report.errors_corrected,
                "reads_reverted": report.reads_reverted,
                "tiles_examined": report.tiles_examined,
                "tiles_below_threshold": report.tiles_below_threshold,
                "table_sizes": dict(report.table_sizes),
                "memory": {
                    "after_construction": report.memory.after_construction,
                    "construction_peak": report.memory.construction_peak,
                    "after_correction": report.memory.after_correction,
                    "peak": report.memory.peak,
                },
                "timings_s": {
                    k: round(v, 6) for k, v in report.timings.items()
                },
                "messages_sent": stats.messages_sent,
                "bytes_sent": stats.bytes_sent,
                "counters": dict(stats.counters),
            }
        )
    total = result.stats[0].__class__()
    for s in result.stats:
        total.merge(s)
    return {
        "schema": "repro.run_report/1",
        "nranks": result.nranks,
        "config": {
            "kmer_length": cfg.kmer_length,
            "tile_overlap": cfg.tile_overlap,
            "kmer_threshold": cfg.kmer_threshold,
            "tile_threshold": cfg.tile_threshold,
            "quality_threshold": cfg.quality_threshold,
            "max_distance": cfg.max_distance,
            "ambiguity_ratio": cfg.ambiguity_ratio,
            "chunk_size": cfg.chunk_size,
            "count_reverse_complement": cfg.count_reverse_complement,
        },
        "heuristics": heur.describe(),
        "totals": {
            "reads": int(result.reads_per_rank().sum()),
            "errors_corrected": result.total_corrections,
            "messages": total.messages_sent,
            "bytes": total.bytes_sent,
            "remote_kmer_lookups": int(
                result.counter_per_rank("remote_kmer_lookups").sum()
            ),
            "remote_tile_lookups": int(
                result.counter_per_rank("remote_tile_lookups").sum()
            ),
            "remote_ids_deduped": int(
                result.counter_per_rank("remote_kmer_ids_deduped").sum()
                + result.counter_per_rank("remote_tile_ids_deduped").sum()
            ),
            "blocking_request_counts": total.get("blocking_request_counts"),
            "max_rank_memory_bytes": int(result.memory_per_rank().max()),
        },
        # Per-tier resolution ledger: the order each stack runs its
        # tiers in (derived from the heuristics and the world size,
        # identical on every rank) and requests/hits/misses/bytes summed over ranks for
        # every tier a stack can contain (zeros when the tier was
        # compiled out).  hits + misses == requests at every tier.
        "lookup": {
            "order": resolution_order(heur, result.nranks),
            "tiers": {
                tier: {
                    kind: total.get(f"lookup_{tier}_{kind}")
                    for kind in LOOKUP_TIER_COUNTER_KINDS
                }
                for tier in TIER_NAMES
            },
            # The serving side of the lookup rounds: count requests this
            # fleet answered and the shard probes that took — a serve
            # turn answers every queued request with one shard probe,
            # so the mean batch is requests per probe.
            "serving": serving_summary(total),
            # Calls into the count tables (tiers and serving shards
            # alike) and the ids they carried, summed over ranks; and
            # the dependent lookup rounds of the busiest rank (one
            # blocking request each).
            "probe_calls": total.get("table_probe_calls"),
            "probe_ids": total.get("table_probe_ids"),
            "lookup_rounds": int(
                result.counter_per_rank("blocking_request_counts").max()
            ),
        },
        # The Step IV prefetch ledger summed over ranks (all zero
        # without the prefetch heuristic); see PREFETCH_COUNTERS for
        # the glossary.
        "prefetch": {name: total.get(name) for name in PREFETCH_COUNTERS},
        # Correction-session ledger (construction happens inside a
        # session even for classic runs, so ingest/delta counters are
        # populated on every run): ingest rounds, DELTA exchange rounds
        # and foreign-destined delta bytes, serving-state recompiles —
        # summed over ranks.  See SESSION_COUNTERS for the glossary.
        "session": {name: total.get(name) for name in SESSION_COUNTERS},
        # Service front-end ledger (admissions, coalescing wins,
        # typed rejections, collective correct rounds) — all zero on
        # runs that never went through repro.service; see
        # SERVICE_COUNTERS for the glossary.
        "service": {name: total.get(name) for name in SERVICE_COUNTERS},
        # Fault-injection and recovery counters (all zero on a
        # fault-free run); see RESILIENCE_COUNTERS for the glossary.
        "resilience": {
            "crashed_ranks": list(result.crashed_ranks),
            **{name: total.get(name) for name in RESILIENCE_COUNTERS},
        },
        "per_rank": per_rank,
    }


def write_run_report(result: ParallelRunResult, path: str | os.PathLike) -> None:
    """Write :func:`run_report` as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(run_report(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
