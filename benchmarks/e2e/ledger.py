"""Per-layer metrics read off public result fields and recorded spans.

*Ledger* metrics come from what the program already reports about
itself — ``CommStats`` counters, ``RankReport.timings``, memory reports,
``ServiceReport`` — folded the way the paper's figures fold them: max
over ranks for phase times, sum over ranks for counts, max/mean for
imbalance.  On the cooperative engine a rank's phase timer keeps running
while other ranks hold the CPU, so a phase's max over ranks is the
phase's wall-clock for the whole fleet.
"""

from __future__ import annotations

import statistics

from repro.service.program import SERVICE_CMD_TAG, SERVICE_RESULT_TAG
from repro.simmpi.engine import SpmdResult
from repro.simmpi.instrument import CommStats

from benchmarks.e2e.trace import SpanRecorder


def total_stats(stats: list[CommStats]) -> CommStats:
    """All ranks' ledgers folded into one."""
    return SpmdResult(results=[], stats=stats).total_stats()


def _imbalance(per_rank: list[int]) -> float:
    mean = sum(per_rank) / len(per_rank)
    return max(per_rank) / mean if mean else 0.0


def parallel_metrics(outcome) -> dict[str, float]:
    """The ``parallel.*`` family of one distributed outcome (static run
    or service session: both report per-rank timings, memory, reads)."""
    detail = outcome.detail
    if hasattr(detail, "reports"):  # ParallelRunResult
        reports = detail.reports
        reads = [len(r.block) for r in reports]
        corrections = [r.errors_corrected for r in reports]
    else:  # ServiceRunResult: per-rank session reports, several corrects
        reports = detail.rank_reports
        reads = [sum(len(b) for b in r.correct_blocks) for r in reports]
        corrections = [
            int(sum(c.sum() for c in r.correct_corrections)) for r in reports
        ]
    total = total_stats(detail.stats)
    get = total.get

    def phase(*names: str) -> float:
        return max(
            sum(r.timings.get(name, 0.0) for name in names) for r in reports
        )

    requests = get("kmer_lookups") + get("tile_lookups")
    remote_hits = get("lookup_remote_hits")
    hits = get("prefetch_kmer_hits") + get("prefetch_tile_hits")
    misses = get("prefetch_kmer_misses") + get("prefetch_tile_misses")
    out = {
        "read_input_s": phase("read_input"),
        "load_balance_s": phase("load_balance"),
        "construction_s": phase("kmer_construction"),
        "correction_s": phase("error_correction"),
        "comm_s": phase("comm_kmer", "comm_tile", "comm_prefetch"),
        "redistributed_reads": get("reads_received_in_balance"),
        "reads_imbalance": _imbalance(reads),
        "corrections_imbalance": _imbalance(corrections),
        "table_bytes_max": max(r.memory.peak for r in reports),
        "lookup.requests": requests,
        "lookup.owned_hits": get("lookup_owned_hits"),
        "lookup.group_hits": get("lookup_group_hits"),
        "lookup.chunk_cache_hits": get("lookup_chunk_cache_hits"),
        "lookup.remote_hits": remote_hits,
        "lookup.local_ratio": 1 - remote_hits / requests if requests else 0.0,
        "blocking_requests": get("blocking_request_counts"),
        "requests_served": get("requests_served"),
        "remote_ids": get("remote_kmer_lookups") + get("remote_tile_lookups"),
        "remote_ids_deduped": (
            get("remote_kmer_ids_deduped") + get("remote_tile_ids_deduped")
        ),
        "prefetch.fetches": get("prefetch_fetches"),
        "prefetch.messages": get("prefetch_messages"),
        "prefetch.replans": get("prefetch_replans"),
        "prefetch.ids_fetched": (
            get("prefetch_kmer_ids_fetched") + get("prefetch_tile_ids_fetched")
        ),
        "prefetch.miss_ratio": misses / (hits + misses) if hits + misses else 0.0,
        "session.delta_bytes": get("session_delta_bytes"),
        "session.delta_exchanges": get("session_delta_exchanges"),
        "session.recompiles": get("session_recompiles"),
    }
    return {f"parallel.{name}": value for name, value in out.items()}


def service_metrics(outcome, recorder: SpanRecorder) -> dict[str, float]:
    """The ``service.*`` family: spans around each awaited verb plus the
    ``ServiceReport`` and the command/result relay tags of the ledger."""
    run = outcome.detail
    total = total_stats(run.stats)
    report = run.report
    correct_reads = sum(r.submitted for r in outcome.returned)
    return {
        "service.open_s": sum(recorder.seconds("service.open")),
        "service.close_s": sum(recorder.seconds("service.close")),
        "service.ingest_job_s": statistics.median(
            recorder.seconds("service.job.ingest")
        ),
        "service.correct_job_s": statistics.median(
            recorder.seconds("service.job.correct")
        ),
        "service.rounds": report.rounds,
        "service.coalesced": report.coalesced,
        "service.submitted": report.submitted,
        "service.rejected": report.rejected,
        "service.reads_per_round": (
            correct_reads / report.rounds if report.rounds else 0.0
        ),
        "service.cmd_frames": total.messages_by_tag.get(SERVICE_CMD_TAG, 0),
        "service.cmd_bytes": total.bytes_by_tag.get(SERVICE_CMD_TAG, 0),
        "service.result_bytes": total.bytes_by_tag.get(SERVICE_RESULT_TAG, 0),
    }


def core_sample(recorder: SpanRecorder, view, result) -> dict[str, float]:
    """The ``core.*`` family of one traced serial run (the runner takes
    the median over runs; the counts repeat exactly)."""
    build = sum(recorder.seconds("core.build_spectra"))
    correct = sum(recorder.seconds("core.correct_block"))
    return {
        "core.build_spectra_s": build,
        "core.correct_block_s": correct,
        "core.view_s": view.seconds,
        "core.correct_self_s": correct - view.seconds,
        "core.view_calls": view.calls,
        "core.view_ids": view.ids,
        "core.tiles_examined": int(result.tiles_examined),
        "core.serial_total_s": build + correct,
    }
