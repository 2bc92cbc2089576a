"""The benchmark's declared names: workloads, end-to-end and per-layer metrics.

This module is the single source the runner, ``compare.py``, the
contract test and the root ``BENCHMARK.json`` agree on
(:func:`benchmark_json` renders the file; the test pins the committed
copy to it).  It defines names only — values come from ``run.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: One measured run lasts this long (the driver passes it as --seconds).
RUN_SECONDS = 18

COMMAND = ("python3", "benchmarks/e2e/run.py")
PATHS = ("benchmarks/e2e",)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = (
    Workload(
        "serial_ecoli",
        "plain single-process correct_reads: kmer, hashing and core do all "
        "the work (build ~3/4), simmpi/parallel/service none; the base of "
        "every distributed/serial ratio",
    ),
    Workload(
        "files_msg_p8",
        "the paper's pipeline as `repro correct` runs it: Step-I file input "
        "and one request/response per lookup batch, so io and per-message "
        "costs dominate and the planner is compiled out",
    ),
    Workload(
        "static_prefetch_p8",
        "the same lookups through bulk prefetch + group-of-2 replication on "
        "bursty errors: ~8x fewer frames, so per-byte costs, planner and "
        "replans dominate; in-memory input bypasses io",
    ),
    Workload(
        "service_mixed_p8",
        "resident spectrum: 4 closed-loop clients, 56 correct jobs in 20 "
        "coalesced and solo rounds with an ingest between the two phases, "
        "so the write path runs beside the read path",
    ),
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    #: Repeats exactly for one seed (compare.py then demands equality).
    exact: bool
    definition: str


#: Bounds.  The runner pins itself to one CPU and reports timings in
#: reference-host seconds (hostspeed.py); over two sets of ten runs of
#: each workload (seeds 1-10, 11-20) every timing then spread by 2.4-7.7 %
#: (one 12.8 %, job_latency_p50_s) and no median moved by more than
#: 6.4 % between the sets — against 9-18 % and 30-40 % for raw unpinned
#: seconds.  A third of the bound should exceed the spread, hence 25 %.
#: The counts are exact for one seed but step between seeds (hash tables
#: have power-of-two capacities), which is what their bounds cover.
END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25, False,
        "first line of run.py -> ready to time: imports, input generation "
        "(+ input files), one warm-up iteration; median of 3 fresh "
        "processes; reference-host seconds like every timing here",
    ),
    EndToEnd(
        "wall_s", "s", "lower", 0.25, False,
        "median iteration wall-clock over the host factor",
    ),
    EndToEnd(
        "cpu_user_s", "s", "lower", 0.25, False,
        "median process user-CPU per iteration over the host factor",
    ),
    EndToEnd(
        "reads_per_s", "reads/s", "higher", 0.25, False,
        "reads corrected per iteration / wall_s",
    ),
    EndToEnd(
        "job_latency_p50_s", "s", "lower", 0.25, False,
        "median submit->reply time of a correct job, pooled over "
        "iterations; on the batch workloads the job is the iteration",
    ),
    EndToEnd(
        "peak_rank_table_bytes", "B", "lower", 0.25, True,
        "max over ranks of the reported table-memory peak (the paper's "
        "footprint metric; SpectrumPair.nbytes on serial)",
    ),
    EndToEnd(
        "peak_rss_mib", "MiB", "lower", 0.20, False,
        "ru_maxrss of the workload's process after the timed iterations",
    ),
    EndToEnd(
        "accuracy_gain", "ratio", "higher", 0.10, True,
        "(TP - FP) / injected errors over the reads the workload corrected",
    ),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    #: probe | span | ledger | harness (see README, "Per-layer sources").
    source: str
    exact: bool


def _layer(layer: str, source: str, rows: str) -> tuple[PerLayer, ...]:
    """Rows are ``name unit[ +][ =]`` — ``+`` higher-is-better, ``=`` exact."""
    out = []
    for row in rows.strip().splitlines():
        name, unit, *flags = row.split()
        out.append(PerLayer(
            name=name if layer == "e2e" else f"{layer}.{name}",
            unit=unit,
            better="higher" if "+" in flags else "lower",
            layer=layer,
            source=source,
            exact="=" in flags,
        ))
    return tuple(out)


PER_LAYER = (
    # End-to-end counts the contract cannot carry as end_to_end metrics
    # (they are 0 on some workload); measured on the untraced iterations.
    *_layer("e2e", "ledger", """
        messages frames =
        wire_bytes_per_base ratio =
        failed_share ratio =
    """),
    *_layer("kmer", "probe", """
        pack_s s
        window_ids_s s
        window_ids count =
    """),
    *_layer("hashing", "probe", """
        build_s s
        build_keys count =
        build_distinct count =
        probe_s s
        probe_keys count =
        probe_calls count =
        probe_hit_ratio ratio + =
        table_bytes B =
        owner_s s
    """),
    *_layer("io", "probe", """
        write_s s
        load_s s
        file_bytes B =
    """),
    *_layer("core", "span", """
        build_spectra_s s
        correct_block_s s
        view_s s
        correct_self_s s
        view_calls count =
        view_ids count =
        tiles_examined count =
        serial_total_s s
    """),
    *_layer("simmpi", "span", """
        frames frames =
        frame_bytes B =
        p2p_frames frames =
        p2p_bytes B =
        collective_frames frames =
        collective_bytes B =
        wire.encode_s s
        wire.decode_s s
        deposit_s s
        wait_s s
        wait_calls count =
        probe_s s
        probe_calls count =
        rank_busy_max_s s
        rank_busy_mean_s s
        sched_s s
        coll.alltoallv_s s
        coll.barrier_s s
    """),
    *_layer("parallel", "ledger", """
        read_input_s s
        load_balance_s s
        construction_s s
        correction_s s
        comm_s s
        merge_s s
        redistributed_reads reads =
        reads_imbalance ratio =
        corrections_imbalance ratio =
        table_bytes_max B =
        lookup.requests count =
        lookup.owned_hits count =
        lookup.group_hits count =
        lookup.chunk_cache_hits count =
        lookup.remote_hits count =
        lookup.local_ratio ratio + =
        blocking_requests count =
        requests_served count =
        remote_ids count =
        remote_ids_deduped count =
        prefetch.fetches count =
        prefetch.messages frames =
        prefetch.replans count =
        prefetch.ids_fetched count =
        prefetch.miss_ratio ratio =
        session.delta_bytes B =
        session.delta_exchanges count =
        session.recompiles count =
    """),
    *_layer("service", "span", """
        open_s s
        close_s s
        ingest_job_s s
        correct_job_s s
        job_latency_p95_s s
        round_fixed_s s
        rounds count =
        coalesced count =
        submitted count =
        rejected count =
        reads_per_round reads + =
        cmd_frames frames =
        cmd_bytes B =
        result_bytes B =
    """),
    *_layer("bench", "harness", """
        samples count +
        job_samples count +
        wall_iqr_s s
        wall_tail_s s
        trace_overhead_ratio ratio
        host_speed ratio
    """),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNITS = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}
EXACT = frozenset(m.name for m in (*END_TO_END, *PER_LAYER) if m.exact)


def benchmark_json() -> dict:
    """The root ``BENCHMARK.json``, in the driver contract's schema."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
