"""Run the end-to-end benchmark: one workload (the driver's contract) or all.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--seed 7] [--trace 1] [--out FILE]

With ``--workload`` the process generates that workload's inputs from the
seed, warms up, measures for ``--seconds`` (never fewer than five
iterations), checks every corrected read against the oracle, prints each
metric by name with its unit and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
Without ``--workload`` it runs every workload that way, each in its own
subprocess (so RSS and warm caches do not leak between them), and
``--out`` collects the results in one file for ``compare.py``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the first line

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space for input/output files, inside the checkout.
WORK_ROOT = ROOT / ".bench_e2e"

MIN_ITERATIONS = 5
#: Fresh processes whose set-up time is sampled (this one included).
SETUP_SAMPLES = 3
#: Untraced/traced iteration pairs of a traced run: at least, at most.
TRACE_PAIRS = (3, 12)
#: Serial baseline repeats on the workloads that are not the serial one.
BASELINE_REPEATS = 3


def bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.e2e`` importable however we were
    started, or leave with a non-zero code where there is no program."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT}: no src/repro to measure beside the benchmark")
    # Started as a script, sys.path[0] is this directory, where trace.py
    # would shadow the standard library's module of that name.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run and replay probes (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="3 kb genome, one iteration: a smoke pass, numbers not comparable")
    parser.add_argument("--out", help="all workloads: write the results here")
    parser.add_argument("--trace-out", help="one workload, --trace 1: write the spans (JSONL) here")
    parser.add_argument("--detail-out", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def timed(workload, **trace):
    """One iteration: (wall seconds, user-CPU seconds, outcome)."""
    cpu = resource.getrusage(resource.RUSAGE_SELF).ru_utime
    start = time.perf_counter()
    outcome = workload.iterate(**trace)
    wall = time.perf_counter() - start
    cpu = resource.getrusage(resource.RUSAGE_SELF).ru_utime - cpu
    return wall, cpu, outcome


class Samples:
    """The timed iterations of one run; keeps one outcome per distinct
    ledger (normally exactly one — the runs are deterministic).

    Timings are stored divided by the iteration's host ``factor`` (see
    hostspeed.py): reference-host seconds on an end-to-end run, plain
    seconds (factor 1) on a traced one."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.latencies: list[float] = []
        #: Per iteration: the median latency of its jobs (the iteration's
        #: own wall where the iteration is the job).
        self.p50s: list[float] = []
        self.raw_walls: list[float] = []
        self.distinct: dict[str, list] = {}

    def add(self, wall, cpu, outcome, factor: float = 1.0) -> dict:
        self.raw_walls.append(wall)
        self.walls.append(wall / factor)
        self.cpus.append(cpu / factor)
        jobs = [seconds / factor for seconds in outcome.latencies]
        self.latencies.extend(jobs)
        self.p50s.append(statistics.median(jobs or [wall / factor]))
        ledger = outcome.ledger()
        entry = self.distinct.setdefault(json.dumps(ledger), [outcome, 0])
        entry[1] += 1
        return ledger

    @property
    def first(self):
        return next(iter(self.distinct.values()))[0]


def score(workload, samples: Samples):
    """Every distinct outcome against the three-level oracle."""
    from benchmarks.e2e import oracle

    expectations = workload.expectations()
    oracle.self_check(expectations[0])
    tally = oracle.Tally()
    for outcome, times in samples.distinct.values():
        one = oracle.Tally()
        for r in outcome.returned:
            one.check(expectations[r.phase], r.ids, r.codes, r.submitted)
        for reads, why in outcome.failures:
            one.job_failed(reads, why)
        tally.attempted += one.attempted * times
        tally.failed += one.failed * times
        tally.notes.extend(one.notes)
    if len(samples.distinct) > 1:
        tally.notes.append(
            f"{len(samples.distinct)} distinct ledgers across iterations"
        )
    return tally


def spread(values) -> float:
    """Interquartile distance as a share of the median (how far repeated
    measurements of one quantity scatter; compare.py calls a metric
    unresolved when this exceeds its bound)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def setup_in_fresh_process(args) -> float:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(
        command, capture_output=True, text=True, check=True, timeout=170
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def end_to_end_run(workload, args, setup_s: float, speed):
    """Untraced: time iterations for --seconds, then score them.  Each
    iteration is divided by the host factor read just before and after."""
    samples = Samples()
    start = time.perf_counter()
    before = speed.readings[-1]
    while len(samples.walls) < (1 if args.quick else MIN_ITERATIONS) or (
        not args.quick and time.perf_counter() - start < args.seconds
    ):
        wall, cpu, outcome = timed(workload)
        after = speed.read()
        samples.add(wall, cpu, outcome, factor=(before + after) / 2)
        before = after
    # Sampled before the oracle runs, so it is the workload's own peak.
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tally = score(workload, samples)
    setups = [setup_s] + [
        setup_in_fresh_process(args)
        for _ in range(0 if args.quick else SETUP_SAMPLES - 1)
    ]
    outcome = samples.first
    wall = statistics.median(samples.walls)
    jobs = samples.latencies or samples.walls
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cpu_user_s": statistics.median(samples.cpus),
        "reads_per_s": outcome.reads / wall,
        "job_latency_p50_s": statistics.median(jobs),
        "peak_rank_table_bytes": workload.peak_table_bytes(outcome),
        "peak_rss_mib": rss_kib / 1024,
        "accuracy_gain": workload.accuracy_gain(outcome),
    }
    timing_spread = spread(samples.walls)
    detail = {
        "iterations": len(samples.walls),
        "job_samples": len(samples.latencies),
        "setup_samples_s": setups,
        "host_speed": statistics.median(speed.readings),
        "raw_wall_s": statistics.median(samples.raw_walls),
        "spread": {
            "setup_s": spread(setups),
            "wall_s": timing_spread,
            "cpu_user_s": spread(samples.cpus),
            "reads_per_s": timing_spread,
            "job_latency_p50_s": spread(samples.p50s),
        },
    }
    return values, tally, detail


def traced_run(workload, args, speed):
    """Interleave untraced and traced iterations, check that tracing
    changed nothing, then split the time by layer: spans of the first
    traced iteration, the program's own ledgers, and replay probes.
    Per-layer timings are plain seconds of this host; ``bench.host_speed``
    is the factor that converts them to the end-to-end metrics' unit."""
    from benchmarks.e2e import ledger, probes
    from benchmarks.e2e.trace import SpanRecorder, assert_ledger_parity
    from benchmarks.e2e.workloads import NRANKS, traced_serial

    samples = Samples()
    traced_walls = []
    first = None  # (recorder, root, outcome) of the first traced iteration
    core_samples = []
    budget = 0.6 * args.seconds
    least, most = (1, 1) if args.quick else TRACE_PAIRS
    start = time.perf_counter()
    while len(traced_walls) < least or (
        len(traced_walls) < most and time.perf_counter() - start < budget
    ):
        speed.read()
        untraced = samples.add(*timed(workload))
        recorder = SpanRecorder()
        root = recorder.open("iteration", "bench", request=len(traced_walls))
        wall, _, outcome = timed(
            workload, recorder=recorder, root=root, capture=first is None
        )
        recorder.close(root)
        traced_walls.append(wall)
        assert_ledger_parity(untraced, outcome.ledger())
        if first is None:
            first = (recorder, root, outcome)
        if outcome.view is not None:  # the iteration is itself serial
            core_samples.append(
                ledger.core_sample(recorder, outcome.view, outcome.detail)
            )
    # The rest of the measuring time tops up the untraced sample.
    while not args.quick and time.perf_counter() - start < args.seconds:
        samples.add(*timed(workload))
    tally = score(workload, samples)
    recorder, root, outcome = first
    notes = tally.notes

    values: dict[str, float] = {
        "messages": outcome.messages,
        "wire_bytes_per_base": outcome.wire_bytes / outcome.bases,
        "failed_share": tally.failed_share,
    }
    layer_self = recorder.self_time_by_layer(root)
    accounted = sum(layer_self.values())
    whole = recorder.duration(root)
    if abs(accounted / whole - 1) > 0.01:
        notes.append(
            f"span self times sum to {accounted:.4f}s of a {whole:.4f}s iteration"
        )
    engine = outcome.engine
    if engine is not None:
        values.update(engine.metrics())
        if values["simmpi.sched_s"] < 0:
            notes.append("negative simmpi.sched_s: busy segments overlap")
        values.update(ledger.parallel_metrics(outcome))
        merges = recorder.seconds("parallel.merge")
        if merges:  # the service hands results back per job: no merge
            values["parallel.merge_s"] = sum(merges)
        values.update(probes.wire_probe(engine.frames))
        values.update(probes.collectives_probe(NRANKS))
    values.update(workload.layer_metrics(outcome, recorder, samples.latencies))

    # The serial baseline: the same reads in one process, which is both
    # the ratio base of the row and the source of the hashing probe's
    # id stream.  On the serial workload the traced iterations are it.
    block, spectrum_block = workload.serial_baseline()
    view, spectra = outcome.view, outcome.spectra
    if view is None:
        for repeat in range(1 if args.quick else BASELINE_REPEATS):
            base = SpanRecorder()
            result, base_view, base_spectra = traced_serial(
                block, spectrum_block, workload.config, base, None,
                record=repeat == 0,
            )
            core_samples.append(ledger.core_sample(base, base_view, result))
            if repeat == 0:
                view, spectra = base_view, base_spectra
    values.update({
        name: statistics.median(sample[name] for sample in core_samples)
        for name in core_samples[0]
    })
    values.update(probes.kmer_probe(block, workload.config))
    values.update(probes.hashing_probe(
        spectrum_block, workload.config, spectra, view.stream, NRANKS
    ))

    walls = sorted(samples.walls)
    values.update({
        "bench.samples": len(walls),
        "bench.job_samples": len(samples.latencies),
        "bench.wall_iqr_s": spread(walls) * statistics.median(walls),
        "bench.host_speed": statistics.median(speed.readings),
        # Each traced iteration against the untraced one right before it,
        # so that host-speed drift within the run cancels.
        "bench.trace_overhead_ratio": statistics.median(
            traced / untraced
            for traced, untraced in zip(traced_walls, samples.walls)
        ),
    })
    if len(walls) >= 20:
        # The highest percentile that still has ten samples beyond it.
        values["bench.wall_tail_s"] = walls[-11]
    if args.trace_out:
        recorder.write_jsonl(args.trace_out)
    return values, tally, {
        "accounted_s": accounted,
        "iteration_s": whole,
        "layer_self_s": layer_self,
    }


def run_one(args) -> int:
    from benchmarks.e2e import hostspeed, metrics
    from benchmarks.e2e.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    hostspeed.pin_to_one_cpu()
    speed = hostspeed.HostSpeed()
    start = time.perf_counter()
    early = speed.read()
    reading_s = time.perf_counter() - start
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, quick=args.quick)
        workload.prepare()
        workload.iterate()  # warm-up: lazy imports, caches, first-touch pages
        # Set-up in reference-host seconds: the host factor is read when
        # the imports are done and again now (the first reading's own time
        # is not set-up).
        setup_s = time.perf_counter() - _T0 - reading_s
        setup_s /= (early + speed.read()) / 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            values, tally, detail = traced_run(workload, args, speed)
            names = metrics.PER_LAYER_NAMES
        else:
            values, tally, detail = end_to_end_run(workload, args, setup_s, speed)
            names = metrics.END_TO_END_NAMES
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unknown = set(values) - set(names)
    if unknown:
        raise SystemExit(f"undeclared metrics measured: {sorted(unknown)}")
    print(f"== {args.workload} (seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}) ==")
    for name in names:
        shown = f"{values[name]:.6g}" if name in values else "-"
        print(f"{name:34s} {shown:>14s} {metrics.UNITS[name]}")
    for note in tally.notes:
        print(f"note: {note}")
    correct = tally.failed == 0 and not tally.notes
    # The contract wants every declared metric on every run: a layer that
    # does not run on this workload (shown as "-" above) reads 0 here.
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)),
                   "unit": metrics.UNITS[name]}
            for name in names
        },
    }
    if args.detail_out:
        detail["absent"] = sorted(set(names) - set(values))
        Path(args.detail_out).write_text(json.dumps(detail))
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# every workload, one subprocess each
# ----------------------------------------------------------------------
def run_all(args) -> int:
    from benchmarks.e2e import metrics

    WORK_ROOT.mkdir(exist_ok=True)
    results = {}
    for workload in metrics.WORKLOADS:
        row = results[workload.name] = {}
        for trace in range(args.trace + 1):
            with tempfile.NamedTemporaryFile(dir=WORK_ROOT, suffix=".json") as tmp:
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload.name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--detail-out", tmp.name,
                ] + (["--quick"] if args.quick else [])
                done = subprocess.run(
                    command, capture_output=True, text=True, timeout=600
                )
                sys.stdout.write(done.stdout[: done.stdout.rstrip().rfind("\n") + 1])
                if done.returncode:
                    sys.stderr.write(done.stderr)
                    return done.returncode
                detail = json.loads(Path(tmp.name).read_text())
            last = json.loads(done.stdout.splitlines()[-1])
            for name in detail.pop("absent"):
                del last["metrics"][name]
            for name, share in detail.pop("spread", {}).items():
                last["metrics"][name]["spread"] = share
            row["per_layer" if trace else "end_to_end"] = {**last, **detail}
    correct = all(
        part["correct"] for row in results.values() for part in row.values()
    )
    print(f"all workloads correct: {correct}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "schema": "repro.bench.e2e/1",
            "seed": args.seed,
            "seconds": args.seconds,
            "quick": args.quick,
            "workloads": results,
        }, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    if args.seconds is None:
        from benchmarks.e2e.metrics import RUN_SECONDS

        args.seconds = float(RUN_SECONDS)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
