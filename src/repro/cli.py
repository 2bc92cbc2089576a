"""Command-line interface.

Three subcommands mirror the project's workflows:

* ``repro correct`` — run distributed Reptile on a fasta + quality pair
  (or a Reptile configuration file), writing corrected reads;
* ``repro session`` — long-lived correction session: ingest several
  fasta inputs as incremental spectrum deltas, correct them against the
  combined spectrum, optionally checkpoint/resume the session state;
* ``repro serve`` — spectrum-as-a-service front-end: ingest every input
  as a spectrum delta, then submit each input as one async client batch
  so compatible requests coalesce into shared collective rounds
  (see :mod:`repro.service` and ``docs/SERVICE.md``);
* ``repro simulate`` — synthesize a dataset (genome, reads, qualities)
  as fasta/quality/fastq files, with optional localized error bursts;
* ``repro project`` — print a BlueGene/Q scaling projection for one of
  the Table I datasets;
* ``repro lint`` — run the whole-program MPI-correctness pass over SPMD
  sources (see :mod:`repro.analysis` and ``repro lint --list-rules``).

``python -m repro ...`` and the ``repro`` console script are equivalent.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.config import ReptileConfig
from repro.datasets.profiles import PROFILES
from repro.errors import ReproError
from repro.parallel.driver import ParallelReptile
from repro.parallel.heuristics import HeuristicConfig


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The run flags ``correct``, ``session`` and ``serve`` share: fleet
    size and engine, the Reptile parameters, and the heuristics."""
    p.add_argument("--nranks", type=int, default=4,
                   help="simulated MPI ranks (default 4)")
    p.add_argument("--engine",
                   choices=["cooperative", "sequential", "threaded",
                            "process"],
                   default="cooperative",
                   help="rank scheduler: cooperative/sequential "
                        "(deterministic turns), threaded (free threads), "
                        "process (shared-nothing spawned interpreters)")
    p.add_argument("--kmer-length", type=int, default=12)
    p.add_argument("--tile-overlap", type=int, default=4)
    p.add_argument("--kmer-threshold", type=int, default=0,
                   help="0 = derive from the (first) input")
    p.add_argument("--tile-threshold", type=int, default=0)
    p.add_argument("--chunk-size", type=int, default=2000,
                   help="reads per --batch-reads round / --prefetch "
                        "piece; not the blocking Step IV grain")
    p.add_argument("--universal", action="store_true",
                   help="universal message heuristic")
    p.add_argument("--prefetch", action="store_true",
                   help="bulk-prefetch Step IV lookups per chunk "
                        "(deduplicated, coalesced per owner, pipelined)")
    p.add_argument("--batch-reads", action="store_true",
                   help="batch reads table heuristic")
    p.add_argument("--read-tables", action="store_true",
                   help="retain read k-mer/tile tables")
    p.add_argument("--allgather", choices=["none", "kmers", "tiles", "both"],
                   default="none", help="spectrum replication")
    p.add_argument("--replication-group", type=int, default=1,
                   help="partial replication group size (Sec. V)")
    p.add_argument("--no-load-balance", action="store_true",
                   help="disable the static read redistribution")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed-memory Reptile error correction "
                    "(IPDPSW 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # ----------------------------------------------------------- correct
    c = sub.add_parser("correct", help="correct reads from files")
    c.add_argument("--config", help="Reptile-style configuration file")
    c.add_argument("--fasta", help="input fasta (numeric record names)")
    c.add_argument("--quality", help="input quality file")
    c.add_argument("--output", required=True, help="corrected fasta path")
    _add_run_flags(c)
    c.add_argument("--stats", action="store_true",
                   help="print per-rank statistics")
    c.add_argument("--report", help="write a JSON run report to this path")
    c.add_argument("--faults", metavar="PLAN.json",
                   help="inject faults from a FaultPlan JSON file "
                        "(see docs/FAULTS.md); the run must still produce "
                        "bit-identical output")

    # ----------------------------------------------------------- session
    se = sub.add_parser(
        "session",
        help="ingest several fasta inputs incrementally, then correct "
             "them against the combined spectrum",
    )
    se.add_argument("--fasta", action="append", default=[],
                    help="input fasta; repeat for each incremental delta")
    se.add_argument("--quality", action="append", default=[],
                    help="quality file matching each --fasta (all or none)")
    se.add_argument("--output", required=True, help="corrected fasta path")
    _add_run_flags(se)
    se.add_argument("--checkpoint-dir",
                    help="write per-rank session bundles here after the run")
    se.add_argument("--resume-dir",
                    help="resume the session from bundles written by a "
                         "previous --checkpoint-dir run")
    se.add_argument("--stats", action="store_true",
                    help="print per-rank and session statistics")
    se.add_argument("--report", help="write a JSON run report to this path")

    # ------------------------------------------------------------- serve
    sv = sub.add_parser(
        "serve",
        help="run the async correction service: each --fasta is one "
             "client batch; compatible batches coalesce into shared "
             "collective rounds",
    )
    sv.add_argument("--fasta", action="append", default=[],
                    help="one client batch; repeat for each client "
                         "(every batch is also ingested as a spectrum "
                         "delta before serving begins)")
    sv.add_argument("--quality", action="append", default=[],
                    help="quality file matching each --fasta (all or none)")
    sv.add_argument("--output-dir", required=True,
                    help="corrected batches are written here as "
                         "client<N>.fasta")
    _add_run_flags(sv)
    sv.add_argument("--max-pending", type=int, default=64,
                    help="admission queue bound (jobs beyond it are "
                         "rejected with ServiceOverloadError)")
    sv.add_argument("--max-pending-per-client", type=int, default=8,
                    help="per-client quota within the admission queue")
    sv.add_argument("--stats", action="store_true",
                    help="print the service accounting counters")

    # ---------------------------------------------------------- simulate
    s = sub.add_parser("simulate", help="synthesize a dataset")
    s.add_argument("--profile", choices=sorted(PROFILES), default="E.Coli")
    s.add_argument("--genome-size", type=int, default=20_000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--localized-errors", action="store_true",
                   help="contiguous error bursts (load-imbalance regime)")
    s.add_argument("--fasta", required=True, help="output fasta path")
    s.add_argument("--quality", required=True, help="output quality path")
    s.add_argument("--truth", help="optional error-free fasta (ground truth)")

    # ----------------------------------------------------------- project
    p = sub.add_parser("project", help="BG/Q scaling projection")
    p.add_argument("--dataset", choices=sorted(PROFILES), default="E.Coli")
    p.add_argument("--ranks", type=int, nargs="+",
                   default=[1024, 2048, 4096, 8192])
    p.add_argument("--ranks-per-node", type=int, default=32)
    p.add_argument("--batch-reads", action="store_true")
    p.add_argument("--chunk-size", type=int, default=2000)
    p.add_argument("--imbalanced", action="store_true",
                   help="also show the no-load-balance series")
    p.add_argument("--json", metavar="PATH",
                   help="also write the projection as JSON")

    # ------------------------------------------------------------ verify
    sub.add_parser(
        "verify",
        help="run the reproduction self-checks "
             "(correctness, equivalence, model fidelity)",
    )

    # -------------------------------------------------------------- lint
    lnt = sub.add_parser(
        "lint",
        help="static MPI-correctness lint over SPMD program sources",
    )
    lnt.add_argument("paths", nargs="*",
                     help="python files or directories to lint")
    lnt.add_argument("--disable", default="",
                     help="comma-separated rule codes to skip "
                          "(e.g. MPI003,MPI005)")
    lnt.add_argument("--list-rules", action="store_true",
                     help="print the rule catalogue and exit")
    lnt.add_argument("--explain", metavar="CODE",
                     help="print one rule's full documentation and exit")
    lnt.add_argument("--format", default="text",
                     choices=("text", "json", "sarif"),
                     help="report format (default: text)")
    lnt.add_argument("--out", metavar="PATH",
                     help="write the report to PATH instead of stdout")
    lnt.add_argument("--baseline", metavar="PATH",
                     help="suppress findings recorded in this baseline file")
    lnt.add_argument("--write-baseline", metavar="PATH",
                     help="record current findings as the new baseline "
                          "and exit 0")
    return parser


def _heuristics_from_args(args: argparse.Namespace) -> HeuristicConfig:
    return HeuristicConfig(
        universal=args.universal,
        batch_reads=args.batch_reads,
        read_kmers=args.read_tables,
        read_tiles=args.read_tables,
        allgather_kmers=args.allgather in ("kmers", "both"),
        allgather_tiles=args.allgather in ("tiles", "both"),
        prefetch=args.prefetch,
        replication_group=args.replication_group,
        load_balance=not args.no_load_balance,
    )


def _config_from_args(
    args: argparse.Namespace,
    fasta: str | None,
    quality: str | None,
    config_file: str | None = None,
) -> ReptileConfig:
    """The run configuration: a ``--config`` file (``correct`` only) with
    any ``fasta`` / ``quality`` override, else the flags, with zero
    thresholds read off ``fasta``."""
    if config_file:
        cfg = ReptileConfig.from_file(config_file)
        if fasta:
            cfg = cfg.with_updates(fasta_file=fasta)
        if quality:
            cfg = cfg.with_updates(quality_file=quality)
        return cfg
    if not fasta:
        raise ReproError("either --config or --fasta is required")
    kt, tt = args.kmer_threshold, args.tile_threshold
    if not kt or not tt:
        # Read the thresholds off the k-mer/tile count histograms of a
        # sample of the file (the classical valley method).
        from repro.core.pipeline import estimate_thresholds_from_file

        base = ReptileConfig(
            kmer_length=args.kmer_length, tile_overlap=args.tile_overlap
        )
        est_kt, est_tt = estimate_thresholds_from_file(fasta, quality, base)
        kt = kt or est_kt
        tt = tt or est_tt
        print(f"auto thresholds from count histograms: kmer>={kt}, tile>={tt}")
    return ReptileConfig(
        fasta_file=fasta,
        quality_file=quality or "",
        kmer_length=args.kmer_length,
        tile_overlap=args.tile_overlap,
        kmer_threshold=kt,
        tile_threshold=tt,
        chunk_size=args.chunk_size,
    )


def _load_inputs(args: argparse.Namespace) -> tuple[list, ReptileConfig]:
    """``session`` / ``serve`` input: every ``--fasta`` (with its
    ``--quality``) loaded whole, and the configuration read against the
    first of them."""
    from repro.io.partition import load_rank_block

    if not args.fasta:
        raise ReproError("at least one --fasta is required")
    quals = args.quality or [None] * len(args.fasta)
    if len(quals) != len(args.fasta):
        raise ReproError(
            "--quality must be repeated once per --fasta (or omitted)"
        )
    # nranks=1 partitioning: the SPMD program slices each block per rank.
    blocks = [load_rank_block(f, q, 1, 0) for f, q in zip(args.fasta, quals)]
    return blocks, _config_from_args(args, args.fasta[0], quals[0])


def cmd_correct(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args, args.fasta, args.quality, args.config)
    heur = _heuristics_from_args(args)
    faults = None
    if getattr(args, "faults", None):
        from repro.faults import FaultPlan

        faults = FaultPlan.from_file(args.faults)
    runner = ParallelReptile(
        cfg, heur, nranks=args.nranks, engine=args.engine, faults=faults
    )
    result = runner.run_files(cfg.fasta_file, cfg.quality_file or None)
    n = result.write_outputs(args.output)
    print(f"corrected {n} reads "
          f"({result.total_corrections} substitutions) -> {args.output}")
    if result.crashed_ranks:
        print(f"recovered from injected crash of rank(s) "
              f"{result.crashed_ranks}")
    if args.report:
        from repro.parallel.report import write_run_report

        write_run_report(result, args.report)
        print(f"run report -> {args.report}")
    if args.stats:
        print(f"{'rank':>4} {'reads':>8} {'corrected':>9} "
              f"{'remote_kmers':>12} {'remote_tiles':>12} {'peak_bytes':>12}")
        for r, report in enumerate(result.reports):
            print(f"{r:>4} {len(report.block):>8} "
                  f"{report.errors_corrected:>9} "
                  f"{result.stats[r].get('remote_kmer_lookups'):>12,d} "
                  f"{result.stats[r].get('remote_tile_lookups'):>12,d} "
                  f"{report.memory.peak:>12,d}")
        from repro.parallel.lookup.stack import TIER_NAMES, resolution_order

        totals = result.stats[0].__class__()
        for s in result.stats:
            totals.merge(s)
        order = resolution_order(result.heuristics, result.nranks)
        print(f"lookup order: kmers={order['kmers']} tiles={order['tiles']}")
        print(f"{'tier':>12} {'requests':>12} {'hits':>12} "
              f"{'misses':>12} {'bytes':>14}")
        for tier in TIER_NAMES:
            requests = totals.get(f"lookup_{tier}_requests")
            if not requests:
                continue
            print(f"{tier:>12} {requests:>12,d} "
                  f"{totals.get(f'lookup_{tier}_hits'):>12,d} "
                  f"{totals.get(f'lookup_{tier}_misses'):>12,d} "
                  f"{totals.get(f'lookup_{tier}_bytes'):>14,d}")
        from repro.parallel.report import prefetch_summary, serving_summary

        serving = serving_summary(totals)
        print(f"{'served':>12} {serving['requests_served']:>12,d} requests in "
              f"{serving['serve_probes']:,d} shard probes "
              f"(mean batch {serving['mean_batch']:.2f})")
        if result.heuristics.use_prefetch:
            pf = prefetch_summary(totals)
            print(f"{'prefetch':>12} {pf['fetches']:>12,d} fetches in "
                  f"{pf['messages']:,d} frames; tail {pf['tail_reads']:,d} "
                  f"reads, {pf['replans']:,d} replans, "
                  f"{pf['miss_fetches']:,d} on-miss fetches "
                  f"(miss ratio {pf['miss_ratio']:.4f}, "
                  f"cache {pf['cache_bytes']:,d} B)")
        _print_session_row(totals)
    return 0


def _print_session_row(totals) -> None:
    """The construction-session ledger lines of the ``--stats`` table."""
    print(f"{'session':>12} {'ingests':>10} {'exchanges':>10} "
          f"{'delta_bytes':>14} {'recompiles':>10}")
    print(f"{'':>12} {totals.get('session_ingests'):>10,d} "
          f"{totals.get('session_delta_exchanges'):>10,d} "
          f"{totals.get('session_delta_bytes'):>14,d} "
          f"{totals.get('session_recompiles'):>10,d}")


def cmd_session(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.io.records import ReadBlock
    from repro.parallel.driver import ParallelSession
    from repro.parallel.session import CheckpointOp, CorrectOp, IngestOp

    # Each file is one delta.
    blocks, cfg = _load_inputs(args)
    heur = _heuristics_from_args(args)
    # The corrected dataset is the union of every ingested delta,
    # renumbered so the merged output keeps one global order.
    full = ReadBlock.concat(blocks)
    full.ids[:] = np.arange(1, len(full) + 1, dtype=np.int64)
    ops: list = [IngestOp(b) for b in blocks]
    ops.append(CorrectOp(full))
    if args.checkpoint_dir:
        ops.append(CheckpointOp(args.checkpoint_dir))
    driver = ParallelSession(
        cfg, heur, nranks=args.nranks, engine=args.engine
    )
    out = driver.run(ops, resume_dir=args.resume_dir)
    result = out.result_for(0)
    n = result.write_outputs(args.output)
    totals = out.session_totals()
    print(f"session: {len(blocks)} delta(s) ingested, corrected "
          f"{n} reads ({result.total_corrections} substitutions) "
          f"-> {args.output}")
    if args.checkpoint_dir:
        print(f"session checkpoint -> {args.checkpoint_dir}")
    if args.report:
        from repro.parallel.report import write_run_report

        write_run_report(result, args.report)
        print(f"run report -> {args.report}")
    if args.stats:
        print(f"{'rank':>4} {'reads':>8} {'corrected':>9} {'ingests':>8} "
              f"{'peak_bytes':>12}")
        for r, report in enumerate(result.reports):
            rr = out.rank_reports[r]
            print(f"{r:>4} {len(report.block):>8} "
                  f"{report.errors_corrected:>9} "
                  f"{(rr.ingest_count if rr is not None else 0):>8} "
                  f"{report.memory.peak:>12,d}")
        merged = out.stats[0].__class__()
        for s in out.stats:
            merged.merge(s)
        _print_session_row(merged)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from repro.io.fasta import write_fasta
    from repro.service import ServicePolicy, SpectrumService

    blocks, cfg = _load_inputs(args)
    heur = _heuristics_from_args(args)
    policy = ServicePolicy(
        max_pending=args.max_pending,
        max_pending_per_client=args.max_pending_per_client,
    )
    service = SpectrumService(
        cfg, args.nranks, heuristics=heur, engine=args.engine,
        policy=policy,
    )

    async def drive():
        async with service:
            # Every batch is a spectrum delta first: the service corrects
            # each client against the union spectrum, like `repro session`.
            for block in blocks:
                await service.ingest(block)
            # Then each batch is one client's submission; issuing them
            # concurrently lets the queue coalesce compatible requests
            # into shared collective rounds.
            return await asyncio.gather(*(
                service.correct(block, client=f"client{i}")
                for i, block in enumerate(blocks)
            ))

    batches = asyncio.run(drive())
    os.makedirs(args.output_dir, exist_ok=True)
    total = 0
    for i, batch in enumerate(batches):
        path = os.path.join(args.output_dir, f"client{i}.fasta")
        block = batch.block
        write_fasta(
            path, block.to_strings(),
            start_id=int(block.ids[0]) if len(block) else 1,
        )
        corrections = int(batch.corrections_per_read.sum())
        total += corrections
        print(f"client{i}: {len(block)} reads "
              f"({corrections} substitutions) -> {path}")
    report = service.result.report
    print(f"service: {report.submitted} job(s), {report.rounds} correction "
          f"round(s), {report.coalesced} coalesced, "
          f"{report.rejected} rejected, {total} substitutions total")
    if args.stats:
        for name, value in report.as_counters().items():
            print(f"{name:>24} {value:>10,d}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.io.fasta import write_fasta
    from repro.io.quality import write_quality
    from repro.kmer.codec import decode_sequence

    profile = PROFILES[args.profile]
    dataset = profile.scaled(
        genome_size=args.genome_size, seed=args.seed,
        localized_errors=args.localized_errors or None,
    )
    block = dataset.block
    write_fasta(args.fasta, block.to_strings())
    write_quality(
        args.quality,
        [block.quals[i, : block.lengths[i]].tolist() for i in range(len(block))],
    )
    print(f"{args.profile}: {len(block)} reads of {block.max_length} bp, "
          f"{dataset.n_errors} injected errors -> {args.fasta}, {args.quality}")
    if args.truth:
        truth = [
            decode_sequence(dataset.true_codes[i]) for i in range(len(block))
        ]
        write_fasta(args.truth, truth)
        print(f"ground truth -> {args.truth}")
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    from repro.perfmodel.calibrate import workload_for_profile
    from repro.perfmodel.machine import BGQMachine
    from repro.perfmodel.predict import PerformancePredictor
    from repro.perfmodel.scaling import ScalingStudy

    heur = HeuristicConfig(batch_reads=args.batch_reads)
    pred = PerformancePredictor(
        BGQMachine(), workload_for_profile(PROFILES[args.dataset]), heur,
        ranks_per_node=args.ranks_per_node, chunk_size=args.chunk_size,
    )
    study = ScalingStudy(pred)
    points = study.sweep(args.ranks)
    effs = study.efficiency(points)
    header = f"{'ranks':>7} {'nodes':>6} {'constr_s':>9} {'corr_s':>9} " \
             f"{'total_s':>9} {'eff':>5} {'lookup_mb':>10}"
    if args.imbalanced:
        header += f" {'imbalanced_s':>13}"
    print(f"{args.dataset} on BlueGene/Q, {args.ranks_per_node} ranks/node")
    print(header)
    for pt, eff in zip(points, effs):
        line = (f"{pt.nranks:>7} {pt.nodes:>6} "
                f"{pt.balanced.construction_total:>9.1f} "
                f"{pt.balanced.correction_total:>9.1f} "
                f"{pt.total_balanced:>9.1f} {eff:>5.2f} "
                f"{pt.lookup_bytes_per_rank / 2**20:>10.1f}")
        if args.imbalanced:
            imb = "DNF" if pt.imbalanced_dnf else f"{pt.total_imbalanced:.0f}"
            line += f" {imb:>13}"
        print(line)
    if args.json:
        import json

        payload = {
            "dataset": args.dataset,
            "ranks_per_node": args.ranks_per_node,
            "points": [
                {
                    "nranks": pt.nranks,
                    "nodes": pt.nodes,
                    "construction_s": pt.balanced.construction_total,
                    "correction_s": pt.balanced.correction_total,
                    "total_s": pt.total_balanced,
                    "imbalanced_s": pt.total_imbalanced,
                    "imbalanced_dnf": pt.imbalanced_dnf,
                    "memory_peak_bytes": pt.balanced.memory_peak,
                    "lookup_kmer_bytes": pt.balanced.lookup_kmer_bytes,
                    "lookup_tile_bytes": pt.balanced.lookup_tile_bytes,
                    "efficiency": eff_,
                }
                for pt, eff_ in zip(points, effs)
            ],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"projection JSON -> {args.json}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import RULES, get_rule, lint_paths
    from repro.analysis.output import render_json, render_sarif
    from repro.analysis.runner import load_baseline, write_baseline
    from repro.errors import ConfigError

    if args.list_rules:
        for code, description in sorted(RULES.items()):
            print(f"{code}  {description}")
        return 0
    if args.explain:
        rule = get_rule(args.explain.strip().upper())
        if rule is None:
            raise ConfigError(f"unknown rule code: {args.explain}")
        print(f"{rule.code} [{rule.severity}] {rule.name}")
        print(f"  {rule.summary}")
        print()
        print(f"  {rule.doc}")
        print()
        print(f"  Suppress with '# noqa: {rule.code}' or "
              f"'--disable {rule.code}'.")
        return 0
    if not args.paths:
        raise ConfigError("no lint targets given (pass files/directories, "
                          "or use --list-rules / --explain)")
    disable = [c.strip() for c in args.disable.split(",") if c.strip()]
    unknown = sorted(set(disable) - set(RULES))
    if unknown:
        raise ConfigError(
            f"unknown rule code(s) in --disable: {', '.join(unknown)}"
        )
    baseline = load_baseline(args.baseline) if args.baseline else None
    result = lint_paths(args.paths, disable=disable, baseline=baseline)
    if args.write_baseline:
        write_baseline(result.findings, args.write_baseline)
        print(f"baseline with {len(result.findings)} fingerprint(s) -> "
              f"{args.write_baseline}")
        return 0
    if args.format == "text":
        report_lines = [f.render() for f in result.findings]
        noun = "file" if len(result.files) == 1 else "files"
        tally = ("no findings" if result.clean
                 else f"{len(result.findings)} finding(s)")
        if result.baselined:
            tally += f" ({result.baselined} baselined)"
        report_lines.append(f"checked {len(result.files)} {noun}: {tally}")
        report = "\n".join(report_lines) + "\n"
    elif args.format == "json":
        report = render_json(result.findings, result.files)
    else:
        report = render_sarif(result.findings, result.files)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"lint report ({args.format}) -> {args.out}")
    else:
        print(report, end="")
    if any(f.code == "MPI000" for f in result.findings):
        return 2  # parse failure: the analysis itself could not run
    return 0 if result.clean else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "correct":
            return cmd_correct(args)
        if args.command == "session":
            return cmd_session(args)
        if args.command == "serve":
            return cmd_serve(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "project":
            return cmd_project(args)
        if args.command == "lint":
            return cmd_lint(args)
        if args.command == "verify":
            from repro.verify import main as verify_main

            return verify_main([])
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover - exercised via tests/main
    sys.exit(main())
