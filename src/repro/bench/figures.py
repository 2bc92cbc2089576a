"""One function per paper exhibit (Table I, Figs. 2-8, Section V memory).

Every function returns an :class:`~repro.bench.harness.ExperimentResult`
whose rows mirror what the paper plots.  Measured components run the real
distributed implementation at laptop scale; projected components use the
calibrated BlueGene/Q model with the full-size Table I workloads.
"""

from __future__ import annotations

import numpy as np

from repro.bench.harness import ExperimentResult, SmallScale, small_scale
from repro.datasets.profiles import PROFILES
from repro.parallel import HeuristicConfig, ParallelReptile
from repro.parallel.ownership import key_spaces
from repro.perfmodel import (
    BGQMachine,
    PerformancePredictor,
    ScalingStudy,
    workload_for_profile,
)
from repro.util.stats import relative_spread

MB = 1024.0 ** 2


# ----------------------------------------------------------------------
def table1() -> ExperimentResult:
    """Table I: the three dataset profiles."""
    out = ExperimentResult(
        "Table I",
        "E.Coli, Drosophila and Human datasets used for experimentation",
        ["Genome", "Reads", "Length", "Genome size", "Coverage"],
    )
    for profile in PROFILES.values():
        out.add(
            profile.name,
            profile.n_reads,
            profile.read_length,
            f"{profile.genome_size:.2e}",
            f"{profile.coverage:.0f}X",
        )
    out.note("coverage as reported by the paper; its own formula gives "
             "~197X for E.Coli (length x reads / genome size)")
    return out


# ----------------------------------------------------------------------
def fig2(nranks: int = 128) -> ExperimentResult:
    """Fig. 2: 128 ranks, E.Coli, varying ranks/node (projected)."""
    machine = BGQMachine()
    workload = workload_for_profile(PROFILES["E.Coli"])
    out = ExperimentResult(
        "Fig. 2",
        f"Execution time of {nranks} ranks for E.Coli varying ranks/node",
        ["ranks/node", "nodes", "construction_s", "correction_s",
         "comm_kmer_s", "comm_tile_s", "serve_s", "total_s"],
    )
    for rpn in (8, 16, 32):
        pred = PerformancePredictor(machine, workload, ranks_per_node=rpn)
        pb = pred.predict(nranks)
        out.add(rpn, pb.nodes, pb.construction_total, pb.correction_total,
                pb.comm_kmers, pb.comm_tiles, pb.serve_time, pb.total)
    out.note("paper: 32 ranks/node ~30% slower than 8; slowdown mostly in "
             "communication; construction << correction; tiles dominate")
    return out


# ----------------------------------------------------------------------
def fig3(
    nranks: int = 128,
    scale: SmallScale | None = None,
    measured_ranks: int = 32,
) -> ExperimentResult:
    """Fig. 3: per-rank k-mer/tile counts.

    Two components: (a) the real distributed build at ``measured_ranks``
    (small tables, so the spread is Poisson-limited); (b) the ownership
    rule over the full E.Coli spectrum's entry counts of random ids, at
    ``nranks`` ranks, which is the regime the paper's <1%/<2% claim lives in — the
    spread shrinks as 1/sqrt(entries per rank).
    """
    scale = scale or small_scale(genome_size=15_000)
    runner = ParallelReptile(
        scale.config, HeuristicConfig(), nranks=measured_ranks,
        engine="cooperative",
    )
    result = runner.build_only(scale.dataset.block)
    out = ExperimentResult(
        "Fig. 3",
        f"K-mer and tile count of each rank "
        f"(measured at {measured_ranks} ranks; full-scale hash assignment "
        f"at {nranks} ranks)",
        ["series", "ranks", "min", "max", "mean", "spread_pct"],
    )
    for table in ("kmers", "tiles"):
        sizes = result.table_sizes_per_rank(table)
        out.add(f"measured {table}", measured_ranks, int(sizes.min()),
                int(sizes.max()), float(sizes.mean()),
                100 * relative_spread(sizes))

    # Full-scale: the E.Coli pre-threshold spectra's worth of random ids
    # at each kind's width, keyed and owned by the rule; per-rank spread.
    workload = workload_for_profile(PROFILES["E.Coli"])
    rng = np.random.default_rng(42)
    kmers, tiles = key_spaces(scale.config.tile_shape)
    for label, entries, space in (
        ("full-scale kmers", int(workload.kmer_entries_pre), kmers),
        ("full-scale tiles", int(workload.tile_entries_pre), tiles),
    ):
        counts = np.zeros(nranks, dtype=np.int64)
        remaining = entries
        while remaining > 0:
            chunk = min(remaining, 4_000_000)
            ids = rng.integers(0, 2**space.bits, chunk, dtype=np.uint64)
            owners = space.owners(space.keys(ids), nranks)
            counts += np.bincount(owners, minlength=nranks)
            remaining -= chunk
        out.add(label, nranks, int(counts.min()), int(counts.max()),
                float(counts.mean()), 100 * relative_spread(counts))
    out.note("paper: k-mer spread < 1%, tile spread < 2% at 128 ranks; "
             "spread scales as 1/sqrt(entries per rank)")
    return out


# ----------------------------------------------------------------------
def fig4(nranks: int = 16, scale: SmallScale | None = None) -> ExperimentResult:
    """Fig. 4: load balance (measured imbalance + projected times)."""
    scale = scale or small_scale(genome_size=20_000, localized_errors=True)
    out = ExperimentResult(
        "Fig. 4",
        "Errors corrected and remote tile lookups per rank, with and "
        "without static load balancing (measured); times projected to "
        "128 BG/Q ranks",
        ["mode", "errors_min", "errors_max", "lookups_min", "lookups_max",
         "proj_fastest_s", "proj_slowest_s"],
    )
    machine = BGQMachine()
    workload = workload_for_profile(PROFILES["E.Coli"])
    pred = PerformancePredictor(machine, workload, ranks_per_node=32)
    for balanced in (False, True):
        runner = ParallelReptile(
            scale.config,
            HeuristicConfig(load_balance=balanced),
            nranks=nranks,
            engine="cooperative",
        )
        result = runner.run(scale.dataset.block)
        errors = result.corrections_per_rank()
        lookups = result.counter_per_rank("remote_tile_lookups")
        from repro.perfmodel.distribution import rank_time_distribution

        times = rank_time_distribution(pred, 128, load_balanced=balanced)
        out.add(
            "balanced" if balanced else "imbalanced",
            int(errors.min()), int(errors.max()),
            int(lookups.min()), int(lookups.max()),
            float(times.min()), float(times.max()),
        )
    out.note("paper (128 ranks): imbalanced 4948-16000+ s, errors "
             "33886-47927; balanced ~8886 s, errors 39127-39997 (2%)")
    out.note("measured lookup spread is damped at laptop scale: the base "
             "tiling lookups (error-independent) dominate with d=1 "
             "candidates, unlike the paper's candidate-dominated traffic")
    return out


# ----------------------------------------------------------------------
_FIG5_MODES: list[tuple[str, HeuristicConfig, int, int]] = [
    # (label, heuristics, nranks, ranks_per_node) as the paper ran them.
    ("base", HeuristicConfig(), 1024, 32),
    ("universal", HeuristicConfig(universal=True), 1024, 32),
    ("read kmers/tiles", HeuristicConfig(read_kmers=True, read_tiles=True), 1024, 32),
    ("add remote lookups",
     HeuristicConfig(read_kmers=True, read_tiles=True, add_remote_lookups=True),
     1024, 32),
    ("batch reads table", HeuristicConfig(batch_reads=True), 1024, 32),
    ("allgather kmers", HeuristicConfig(allgather_kmers=True), 256, 8),
    ("allgather tiles", HeuristicConfig(allgather_tiles=True), 256, 8),
    ("allgather both", HeuristicConfig(allgather_kmers=True, allgather_tiles=True),
     32, 1),
]


def fig5(measure: bool = True, scale: SmallScale | None = None) -> ExperimentResult:
    """Fig. 5: time and memory per heuristic (projected; lookups measured)."""
    machine = BGQMachine()
    workload = workload_for_profile(PROFILES["E.Coli"])
    out = ExperimentResult(
        "Fig. 5",
        "Time of execution and memory footprint with different heuristics "
        "(E.Coli; rank geometry as the paper ran each mode)",
        ["mode", "ranks", "rpn", "correction_s", "memory_MB",
         "meas_remote_kmers", "meas_remote_tiles"],
    )
    scale = scale or small_scale(genome_size=10_000)
    for label, heur, nranks, rpn in _FIG5_MODES:
        pred = PerformancePredictor(machine, workload, heur, ranks_per_node=rpn)
        pb = pred.predict(nranks)
        if measure:
            small = ParallelReptile(
                scale.config, heur, nranks=8, engine="cooperative"
            ).run(scale.dataset.block)
            mk = int(small.counter_per_rank("remote_kmer_lookups").sum())
            mt = int(small.counter_per_rank("remote_tile_lookups").sum())
        else:
            mk = mt = -1
        out.add(label, nranks, rpn, pb.correction_total,
                pb.memory_peak / MB, mk, mt)
    out.note("paper: universal -8.8%; kmer replication slower (928 MB); "
             "tile replication 975 s (948 MB); batch lowers memory; "
             "full replication 58 s (1648 MB)")
    return out


# ----------------------------------------------------------------------
def _scaling_figure(
    experiment: str,
    dataset: str,
    rank_counts: list[int],
    heuristics: HeuristicConfig,
    chunk_size: int = 2000,
) -> ExperimentResult:
    machine = BGQMachine()
    workload = workload_for_profile(PROFILES[dataset])
    pred = PerformancePredictor(
        machine, workload, heuristics, ranks_per_node=32, chunk_size=chunk_size
    )
    study = ScalingStudy(pred)
    points = study.sweep(rank_counts)
    effs = study.efficiency(points)
    out = ExperimentResult(
        experiment,
        f"Scaling for the {dataset} dataset "
        f"({rank_counts[0]}-{rank_counts[-1]} ranks, 32 ranks/node)",
        ["ranks", "nodes", "construction_s", "correction_s", "total_s",
         "imbalanced_s", "efficiency"],
    )
    for pt, eff in zip(points, effs):
        imb = "DNF" if pt.imbalanced_dnf else f"{pt.total_imbalanced:.0f}"
        out.add(pt.nranks, pt.nodes, pt.balanced.construction_total,
                pt.balanced.correction_total, pt.total_balanced, imb, eff)
    return out


def fig6(rank_counts: list[int] | None = None) -> ExperimentResult:
    """Fig. 6: E.Coli scaling, 1024-8192 ranks (32-256 nodes)."""
    out = _scaling_figure(
        "Fig. 6", "E.Coli", rank_counts or [1024, 2048, 4096, 8192],
        HeuristicConfig(),
    )
    out.note("paper: <200 s at 256 nodes, efficiency 0.81 at 8192 ranks, "
             "imbalanced >2x worse at 32 nodes")
    return out


def fig7(rank_counts: list[int] | None = None) -> ExperimentResult:
    """Fig. 7: Drosophila scaling, 1024-8192 ranks (batch reads mode)."""
    out = _scaling_figure(
        "Fig. 7", "Drosophila", rank_counts or [1024, 2048, 4096, 8192],
        HeuristicConfig(batch_reads=True),
    )
    out.note("paper: ~600 s at 8192 ranks, efficiency 0.64, 981 s "
             "construction at 1024 ranks, imbalanced DNF at 1024/2048")
    return out


def fig8(rank_counts: list[int] | None = None) -> ExperimentResult:
    """Fig. 8: Human scaling, 4096-32768 ranks (batch reads, 10k chunks)."""
    out = _scaling_figure(
        "Fig. 8", "Human", rank_counts or [4096, 8192, 16384, 32768],
        HeuristicConfig(batch_reads=True), chunk_size=10_000,
    )
    out.note("paper: the 1.55-billion-read human dataset corrected in "
             "~2.2 h on 1024 nodes (one BG/Q rack)")
    return out


# ----------------------------------------------------------------------
def memory_footprints() -> ExperimentResult:
    """Section V: per-rank footprints at each dataset's largest scale."""
    machine = BGQMachine()
    out = ExperimentResult(
        "Sec. V",
        "Per-rank memory footprint at the largest node counts",
        ["dataset", "ranks", "nodes", "memory_MB", "budget_MB", "fits_512MB"],
    )
    cases = [
        ("E.Coli", 8192, HeuristicConfig(), 2000),
        ("Drosophila", 16384, HeuristicConfig(batch_reads=True), 2000),
        ("Human", 32768, HeuristicConfig(batch_reads=True), 10_000),
    ]
    for dataset, nranks, heur, chunk in cases:
        workload = workload_for_profile(PROFILES[dataset])
        pred = PerformancePredictor(
            machine, workload, heur, ranks_per_node=32, chunk_size=chunk
        )
        pb = pred.predict(nranks)
        budget = machine.memory_per_rank_budget(32) / MB
        out.add(dataset, nranks, pb.nodes, pb.memory_peak / MB, budget,
                "yes" if pb.memory_peak / MB < 512 else "NO")
    out.note("paper: E.Coli <50 MB @256 nodes, Drosophila ~80 MB @512, "
             "Human ~120 MB @1024; all under the 512 MB/process budget")
    return out


def anchors() -> ExperimentResult:
    """The EXPERIMENTS.md anchor table, regenerated from the model."""
    from repro.perfmodel.calibrate import PAPER_ANCHORS, anchor_model_value

    out = ExperimentResult(
        "Anchors",
        "Performance model vs every paper-reported value",
        ["exhibit", "quantity", "dataset", "ranks", "paper", "model",
         "deviation", "within_tol"],
    )
    for anchor in PAPER_ANCHORS:
        value = anchor_model_value(anchor)
        rel = (value - anchor.paper_value) / anchor.paper_value
        out.add(
            anchor.figure, anchor.description[:40], anchor.dataset,
            anchor.nranks, anchor.paper_value, value,
            f"{rel:+.0%}", "yes" if abs(rel) <= anchor.tolerance else "NO",
        )
    out.note("tolerances per anchor in src/repro/perfmodel/calibrate.py")
    return out


def sensitivity() -> ExperimentResult:
    """Model robustness: each fitted constant perturbed +/-20%."""
    from repro.perfmodel.sensitivity import sensitivity_analysis

    out = ExperimentResult(
        "Sensitivity",
        "Anchor compliance under +/-20% perturbation of each fitted constant",
        ["constant", "factor", "anchors_broken", "worst_ratio", "worst_anchor"],
    )
    for row in sensitivity_analysis():
        out.add(row.field, row.factor, row.anchors_broken,
                row.worst_ratio, row.worst_anchor[:48])
    out.note("ratio = deviation/tolerance of the tightest anchor; >1 breaks")
    out.note("constants that break anchors when perturbed are genuinely "
             "pinned by the paper's measurements")
    return out


#: Registry used by the benchmark suite and the examples.
ALL_EXPERIMENTS = {
    "table1": table1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "memory": memory_footprints,
    "anchors": anchors,
    "sensitivity": sensitivity,
}
