"""Exporting experiment results for plotting.

``pytest benchmarks/ -s`` prints each exhibit as a text table; this module
turns the same :class:`~repro.bench.harness.ExperimentResult` objects into
CSV files (one per exhibit) so the figures can be replotted with any tool.
``export_all`` regenerates every registered experiment into a directory —
what a release would ship as the "figure data" artifact.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro.bench.harness import ExperimentResult


def write_csv(result: ExperimentResult, path: str | os.PathLike) -> None:
    """Write one experiment's rows as CSV (notes become # comments)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {result.experiment}: {result.title}\n")
        for note in result.notes:
            fh.write(f"# note: {note}\n")
        writer = csv.writer(fh)
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow(row)


def slug(name: str) -> str:
    """Filesystem-safe name for an experiment id."""
    return (
        name.lower().replace(".", "").replace(" ", "_").replace("/", "-")
    )


def export_all(
    directory: str | os.PathLike,
    experiments: Mapping[str, Callable[[], ExperimentResult]] | None = None,
    only: Iterable[str] | None = None,
) -> list[Path]:
    """Run every registered experiment and write one CSV each.

    ``only`` restricts to a subset of registry names.  Returns the written
    paths.  Measured experiments run the real implementation, so a full
    export takes a minute or two.
    """
    if experiments is None:
        from repro.bench.figures import ALL_EXPERIMENTS

        experiments = ALL_EXPERIMENTS
    chosen = set(only) if only is not None else set(experiments)
    unknown = chosen - set(experiments)
    if unknown:
        raise KeyError(f"unknown experiments: {sorted(unknown)}")
    out: list[Path] = []
    directory = Path(directory)
    for name, fn in experiments.items():
        if name not in chosen:
            continue
        result = fn()
        path = directory / f"{slug(name)}.csv"
        write_csv(result, path)
        out.append(path)
    return out
