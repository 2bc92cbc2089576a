"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

For every (workload, metric) prints both values, B's change relative to
A and, for end-to-end metrics, the bound, with one of these labels:

``within``      B is not worse than A by more than the bound;
``regressed``   it is;
``unresolved``  the metric's own scatter inside either run is wider than
                the bound, so the two cannot be told apart;
``same`` / ``differs``  a count that repeats exactly for one seed (only
                judged when both files used the same seed and sizing).

Per-layer timings carry no bound and are listed with their change only.
Exits non-zero on any ``regressed``, any ``differs``, or a run whose
outputs were not correct.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if not __package__:  # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import metrics  # noqa: E402

BAD = ("regressed", "differs", "incorrect")


def label(declared, a: dict, b: dict, same_inputs: bool) -> tuple[float, str]:
    """(B's relative change, verdict) for one metric's two entries."""
    va, vb = a["value"], b["value"]
    change = (vb - va) / abs(va) if va else (0.0 if vb == va else float("inf"))
    if declared.exact and same_inputs:
        return change, "same" if va == vb else "differs"
    bound = getattr(declared, "bound", None)
    if bound is None:
        return change, ""
    if max(a.get("spread", 0.0), b.get("spread", 0.0)) > bound:
        return change, "unresolved"
    worse = change if declared.better == "lower" else -change
    return change, "regressed" if worse > bound else "within"


def compare(a: dict, b: dict) -> tuple[list[str], int]:
    """The report lines and how many verdicts are bad."""
    same_inputs = (a["seed"], a["quick"]) == (b["seed"], b["quick"])
    declared = {m.name: m for m in (*metrics.END_TO_END, *metrics.PER_LAYER)}
    lines = [f"{'workload':20s} {'metric':34s} {'A':>13s} {'B':>13s} "
             f"{'change':>8s} {'bound':>6s}  verdict"]
    bad = 0
    for workload in a["workloads"]:
        for part in ("end_to_end", "per_layer"):
            pa = a["workloads"][workload].get(part)
            pb = b["workloads"].get(workload, {}).get(part)
            if pa is None or pb is None:
                continue
            verdicts = [(
                f"{part}.correct", float(pa["correct"]), float(pb["correct"]),
                0.0, None,
                "" if pa["correct"] and pb["correct"] and not pb["failed"]
                else "incorrect",
            )]
            for name in pa["metrics"]:
                if name not in pb["metrics"]:
                    continue
                ea, eb = pa["metrics"][name], pb["metrics"][name]
                change, verdict = label(declared[name], ea, eb, same_inputs)
                verdicts.append((
                    name, ea["value"], eb["value"], change,
                    getattr(declared[name], "bound", None), verdict,
                ))
            for name, va, vb, change, bound, verdict in verdicts:
                bad += verdict in BAD
                shown = "" if bound is None else f"{bound:.0%}"
                lines.append(
                    f"{workload:20s} {name:34s} {va:13.6g} {vb:13.6g} "
                    f"{change:+8.1%} {shown:>6s}  {verdict}"
                )
    return lines, bad


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        sys.exit(__doc__)
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    lines, bad = compare(a, b)
    print("\n".join(lines))
    print(f"{bad} regressed/differing/incorrect")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
