"""Contract tests of the e2e benchmark (outside tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

A ``--quick`` pass (3 kb genome, one iteration — numbers not comparable)
of all four workloads, twice, checks that what ``run.py`` emits is what
``BENCHMARK.json`` declares, that the counts declared exact repeat, and
that the traced run accounts for its time.  Takes about two minutes.
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks.e2e import compare, metrics, oracle

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(*args, cwd=ROOT):
    return subprocess.run(
        [*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=900
    )


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Two complete quick passes (untraced + traced) with one seed."""
    results = []
    for attempt in range(2):
        out = tmp_path_factory.mktemp("e2e") / f"run{attempt}.json"
        done = run("--quick", "--trace", "1", "--seed", "7", "--out", str(out))
        assert done.returncode == 0, done.stdout + done.stderr
        results.append(json.loads(out.read_text()))
    return results


# -- BENCHMARK.json ------------------------------------------------------
def test_benchmark_json_is_the_declared_one():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.benchmark_json()


def test_declared_names_fit_the_contract():
    declared = metrics.benchmark_json()
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert 2 <= len(declared["workloads"]) <= 8
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in declared[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    bounds = {e["name"]: e["bound"] for e in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])


# -- what run.py emits ---------------------------------------------------
def test_emitted_names_are_the_declared_names(quick_runs):
    workloads = quick_runs[0]["workloads"]
    assert list(workloads) == [w.name for w in metrics.WORKLOADS]
    emitted_layers = set()
    for row in workloads.values():
        assert tuple(row["end_to_end"]["metrics"]) == metrics.END_TO_END_NAMES
        assert all(m["value"] != 0 for m in row["end_to_end"]["metrics"].values())
        emitted_layers.update(row["per_layer"]["metrics"])
    # Each layer metric is absent where its layer does not run, but
    # every declared one is measured by some workload, and no other
    # (the tail percentile needs the twenty samples a quick pass lacks).
    assert emitted_layers <= set(metrics.PER_LAYER_NAMES)
    assert set(metrics.PER_LAYER_NAMES) - emitted_layers == {"bench.wall_tail_s"}
    serial = workloads["serial_ecoli"]["per_layer"]["metrics"]
    assert not any(name.startswith(("simmpi.", "parallel.", "service.", "io."))
                   for name in serial)


def test_every_run_is_correct_and_failed_share_is_zero(quick_runs):
    for result in quick_runs:
        for row in result["workloads"].values():
            for part in row.values():
                assert part["correct"] and part["failed"] == 0
                assert part["attempted"] >= 1
            assert row["per_layer"]["metrics"]["failed_share"]["value"] == 0


def test_exact_counts_repeat(quick_runs):
    first, second = (r["workloads"] for r in quick_runs)
    for workload, row in first.items():
        for part, body in row.items():
            for name, entry in body["metrics"].items():
                if name in metrics.EXACT:
                    again = second[workload][part]["metrics"][name]["value"]
                    assert entry["value"] == again, (workload, name)


def test_service_round_structure(quick_runs):
    service = quick_runs[0]["workloads"]["service_mixed_p8"]
    layer = {k: v["value"] for k, v in service["per_layer"]["metrics"].items()}
    assert layer["service.rounds"] == 20
    assert layer["service.submitted"] == 56 + 2  # correct jobs + ingests
    assert layer["service.coalesced"] == 52
    assert layer["service.rejected"] == 0
    assert service["end_to_end"]["job_samples"] == 56


def test_traced_run_accounts_for_its_time(quick_runs):
    for workload, row in quick_runs[0]["workloads"].items():
        traced = row["per_layer"]
        assert traced["accounted_s"] == pytest.approx(
            traced["iteration_s"], rel=0.01
        ), workload
        sched = traced["metrics"].get("simmpi.sched_s")
        if workload == "serial_ecoli":
            assert sched is None
        else:
            assert sched["value"] >= 0


# -- the driver's contract -----------------------------------------------
@pytest.mark.parametrize("trace,names", [
    ("0", metrics.END_TO_END_NAMES), ("1", metrics.PER_LAYER_NAMES),
])
def test_last_line_is_the_contract_object(trace, names):
    done = run("--workload", "serial_ecoli", "--seed", "3", "--seconds", "1",
               "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert tuple(result["metrics"]) == names
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metrics.UNITS[name]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serial_ecoli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout


# -- oracle and compare --------------------------------------------------
def test_oracle_counts_a_flipped_base_as_a_failed_read():
    codes = np.arange(40, dtype=np.uint8).reshape(8, 5) % 4
    expectation = oracle.Expectation(ids=np.arange(1, 9), codes=codes)
    oracle.self_check(expectation)
    flipped = codes.copy()
    flipped[3, 2] ^= 1
    assert expectation.failed_reads(expectation.ids, flipped) == 1
    assert expectation.failed_reads(np.array([99]), codes[:1]) == 1
    tally = oracle.Tally()
    tally.check(expectation, expectation.ids[:6], codes[:6], submitted=8)
    assert (tally.attempted, tally.failed) == (8, 2)  # two reads missing


def test_compare_labels(quick_runs):
    base = copy.deepcopy(quick_runs[0])
    # One-iteration timings are noise; what must hold between two quick
    # passes is that nothing exact differs and nothing is incorrect.
    lines, bad = compare.compare(base, quick_runs[1])
    assert not any(line.endswith(("differs", "incorrect")) for line in lines)

    def entry(result, part, name):
        return result["workloads"]["files_msg_p8"][part]["metrics"][name]

    slower = copy.deepcopy(base)
    entry(slower, "end_to_end", "wall_s")["value"] *= 2
    entry(slower, "end_to_end", "wall_s")["spread"] = 0.0
    entry(base, "end_to_end", "wall_s")["spread"] = 0.0
    entry(slower, "per_layer", "messages")["value"] += 1
    lines, bad = compare.compare(base, slower)
    assert bad == 2
    assert sum(line.endswith("regressed") for line in lines) == 1
    assert sum(line.endswith("differs") for line in lines) == 1
    entry(slower, "end_to_end", "wall_s")["spread"] = 0.9
    lines, bad = compare.compare(base, slower)
    assert bad == 1
    assert sum(line.endswith("unresolved") for line in lines) == 1
