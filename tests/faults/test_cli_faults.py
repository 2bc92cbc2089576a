"""`repro correct --faults plan.json`: the CLI chaos path.

The corrected fasta under an armed plan must equal the one a plan-free
invocation writes — the command-line face of the survivability
contract — and the JSON report must carry the resilience ledger.
"""

import json

import pytest

from repro.cli import main
from repro.faults import CrashFault, FaultPlan
from repro.io.fasta import read_fasta


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_faults")
    fasta, qual = tmp / "reads.fa", tmp / "reads.qual"
    rc = main([
        "simulate", "--profile", "E.Coli", "--genome-size", "4000",
        "--seed", "2", "--fasta", str(fasta), "--quality", str(qual),
    ])
    assert rc == 0
    return tmp, fasta, qual


def _correct(tmp, fasta, qual, out, *extra):
    return main([
        "correct", "--fasta", str(fasta), "--quality", str(qual),
        "--output", str(out), "--nranks", "4",
        "--kmer-threshold", "18", "--tile-threshold", "2",
        *extra,
    ])


class TestFaultsFlag:
    def test_chaos_output_matches_clean_output(self, simulated, capsys):
        tmp, fasta, qual = simulated
        clean, chaotic = tmp / "clean.fa", tmp / "chaotic.fa"
        assert _correct(tmp, fasta, qual, clean) == 0

        plan = FaultPlan(
            seed=9, drop_rate=0.05, max_drops_per_frame=2,
            crashes=(CrashFault(rank=1, after_events=4),),
        )
        plan_path = tmp / "plan.json"
        plan_path.write_text(plan.to_json())
        report_path = tmp / "run.json"
        rc = _correct(
            tmp, fasta, qual, chaotic,
            "--faults", str(plan_path), "--report", str(report_path),
        )
        assert rc == 0
        assert "recovered from injected crash of rank(s) [1]" in \
            capsys.readouterr().out
        assert list(read_fasta(chaotic)) == list(read_fasta(clean))

        report = json.loads(report_path.read_text())
        res = report["resilience"]
        assert res["crashed_ranks"] == [1]
        assert res["frames_dropped"] > 0
        assert res["lookup_retries"] > 0
        assert res["takeover_reads"] > 0

    @pytest.mark.parametrize(
        "plan, field",
        [
            ({"crashes": [{"rank": 1, "after": 3}]}, "after"),
            ({"drop_rate": "0.1"}, "drop_rate"),
        ],
    )
    def test_bad_plan_is_a_usage_error(self, simulated, capsys, plan, field):
        """A misspelled or mistyped plan field exits 2 with an
        ``error:`` line naming it, as every other ReproError does."""
        tmp, fasta, qual = simulated
        plan_path = tmp / f"bad_{field}.json"
        plan_path.write_text(json.dumps(plan))
        rc = _correct(
            tmp, fasta, qual, tmp / "never.fa", "--faults", str(plan_path)
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    def test_report_is_all_zero_without_plan(self, simulated):
        """No plan, no resilience trace — in both frame layouts the
        resilient-capable collect sends (per-kind tags and universal)."""
        tmp, fasta, qual = simulated
        report_path = tmp / "clean_run.json"
        for heuristics in ([], ["--universal"]):
            rc = _correct(
                tmp, fasta, qual, tmp / "clean2.fa",
                "--report", str(report_path), *heuristics,
            )
            assert rc == 0
            res = json.loads(report_path.read_text())["resilience"]
            assert res.pop("crashed_ranks") == []
            assert set(res.values()) == {0}, heuristics
