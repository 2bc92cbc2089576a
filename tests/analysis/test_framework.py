"""The rule framework itself: registry integrity, execution-order
independence, noqa semantics, baselines, output formats, and the CLI's
exit-code contract."""

import json
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import lint_source
from repro.analysis.rules import SEVERITIES, all_rules, get_rule
from repro.analysis.runner import (
    apply_baseline,
    fingerprint,
    lint_paths,
    load_baseline,
    noqa_codes,
    run_checks,
    write_baseline,
)
from repro.analysis.summary import build_program, summarize_module
from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The source behind the golden JSON/SARIF reports: one finding each
#: from MPI001, MPI002, MPI003 and MPI006.
GOLDEN_SOURCE = """\
def program(comm):
    if comm.rank == 0:
        comm.barrier()
    comm.send(1, {"a": 1}, tag=7)
    comm.recv(source=0, tag=9)
"""

#: A denser program exercising module- and program-phase rules alike,
#: used by the order-independence property test.
BUSY_SOURCE = """\
class Tags:
    SCAN_REQUEST = 31
    SCAN_RESPONSE = 32

def program(comm):
    if comm.rank == 0:
        comm.barrier()
    comm.send(1, {"a": 1}, tag=7)
    comm.send(2, None, tag=Tags.SCAN_REQUEST)
    comm.recv(source=0, tag=9)

def launch(run_spmd):
    seen = []

    def worker(comm):
        seen.append(comm.rank)

    run_spmd(worker, nranks=2, engine="threaded")
"""


class TestRegistry:
    def test_every_rule_has_identity_and_docs(self):
        for rule in all_rules():
            assert rule.code.startswith("MPI") and len(rule.code) == 6
            assert rule.name
            assert rule.severity in SEVERITIES
            assert rule.summary
            assert len(rule.doc) > 40

    def test_docs_rule_table_matches_registry(self, capsys):
        """docs/ANALYSIS.md's rule catalogue names exactly the codes
        `repro lint --list-rules` registers, with their severities."""
        assert main(["lint", "--list-rules"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines() if line]
        docs = Path(__file__).parents[2] / "docs" / "ANALYSIS.md"
        rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in docs.read_text().splitlines()
            if line.startswith("| MPI")
        ]
        assert [row[0] for row in rows] == listed
        assert {row[0]: row[1] for row in rows} == {
            rule.code: rule.severity for rule in all_rules()
        }

    def test_every_rule_but_parse_error_has_a_check(self):
        for rule in all_rules():
            if rule.code in ("MPI000", "MPI003"):
                # MPI000 is raised by the driver on SyntaxError;
                # MPI003 shares MPI002's ledger pass.
                continue
            assert rule.module_check or rule.program_check, rule.code

    def test_get_rule(self):
        assert get_rule("MPI008") is not None
        assert get_rule("MPI999") is None

    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(all_rules()))
    def test_execution_order_does_not_change_findings(self, order):
        import ast

        tree = ast.parse(BUSY_SOURCE)
        program = build_program([summarize_module(tree, "busy.py")])
        baseline = sorted(
            (f.path, f.line, f.col, f.code, f.message)
            for f in run_checks(program)
        )
        shuffled = sorted(
            (f.path, f.line, f.col, f.code, f.message)
            for f in run_checks(program, rules=order)
        )
        assert shuffled == baseline
        assert baseline  # the fixture must actually produce findings


class TestNoqaSemantics:
    def test_no_comment(self):
        assert noqa_codes("comm.send(1, None, tag=3)") is None

    def test_bare_noqa_suppresses_all(self):
        assert noqa_codes("x = 1  # noqa") == frozenset()

    def test_single_code(self):
        assert noqa_codes("x = 1  # noqa: MPI003") == {"MPI003"}

    def test_comma_separated_list(self):
        assert noqa_codes("x = 1  # noqa: MPI002,MPI003") == \
            {"MPI002", "MPI003"}

    def test_space_separated_list(self):
        assert noqa_codes("x = 1  # noqa: MPI002 MPI003") == \
            {"MPI002", "MPI003"}

    def test_lowercase_and_spacing(self):
        assert noqa_codes("x = 1  #NOQA:mpi002 ,  mpi003") == \
            {"MPI002", "MPI003"}

    def test_trailing_justification(self):
        assert noqa_codes("x = 1  # noqa: MPI011 - serving site") == \
            {"MPI011"}

    def test_comma_list_suppresses_both_rules(self):
        source = textwrap.dedent("""
            def program(comm):
                comm.send(1, None, tag=9)
                comm.recv(source=0, tag=8)  # noqa: MPI002,MPI003
        """)
        # The recv has MPI002; the send's MPI003 is on another line and
        # must survive.
        assert [f.code for f in lint_source(source, "p.py")] == ["MPI003"]

    def test_bare_noqa_on_line_with_two_findings(self):
        source = textwrap.dedent("""
            def program(comm):
                comm.send(1, {"a": 1}, tag=9)  # noqa
                comm.recv(source=0, tag=9)
        """)
        assert lint_source(source, "p.py") == []


class TestBaseline:
    def _findings(self):
        return lint_source(GOLDEN_SOURCE, "prog.py")

    def test_fingerprint_is_line_number_free(self):
        f1, f2 = self._findings()[0], self._findings()[0]
        assert fingerprint(f1) == fingerprint(f2)
        assert "line <n>" in fingerprint(f1)  # MPI001 embeds a line ref

    def test_roundtrip_suppresses_exactly_the_recorded_set(self, tmp_path):
        findings = self._findings()
        path = tmp_path / "baseline.json"
        write_baseline(findings, path)
        baseline = load_baseline(path)
        kept, dropped = apply_baseline(findings, baseline)
        assert kept == []
        assert dropped == len(findings)

    def test_multiset_semantics(self, tmp_path):
        findings = self._findings()
        path = tmp_path / "baseline.json"
        write_baseline(findings[:1], path)
        baseline = load_baseline(path)
        kept, dropped = apply_baseline(findings[:1] * 2, baseline)
        assert dropped == 1
        assert len(kept) == 1

    def test_missing_baseline_is_config_error(self, tmp_path):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            load_baseline(tmp_path / "nope.json")

    def test_cli_write_then_lint_with_baseline(self, tmp_path, capsys):
        target = tmp_path / "prog.py"
        target.write_text(GOLDEN_SOURCE)
        baseline = tmp_path / "baseline.json"
        rc = main(["lint", str(target), "--write-baseline", str(baseline)])
        assert rc == 0
        assert "fingerprint(s)" in capsys.readouterr().out
        rc = main(["lint", str(target), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no findings" in out and "baselined" in out
        # A newly introduced bug still surfaces through the baseline.
        target.write_text(GOLDEN_SOURCE + "\n\ndef extra(comm):\n"
                          "    comm.recv(source=0, tag=55)\n")
        rc = main(["lint", str(target), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "tag 55" in out


class TestExitCodes:
    def test_clean_exits_zero(self, tmp_path):
        target = tmp_path / "ok.py"
        target.write_text("def program(comm):\n"
                          "    comm.send(1, None, tag=3)\n"
                          "    comm.recv(source=0, tag=3)\n")
        assert main(["lint", str(target)]) == 0

    def test_findings_exit_one(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(GOLDEN_SOURCE)
        assert main(["lint", str(target)]) == 1
        capsys.readouterr()

    def test_parse_error_exits_two(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        rc = main(["lint", str(target)])
        out = capsys.readouterr().out
        assert rc == 2
        assert "MPI000" in out

    def test_parse_error_outranks_findings(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        (tmp_path / "bad.py").write_text(GOLDEN_SOURCE)
        rc = main(["lint", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()

    def test_internal_error_exits_two(self, tmp_path, capsys):
        rc = main(["lint", str(tmp_path / "missing")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestExplain:
    def test_explain_prints_rule_doc(self, capsys):
        rc = main(["lint", "--explain", "MPI008"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "MPI008" in out
        assert "[error]" in out
        assert "responder" in out.lower() or "request" in out.lower()
        assert "# noqa: MPI008" in out

    def test_explain_is_case_insensitive(self, capsys):
        assert main(["lint", "--explain", "mpi011"]) == 0
        capsys.readouterr()

    def test_explain_unknown_code_is_error(self, capsys):
        rc = main(["lint", "--explain", "MPI999"])
        assert rc == 2
        assert "MPI999" in capsys.readouterr().err

    def test_no_paths_without_mode_flag_is_error(self, capsys):
        rc = main(["lint"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestOutputFormats:
    def test_json_golden(self):
        from repro.analysis.output import render_json

        findings = lint_source(GOLDEN_SOURCE, "prog.py")
        expected = (GOLDEN_DIR / "findings.json").read_text()
        assert render_json(findings, ["prog.py"]) == expected

    def test_sarif_golden(self):
        from repro.analysis.output import render_sarif

        findings = lint_source(GOLDEN_SOURCE, "prog.py")
        expected = (GOLDEN_DIR / "findings.sarif").read_text()
        assert render_sarif(findings, ["prog.py"]) == expected

    def test_sarif_validates_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        from repro.analysis.output import render_sarif

        findings = lint_source(GOLDEN_SOURCE, "prog.py")
        log = json.loads(render_sarif(findings, ["prog.py"]))
        schema = json.loads(
            (Path(__file__).parent / "sarif-2.1.0-subset.schema.json")
            .read_text()
        )
        jsonschema.validate(instance=log, schema=schema)
        # And the log carries the full rule catalog + located results.
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert {r["id"] for r in driver["rules"]} >= {"MPI001", "MPI011"}
        result = log["runs"][0]["results"][0]
        assert result["ruleId"] == "MPI001"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 3
        assert region["startColumn"] >= 1

    def test_empty_sarif_still_validates(self):
        jsonschema = pytest.importorskip("jsonschema")
        from repro.analysis.output import render_sarif

        log = json.loads(render_sarif([], []))
        schema = json.loads(
            (Path(__file__).parent / "sarif-2.1.0-subset.schema.json")
            .read_text()
        )
        jsonschema.validate(instance=log, schema=schema)
        assert log["runs"][0]["results"] == []

    def test_cli_json_format_to_file(self, tmp_path, capsys):
        target = tmp_path / "prog.py"
        target.write_text(GOLDEN_SOURCE)
        out_path = tmp_path / "findings.json"
        rc = main(["lint", str(target), "--format", "json",
                   "--out", str(out_path)])
        assert rc == 1  # findings exist; exit code reflects them
        assert "findings.json" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["version"] == 1
        assert {f["code"] for f in doc["findings"]} == \
            {"MPI001", "MPI002", "MPI003", "MPI006"}
        assert all(f["severity"] in ("error", "warning")
                   for f in doc["findings"])

    def test_cli_sarif_format_to_stdout(self, tmp_path, capsys):
        target = tmp_path / "prog.py"
        target.write_text(GOLDEN_SOURCE)
        rc = main(["lint", str(target), "--format", "sarif"])
        assert rc == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"


class TestWholeProgramRepoTargets:
    def test_full_src_tree_is_clean(self):
        """The acceptance bar: `repro lint src` (plus benchmarks and
        examples, the CI target set) is clean with no baseline."""
        result = lint_paths(["src", "benchmarks", "examples"])
        assert result.clean, [f.render() for f in result.findings]
        assert len(result.files) > 100
