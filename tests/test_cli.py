"""Tests for the command-line interface."""

import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io.fasta import read_fasta


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    fasta = tmp / "reads.fa"
    qual = tmp / "reads.qual"
    truth = tmp / "truth.fa"
    rc = main([
        "simulate", "--profile", "E.Coli", "--genome-size", "6000",
        "--seed", "2", "--fasta", str(fasta), "--quality", str(qual),
        "--truth", str(truth),
    ])
    assert rc == 0
    return tmp, fasta, qual, truth


class TestSimulate:
    def test_outputs_exist_and_align(self, simulated):
        _, fasta, qual, truth = simulated
        reads = list(read_fasta(fasta))
        truths = list(read_fasta(truth))
        assert len(reads) == len(truths) > 1000
        assert [r[0] for r in reads] == [t[0] for t in truths]
        assert all(len(r[1]) == 102 for r in reads[:20])

    def test_localized_flag(self, tmp_path):
        rc = main([
            "simulate", "--genome-size", "5000", "--localized-errors",
            "--fasta", str(tmp_path / "a.fa"),
            "--quality", str(tmp_path / "a.qual"),
        ])
        assert rc == 0


class TestCorrect:
    def test_correct_fixes_reads(self, simulated, capsys):
        tmp, fasta, qual, truth = simulated
        out = tmp / "corrected.fa"
        rc = main([
            "correct", "--fasta", str(fasta), "--quality", str(qual),
            "--output", str(out), "--nranks", "3",
            "--kmer-threshold", "18", "--tile-threshold", "2",
            "--universal", "--stats",
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "substitutions" in captured
        assert "remote_tiles" in captured  # --stats table
        assert "shard probes (mean batch" in captured  # the serve row
        corrected = {rid: seq for rid, seq in read_fasta(out)}
        truths = {rid: seq for rid, seq in read_fasta(truth)}
        original = {rid: seq for rid, seq in read_fasta(fasta)}
        # Most originally-erroneous reads now match the truth.
        broken = [r for r in original if original[r] != truths[r]]
        fixed = sum(1 for r in broken if corrected[r] == truths[r])
        assert fixed > 0.6 * len(broken)

    def test_stats_prefetch_row(self, simulated, tmp_path, capsys):
        _, fasta, qual, _ = simulated
        args = [
            "correct", "--fasta", str(fasta), "--quality", str(qual),
            "--output", str(tmp_path / "c.fa"), "--nranks", "3",
            "--kmer-threshold", "18", "--tile-threshold", "2", "--stats",
        ]
        assert main(args) == 0
        assert "on-miss fetches" not in capsys.readouterr().out
        assert main(args + ["--prefetch"]) == 0
        row = [
            line for line in capsys.readouterr().out.splitlines()
            if line.lstrip().startswith("prefetch ")
        ]
        assert len(row) == 1
        assert "replans" in row[0] and "on-miss fetches" in row[0]

    def test_config_file_path(self, simulated, tmp_path):
        tmp, fasta, qual, _ = simulated
        from repro.config import ReptileConfig

        conf = tmp_path / "r.conf"
        ReptileConfig(
            fasta_file=str(fasta), quality_file=str(qual),
            kmer_threshold=18, tile_threshold=2,
        ).to_file(conf)
        out = tmp_path / "c.fa"
        rc = main([
            "correct", "--config", str(conf), "--output", str(out),
            "--nranks", "2",
        ])
        assert rc == 0
        assert out.exists()

    def test_empty_input_writes_empty_fasta(self, tmp_path, capsys):
        fasta, qual = tmp_path / "e.fa", tmp_path / "e.qual"
        fasta.write_text("")
        qual.write_text("")
        out = tmp_path / "o.fa"
        rc = main([
            "correct", "--fasta", str(fasta), "--quality", str(qual),
            "--output", str(out),
            "--kmer-threshold", "2", "--tile-threshold", "2",
        ])
        assert rc == 0
        assert out.read_text() == ""
        assert "corrected 0 reads" in capsys.readouterr().out

    def test_missing_input_is_error(self, tmp_path, capsys):
        rc = main(["correct", "--output", str(tmp_path / "x.fa")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["correct", "serve"])
    def test_zero_ranks_is_error_not_traceback(self, simulated, tmp_path,
                                               command):
        """``--nranks 0`` is refused like any bad parameter: exit 2 and
        one ``error:`` line, not an uncaught exception."""
        _, fasta, qual, _ = simulated
        out = (["--output", str(tmp_path / "c.fa")] if command == "correct"
               else ["--output-dir", str(tmp_path)])
        proc = subprocess.run(
            [sys.executable, "-m", "repro", command, "--fasta", str(fasta),
             "--quality", str(qual), *out, "--nranks", "0",
             "--kmer-threshold", "18", "--tile-threshold", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "error: nranks must be >= 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_heuristic_flags_accepted(self, simulated, tmp_path):
        tmp, fasta, qual, _ = simulated
        out = tmp_path / "h.fa"
        rc = main([
            "correct", "--fasta", str(fasta), "--quality", str(qual),
            "--output", str(out), "--nranks", "4",
            "--kmer-threshold", "18", "--tile-threshold", "2",
            "--batch-reads", "--read-tables", "--allgather", "tiles",
            "--replication-group", "2",
        ])
        assert rc == 0


class TestProject:
    def test_projection_table(self, capsys):
        rc = main([
            "project", "--dataset", "E.Coli", "--ranks", "1024", "8192",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "E.Coli" in out
        assert "8192" in out

    def test_imbalanced_column(self, capsys):
        rc = main([
            "project", "--dataset", "Drosophila", "--ranks", "1024",
            "--batch-reads", "--imbalanced",
        ])
        assert rc == 0
        assert "DNF" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_engine_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["correct", "--output", "x", "--engine", "mpi"]
            )

    #: Every run flag the three run subcommands share, set off-default.
    RUN_FLAGS = [
        "--nranks", "5", "--engine", "threaded", "--kmer-length", "11",
        "--tile-overlap", "3", "--kmer-threshold", "7",
        "--tile-threshold", "3", "--chunk-size", "300", "--universal",
        "--prefetch", "--batch-reads", "--read-tables",
        "--allgather", "both", "--replication-group", "2",
        "--no-load-balance",
    ]
    RUN_SET = dict(
        nranks=5, engine="threaded", kmer_length=11, tile_overlap=3,
        kmer_threshold=7, tile_threshold=3, chunk_size=300, universal=True,
        prefetch=True, batch_reads=True, read_tables=True, allgather="both",
        replication_group=2, no_load_balance=True,
    )
    RUN_DEFAULTS = dict(
        nranks=4, engine="cooperative", kmer_length=12, tile_overlap=4,
        kmer_threshold=0, tile_threshold=0, chunk_size=2000, universal=False,
        prefetch=False, batch_reads=False, read_tables=False,
        allgather="none", replication_group=1, no_load_balance=False,
    )

    @pytest.mark.parametrize("full", [True, False], ids=["full", "defaults"])
    def test_run_subcommands_parse_unchanged(self, full):
        """The parsed namespace of each run subcommand, flag for flag."""
        run = self.RUN_FLAGS if full else []
        both = ["--fasta", "a.fa", "--fasta", "b.fa",
                "--quality", "a.q", "--quality", "b.q"] if full else []
        lines = {
            "correct": [
                "correct", "--output", "o.fa", *run,
                *(["--config", "r.conf", "--fasta", "a.fa", "--quality",
                   "a.qual", "--stats", "--report", "r.json",
                   "--faults", "f.json"] if full else []),
            ],
            "session": [
                "session", "--output", "o.fa", *run, *both,
                *(["--checkpoint-dir", "ck", "--resume-dir", "rs",
                   "--stats", "--report", "r.json"] if full else []),
            ],
            "serve": [
                "serve", "--output-dir", "od", *run, *both,
                *(["--max-pending", "9", "--max-pending-per-client", "3",
                   "--stats"] if full else []),
            ],
        }
        files = dict(fasta=["a.fa", "b.fa"] if full else [],
                     quality=["a.q", "b.q"] if full else [])
        own = {
            "correct": dict(
                output="o.fa", config="r.conf" if full else None,
                fasta="a.fa" if full else None,
                quality="a.qual" if full else None, stats=full,
                report="r.json" if full else None,
                faults="f.json" if full else None,
            ),
            "session": dict(
                output="o.fa", **files, stats=full,
                checkpoint_dir="ck" if full else None,
                resume_dir="rs" if full else None,
                report="r.json" if full else None,
            ),
            "serve": dict(
                output_dir="od", **files, stats=full,
                max_pending=9 if full else 64,
                max_pending_per_client=3 if full else 8,
            ),
        }
        shared = self.RUN_SET if full else self.RUN_DEFAULTS
        for command, argv in lines.items():
            parsed = vars(build_parser().parse_args(argv))
            assert parsed == {"command": command, **shared, **own[command]}


class TestLint:
    def test_clean_target_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text(
            "def program(comm):\n"
            "    comm.send(1, None, tag=3)\n"
            "    comm.recv(source=0, tag=3)\n"
        )
        rc = main(["lint", str(target)])
        assert rc == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_exit_one_with_location(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(
            "def program(comm):\n"
            "    if comm.rank == 0:\n"
            "        comm.barrier()\n"
        )
        rc = main(["lint", str(target)])
        assert rc == 1
        out = capsys.readouterr().out
        assert f"{target}:3" in out
        assert "MPI001" in out
        assert "finding(s)" in out

    def test_disable_flag_suppresses(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(
            "def program(comm):\n"
            "    if comm.rank == 0:\n"
            "        comm.barrier()\n"
        )
        rc = main(["lint", str(target), "--disable", "MPI001"])
        assert rc == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        rc = main(["lint", ".", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for code in ("MPI001", "MPI002", "MPI003", "MPI004", "MPI005"):
            assert code in out

    def test_missing_target_is_error(self, tmp_path, capsys):
        rc = main(["lint", str(tmp_path / "nope")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_disable_code_is_error(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        rc = main(["lint", str(target), "--disable", "BOGUS999"])
        assert rc == 2
        assert "BOGUS999" in capsys.readouterr().err

    def test_repo_parallel_sources_are_clean(self, capsys):
        rc = main(["lint", "src/repro/parallel", "examples"])
        assert rc == 0
        assert "no findings" in capsys.readouterr().out


class TestAutoThresholds:
    def test_correct_without_thresholds_uses_histogram(self, simulated,
                                                       tmp_path, capsys):
        tmp, fasta, qual, truth = simulated
        out = tmp_path / "auto.fa"
        rc = main([
            "correct", "--fasta", str(fasta), "--quality", str(qual),
            "--output", str(out), "--nranks", "2",
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "auto thresholds" in printed
        # Auto-thresholded run still fixes most errors.
        corrected = {rid: seq for rid, seq in read_fasta(out)}
        truths = {rid: seq for rid, seq in read_fasta(truth)}
        original = {rid: seq for rid, seq in read_fasta(fasta)}
        broken = [r for r in original if original[r] != truths[r]]
        fixed = sum(1 for r in broken if corrected[r] == truths[r])
        assert fixed > 0.5 * len(broken)


class TestProjectJson:
    def test_json_projection(self, tmp_path, capsys):
        import json

        path = tmp_path / "proj.json"
        rc = main([
            "project", "--dataset", "E.Coli", "--ranks", "1024", "8192",
            "--imbalanced", "--json", str(path),
        ])
        assert rc == 0
        data = json.loads(path.read_text())
        assert data["dataset"] == "E.Coli"
        assert [p["nranks"] for p in data["points"]] == [1024, 8192]
        assert data["points"][0]["efficiency"] == pytest.approx(1.0)
        assert data["points"][1]["total_s"] < data["points"][0]["total_s"]
        assert isinstance(data["points"][0]["imbalanced_dnf"], bool)


class TestBenchRunner:
    def test_module_runner_subset(self, tmp_path, capsys):
        from repro.bench.__main__ import main as bench_main

        rc = bench_main(["table1", "--csv", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert (tmp_path / "table1.csv").exists()

    def test_unknown_experiment_rejected(self):
        from repro.bench.__main__ import main as bench_main

        with pytest.raises(SystemExit):
            bench_main(["fig99"])
