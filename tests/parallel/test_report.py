"""Tests for the JSON run report."""

import json

import pytest

from repro.parallel import HeuristicConfig, ParallelReptile, run_report, write_run_report


@pytest.fixture(scope="module")
def result():
    from repro.bench.harness import small_scale

    scale = small_scale(genome_size=5_000, chunk_size=200)
    return ParallelReptile(
        scale.config, HeuristicConfig(universal=True), nranks=3,
        engine="cooperative",
    ).run(scale.dataset.block)


class TestRunReport:
    def test_structure(self, result):
        report = run_report(result)
        assert report["schema"] == "repro.run_report/1"
        assert report["nranks"] == 3
        assert len(report["per_rank"]) == 3
        assert report["heuristics"].startswith("universal")

    def test_totals_consistent(self, result):
        report = run_report(result)
        assert report["totals"]["reads"] == int(result.reads_per_rank().sum())
        assert report["totals"]["errors_corrected"] == result.total_corrections
        per_rank_sum = sum(r["errors_corrected"] for r in report["per_rank"])
        assert per_rank_sum == result.total_corrections

    def test_config_captured(self, result):
        report = run_report(result)
        assert report["config"]["kmer_length"] == result.config.kmer_length
        assert report["config"]["chunk_size"] == result.config.chunk_size

    def test_lookup_section_schema(self, result):
        from repro.parallel.lookup.stack import TIER_NAMES

        lookup = run_report(result)["lookup"]
        assert lookup["order"] == {
            "kmers": "owned->remote", "tiles": "owned->remote",
        }
        assert set(lookup["tiers"]) == set(TIER_NAMES)
        for tier, counters in lookup["tiers"].items():
            assert set(counters) == {"requests", "hits", "misses", "bytes"}
            assert counters["hits"] + counters["misses"] == counters["requests"]
        # This run resolves through owned + remote only; both saw
        # traffic and together they resolved everything presented.
        assert lookup["tiers"]["owned"]["requests"] > 0
        assert lookup["tiers"]["remote"]["requests"] > 0
        assert lookup["tiers"]["remote"]["misses"] == 0
        assert lookup["tiers"]["chunk_cache"]["requests"] == 0

    def test_lookup_section_reports_the_serve_batch(self, result):
        serving = run_report(result)["lookup"]["serving"]
        assert set(serving) == {"requests_served", "serve_probes", "mean_batch"}
        assert serving["requests_served"] == sum(
            s.get("requests_served") for s in result.stats
        )
        # A probe answers at least one request, and every answered
        # request was part of some probe.
        assert 0 < serving["serve_probes"] <= serving["requests_served"]
        assert serving["mean_batch"] == pytest.approx(
            serving["requests_served"] / serving["serve_probes"], abs=1e-3
        )

    def test_lookup_section_counts_probes_and_rounds(self):
        """A 4-rank owned -> remote run: every table probe is an owned
        tier hit or an id served, and the round count is the busiest
        rank's blocking requests."""
        from repro.bench.harness import small_scale

        scale = small_scale(genome_size=4_000, chunk_size=200)
        result = ParallelReptile(
            scale.config, HeuristicConfig(), nranks=4, engine="cooperative",
        ).run(scale.dataset.block)
        lookup = run_report(result)["lookup"]
        total = result.stats[0].__class__()
        for s in result.stats:
            total.merge(s)
        assert lookup["probe_ids"] == (
            total.get("lookup_owned_hits")
            + total.get("kmer_ids_served")
            + total.get("tile_ids_served")
        )
        assert 0 < lookup["probe_calls"] <= lookup["probe_ids"]
        rounds = result.counter_per_rank("blocking_request_counts")
        assert lookup["lookup_rounds"] == int(rounds.max()) > 0
        # Rounds, not tile columns (12 per read here, three lookups each).
        assert lookup["lookup_rounds"] < 3 * 12

    def test_one_rank_reports_what_runs(self):
        """A one-rank world's shard is the whole spectrum: the report
        names the replica tier that resolved every lookup, not a remote
        tier that never ran."""
        from repro.bench.harness import small_scale

        scale = small_scale(genome_size=3_000, chunk_size=200)
        for heuristics, order in (
            (HeuristicConfig(universal=True), "allgather"),
            (HeuristicConfig(read_kmers=True), "allgather"),
            (HeuristicConfig(prefetch=True), "chunk_cache->allgather"),
        ):
            result = ParallelReptile(
                scale.config, heuristics, nranks=1, engine="cooperative",
            ).run(scale.dataset.block)
            lookup = run_report(result)["lookup"]
            assert lookup["order"] == {"kmers": order, "tiles": order}
            ran = {
                tier for tier, counters in lookup["tiers"].items()
                if counters["requests"]
            }
            assert ran == set(order.split("->"))
            assert lookup["tiers"]["allgather"]["misses"] == 0

    def test_json_serializable(self, result):
        json.dumps(run_report(result))

    def test_write_and_reload(self, result, tmp_path):
        path = tmp_path / "run.json"
        write_run_report(result, path)
        loaded = json.loads(path.read_text())
        assert loaded["nranks"] == 3
        assert loaded["per_rank"][0]["rank"] == 0
        assert loaded["per_rank"][0]["timings_s"]["error_correction"] >= 0


class TestCliReport:
    def test_report_flag(self, tmp_path):
        from repro.cli import main

        fasta = tmp_path / "r.fa"
        qual = tmp_path / "r.qual"
        assert main([
            "simulate", "--genome-size", "4000", "--fasta", str(fasta),
            "--quality", str(qual),
        ]) == 0
        out = tmp_path / "c.fa"
        rep = tmp_path / "run.json"
        assert main([
            "correct", "--fasta", str(fasta), "--quality", str(qual),
            "--output", str(out), "--nranks", "2",
            "--kmer-threshold", "18", "--tile-threshold", "2",
            "--report", str(rep),
        ]) == 0
        loaded = json.loads(rep.read_text())
        assert loaded["totals"]["reads"] > 0

    def test_stats_name_the_one_rank_order(self, tmp_path, capsys):
        from repro.cli import main

        fasta = tmp_path / "r.fa"
        qual = tmp_path / "r.qual"
        assert main([
            "simulate", "--genome-size", "3000", "--fasta", str(fasta),
            "--quality", str(qual),
        ]) == 0
        assert main([
            "correct", "--fasta", str(fasta), "--quality", str(qual),
            "--output", str(tmp_path / "c.fa"), "--nranks", "1",
            "--kmer-threshold", "18", "--tile-threshold", "2", "--stats",
        ]) == 0
        out = capsys.readouterr().out
        assert "lookup order: kmers=allgather tiles=allgather" in out
