"""Tests for the Step IV bulk-prefetch engine.

The prefetch heuristic is a pure execution strategy: every test here pins
it to the blocking protocol's output bit for bit, across engines and
composed heuristics, and asserts the structural claims the paper's
aggregation argument rests on — zero blocking lookups during correction
and a deduplicated fetch stream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import small_scale
from repro.core.corrector import CorrectionResult, ReptileCorrector
from repro.core.spectrum import LocalSpectrumView, build_spectra
from repro.faults import FaultPlan
from repro.hashing.inthash import mix_to_rank
from repro.io.records import ReadBlock
from repro.parallel.driver import ParallelReptile
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.lookup import CachedChunkView, ChunkCountCache, PrefetchExecutor
from repro.parallel.report import prefetch_summary, run_report
from repro.parallel.server import CorrectionProtocol
from repro.simmpi import run_spmd
from repro.simmpi.instrument import PREFETCH_COUNTERS


#: Correction-phase tags: count requests/responses (per kind and
#: universal) and the two prefetch bulk tags.
CORRECTION_TAGS = (1, 2, 3, 4, 7, 8)


@pytest.fixture(scope="module")
def scale():
    """Small E.Coli-profile instance shared by the equivalence tests."""
    return small_scale("E.Coli", genome_size=4_000, chunk_size=100)


@pytest.fixture(scope="module")
def serial_reference(scale):
    """The single-process corrector's output — the equivalence anchor."""
    block, cfg = scale.dataset.block, scale.config
    spectra = build_spectra(block, cfg)
    return ReptileCorrector(cfg, LocalSpectrumView(spectra)).correct_block(block)


def _run(scale, heuristics, nranks=4, engine="cooperative", faults=None):
    return ParallelReptile(
        scale.config, heuristics, nranks=nranks, engine=engine, faults=faults
    ).run(scale.dataset.block)


def _totals(result):
    total = result.stats[0].__class__()
    for s in result.stats:
        total.merge(s)
    return total


def _ledger(result):
    """Correction-phase frames, bytes, and the corrections they bought."""
    total = _totals(result)
    return (
        sum(total.messages_by_tag.get(t, 0) for t in CORRECTION_TAGS),
        sum(total.bytes_by_tag.get(t, 0) for t in CORRECTION_TAGS),
        result.total_corrections,
    )


@pytest.fixture(scope="module")
def cooperative_ledgers(scale):
    """Prefetch off/on -> the cooperative engine's correction ledger."""
    return {
        prefetch: _ledger(_run(scale, HeuristicConfig(prefetch=prefetch)))
        for prefetch in (False, True)
    }


def _assert_identical(result, reference):
    block = result.corrected_block
    assert np.array_equal(block.codes, reference.block.codes)
    assert np.array_equal(block.lengths, reference.block.lengths)


class TestProtocolEquivalence:
    """Prefetch on/off must be byte-identical, whatever engine it runs on."""

    @pytest.mark.parametrize("prefetch", [False, True])
    @pytest.mark.parametrize("engine", ["cooperative", "threaded", "process"])
    def test_engines(
        self, scale, serial_reference, cooperative_ledgers, engine, prefetch
    ):
        res = _run(scale, HeuristicConfig(prefetch=prefetch), engine=engine)
        _assert_identical(res, serial_reference)
        # Engines are transports, not algorithms: the same frames,
        # byte for byte, and the same corrections on every one.
        assert _ledger(res) == cooperative_ledgers[prefetch]

    @pytest.mark.parametrize(
        "heuristics",
        [
            HeuristicConfig(prefetch=True, universal=True),
            HeuristicConfig(
                prefetch=True,
                batch_reads=True,
                read_kmers=True,
                read_tiles=True,
            ),
            HeuristicConfig(prefetch=True, replication_group=2),
            HeuristicConfig(prefetch=True, allgather_kmers=True),
        ],
        ids=["universal", "batch_reads", "replication_group", "allgather_kmers"],
    )
    def test_composed_heuristics(self, scale, serial_reference, heuristics):
        res = _run(scale, heuristics)
        plain = _run(scale, heuristics.with_updates(prefetch=False))
        _assert_identical(res, serial_reference)
        for a, b in zip(res.reports, plain.reports):
            assert np.array_equal(a.corrections_per_read, b.corrections_per_read)
        # Each side's frames sit on its own line — prefetch: a pair per
        # bulk exchange per owner, never a blocking lookup; blocking: a
        # pair per request served, at most one per other rank per lookup
        # round (one per kind in the base mode, where the kind is the
        # tag).  Which line is lower depends on the pieces per rank; see
        # test_fewer_correction_messages.
        total, blocking = _totals(res), _totals(plain)
        frames, plain_frames = _ledger(res)[0], _ledger(plain)[0]
        assert total.get("blocking_request_counts") == 0
        assert frames == 2 * total.get("prefetch_messages")
        served = blocking.get("requests_served")
        assert plain_frames == 2 * served
        kinds = 1 if heuristics.universal else 2
        assert served <= kinds * (res.nranks - 1) * blocking.get(
            "blocking_request_counts"
        )

    def test_bursty_errors_exercise_replay(self, bursty_reference):
        """Localized error bursts drift many windows, forcing the tail
        replay — output must still match the serial corrector."""
        res = _run(_bursty(100), HeuristicConfig(prefetch=True))
        _assert_identical(res, bursty_reference)
        total = _totals(res)
        assert total.get("prefetch_replans") > 0
        assert total.get("prefetch_tail_reads") > 0
        # One replay per chunk-sized piece of each rank's tail (however
        # placement spread the bursts over the ranks).
        for stats in res.stats:
            assert stats.get("prefetch_replans") == _pieces(
                stats.get("prefetch_tail_reads"), 100
            )


def _bursty(chunk_size, genome_size=4_000):
    """The bursty-error instance (the dataset does not depend on the
    chunk size, so one serial reference serves every chunking)."""
    return small_scale(
        "E.Coli",
        genome_size=genome_size,
        localized_errors=True,
        chunk_size=chunk_size,
    )


@pytest.fixture(scope="module")
def bursty_reference():
    bursty = _bursty(250)
    spectra = build_spectra(bursty.dataset.block, bursty.config)
    return ReptileCorrector(
        bursty.config, LocalSpectrumView(spectra)
    ).correct_block(bursty.dataset.block)


@pytest.fixture(scope="module")
def blocking_codes():
    """Corrected codes of the blocking protocol on the bursty instance,
    per rank count."""
    return {
        nranks: _run(
            _bursty(250), HeuristicConfig(), nranks=nranks
        ).corrected_block.codes
        for nranks in (2, 4, 8)
    }


def _pieces(reads, size):
    return -(-reads // size)


#: Ceilings on correction-phase frames (tags 1-4, 7, 8) on the bursty
#: instance, (chunk_size, nranks) -> frames: what the per-chunk replan
#: loop this engine replaced sent at the parent commit.
FRAME_CEILINGS = {
    (50, 2): 470, (50, 4): 1582, (50, 8): 3954,
    (100, 2): 256, (100, 4): 910, (100, 8): 2262,
    (250, 2): 116, (250, 4): 428,
    # The exception: two chunks a rank is the break-even, the loop sent
    # 1048 frames here and the tail's on-miss fetches make it 1088.
    (250, 8): 1088,
}


class TestRankWideTail:
    """A chunk that missed does not replay; the rank's tainted reads are
    re-planned and replayed once, authoritatively, after its last chunk."""

    @pytest.mark.parametrize("nranks", [2, 4, 8])
    @pytest.mark.parametrize("chunk_size", [50, 100, 250])
    def test_one_replay_per_rank(
        self, chunk_size, nranks, bursty_reference, blocking_codes, monkeypatch
    ):
        calls = {}
        inner = ReptileCorrector.correct_block

        def counting(self, block):
            if isinstance(self.view, CachedChunkView):
                rank = self.view.comm.rank
                calls[rank] = calls.get(rank, 0) + 1
            return inner(self, block)

        monkeypatch.setattr(ReptileCorrector, "correct_block", counting)
        res = _run(_bursty(chunk_size), HeuristicConfig(prefetch=True), nranks)
        _assert_identical(res, bursty_reference)
        assert np.array_equal(
            res.corrected_block.codes, blocking_codes[nranks]
        )
        for rank, (report, stats) in enumerate(zip(res.reports, res.stats)):
            chunks = _pieces(len(report.block), chunk_size)
            pieces = _pieces(stats.get("prefetch_tail_reads"), chunk_size)
            # Parent: chunks + one call per replan-loop round.
            assert calls[rank] == chunks + pieces
            assert stats.get("prefetch_replans") == pieces
        total = _totals(res)
        assert total.get("prefetch_tail_reads") > 0
        assert total.get("blocking_request_counts") == 0
        frames = sum(total.messages_by_tag.get(t, 0) for t in CORRECTION_TAGS)
        assert frames <= FRAME_CEILINGS[chunk_size, nranks]

    def test_long_tail_is_cut_into_chunk_sized_pieces(self, bursty_reference):
        """The chunk bound on transient arrays holds in the tail too."""
        res = _run(_bursty(20), HeuristicConfig(prefetch=True), nranks=2)
        _assert_identical(res, bursty_reference)
        for stats in res.stats:
            tail = stats.get("prefetch_tail_reads")
            assert tail > 20
            assert stats.get("prefetch_replans") == _pieces(tail, 20) > 1

    def test_incomplete_attribution_replays_whole_chunks(
        self, bursty_reference, monkeypatch
    ):
        """Without ``note_rows`` the corrector cannot say which read a
        miss taints, so every chunk that missed joins the tail whole."""
        attributed = _totals(_run(_bursty(100), HeuristicConfig(prefetch=True)))
        monkeypatch.delattr(CachedChunkView, "note_rows")
        res = _run(_bursty(100), HeuristicConfig(prefetch=True))
        _assert_identical(res, bursty_reference)
        whole = _totals(res).get("prefetch_tail_reads")
        assert whole > 2 * attributed.get("prefetch_tail_reads")
        for report, stats in zip(res.reports, res.stats):
            # Whole chunks only: 100 reads each, but for the rank's last.
            assert stats.get("prefetch_tail_reads") % 100 in (
                0, len(report.block) % 100
            )

    @pytest.mark.parametrize("engine", ["cooperative", "threaded", "process"])
    def test_on_miss_fetch_across_engines(self, bursty_reference, engine):
        res = _run(_bursty(100), HeuristicConfig(prefetch=True), engine=engine)
        _assert_identical(res, bursty_reference)
        total = _totals(res)
        assert total.get("prefetch_miss_fetches") > 0
        assert total.get("blocking_request_counts") == 0

    def test_on_miss_fetch_survives_drops_and_duplicates(
        self, bursty_reference
    ):
        """The on-miss fetch rides the endpoint's resilient collect."""
        plan = FaultPlan(
            seed=5,
            drop_rate=0.05,
            duplicate_rate=0.05,
            max_drops_per_frame=2,
            base_timeout_s=0.05,
            max_retries=8,
        )
        res = _run(_bursty(100), HeuristicConfig(prefetch=True), faults=plan)
        _assert_identical(res, bursty_reference)
        total = _totals(res)
        assert total.get("prefetch_miss_fetches") > 0
        assert total.get("frames_dropped") > 0
        assert total.get("frames_duplicated") > 0

    def test_counter_family_and_summary(self):
        """Every ``prefetch_*`` counter a run bumps is in the glossary;
        on-miss fetches are fetches; the cache footprint is reported."""
        res = _run(_bursty(100), HeuristicConfig(prefetch=True))
        total = _totals(res)
        bumped = {n for n in total.counters if n.startswith("prefetch_")}
        assert bumped <= set(PREFETCH_COUNTERS)
        assert run_report(res)["prefetch"] == {
            name: total.get(name) for name in PREFETCH_COUNTERS
        }
        summary = prefetch_summary(total)
        assert summary["replans"] + summary["miss_fetches"] < summary["fetches"]
        assert summary["tail_reads"] == total.get("prefetch_tail_reads")
        assert 0 < summary["miss_ratio"] < 0.05
        assert summary["cache_bytes"] > 0
        # Off the prefetch path the family is all zeros.
        plain = run_report(_run(_bursty(100), HeuristicConfig()))
        assert not any(plain["prefetch"].values())


def _fake_result(rng, n, width):
    return CorrectionResult(
        block=ReadBlock(
            ids=np.arange(n, dtype=np.int64),
            codes=rng.integers(0, 4, (n, width), dtype=np.uint8),
            lengths=np.full(n, width, dtype=np.int32),
            quals=np.zeros((n, width), dtype=np.uint8),
        ),
        corrections_per_read=rng.integers(0, 5, n),
        reads_reverted=rng.integers(0, 2, n).astype(bool),
        tiles_examined=0,
        tiles_below_threshold=0,
        tiles_examined_per_read=rng.integers(0, 12, n),
        tiles_below_per_read=rng.integers(0, 12, n),
    )


PER_READ_FIELDS = (
    "corrections_per_read",
    "reads_reverted",
    "tiles_examined_per_read",
    "tiles_below_per_read",
)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_splice_restores_every_per_read_field(sizes, seed, data):
    """Splicing a tail result over any (chunk, row) taint set puts the
    replayed value of every per-read field in its chunk's row, touches
    no other row, and recomputes the chunk totals."""
    rng = np.random.default_rng(seed)
    truth = [_fake_result(rng, n, 6) for n in sizes]
    results = [_fake_result(rng, n, 6) for n in sizes]
    taint = sorted(data.draw(st.sets(st.sampled_from(
        [(c, r) for c, n in enumerate(sizes) for r in range(n)]
    ))))
    chunk_of = np.array([c for c, _ in taint], dtype=np.int64)
    rows = np.array([r for _, r in taint], dtype=np.int64)
    # What the first pass got right already agrees with the truth.
    for c, n in enumerate(sizes):
        clean = np.setdiff1d(np.arange(n), rows[chunk_of == c])
        results[c].block.codes[clean] = truth[c].block.codes[clean]
        for name in PER_READ_FIELDS:
            getattr(results[c], name)[clean] = getattr(truth[c], name)[clean]
    sub = _fake_result(rng, len(taint), 6)
    for j, (c, r) in enumerate(taint):
        sub.block.codes[j] = truth[c].block.codes[r]
        for name in PER_READ_FIELDS:
            getattr(sub, name)[j] = getattr(truth[c], name)[r]
    PrefetchExecutor._splice(results, chunk_of, rows, sub)
    for c in set(chunk_of.tolist()):
        got, want = results[c], truth[c]
        assert np.array_equal(got.block.codes, want.block.codes)
        for name in PER_READ_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.tiles_examined == int(want.tiles_examined_per_read.sum())
        assert got.tiles_below_threshold == int(want.tiles_below_per_read.sum())


class TestStructuralClaims:
    def test_zero_blocking_lookups_under_prefetch(self, scale):
        """The tentpole guarantee: pass 2 never issues a blocking
        request_counts round trip."""
        with_pf = _totals(_run(scale, HeuristicConfig(prefetch=True)))
        without = _totals(_run(scale, HeuristicConfig()))
        assert with_pf.get("blocking_request_counts") == 0
        assert without.get("blocking_request_counts") > 0

    def test_fewer_correction_messages(self, scale):
        """Each side's frames are its own alpha-beta line, exactly.
        Blocking pays one request/response pair per other rank and kind
        per lookup round of a rank's share (chunk_size does not enter);
        prefetch pays one pair per owner per bulk exchange: two planned
        per piece, plus the tail's re-plans and on-miss fetches.  So
        prefetch sends fewer only while a rank's exchanges stay below
        its lookup rounds: with one piece per rank, as here (at this
        instance's chunk_size of 100 it sends more)."""
        nranks = 4
        one_piece = small_scale("E.Coli", genome_size=4_000, chunk_size=10**6)
        base_run = _run(one_piece, HeuristicConfig(), nranks=nranks)
        base = _totals(base_run)
        pf = _totals(
            _run(one_piece, HeuristicConfig(prefetch=True), nranks=nranks)
        )
        base_msgs = sum(base.messages_by_tag.get(t, 0) for t in CORRECTION_TAGS)
        pf_msgs = sum(pf.messages_by_tag.get(t, 0) for t in CORRECTION_TAGS)

        rounds = base.get("blocking_request_counts")
        served = base.get("requests_served")
        assert 0 < served <= 2 * (nranks - 1) * rounds
        assert base_msgs == 2 * served

        chunk = one_piece.config.chunk_size
        chunks = sum(-(-int(n) // chunk) for n in base_run.reads_per_rank())
        fetches = pf.get("prefetch_fetches")
        assert fetches == (
            2 * chunks
            + pf.get("prefetch_replans")
            + pf.get("prefetch_miss_fetches")
        )
        frames = pf.get("prefetch_messages")
        assert 2 * chunks * (nranks - 1) <= frames <= fetches * (nranks - 1)
        assert pf_msgs == 2 * frames
        assert pf.get("blocking_request_counts") == 0
        assert pf_msgs < base_msgs

    def test_remote_ids_deduped_counter(self, scale):
        """The blocking view also dedups in-batch ids and accounts for
        every id it kept off the wire."""
        total = _totals(_run(scale, HeuristicConfig()))
        deduped = total.get("remote_kmer_ids_deduped") + total.get(
            "remote_tile_ids_deduped"
        )
        assert deduped > 0
        served = total.get("kmer_ids_served") + total.get("tile_ids_served")
        issued = total.get("remote_kmer_lookups") + total.get(
            "remote_tile_lookups"
        )
        assert served == issued - deduped

    def test_prefetch_hit_counters_reported(self, scale):
        total = _totals(_run(scale, HeuristicConfig(prefetch=True)))
        assert total.get("prefetch_fetches") > 0
        assert total.get("prefetch_kmer_hits") > 0
        assert total.get("prefetch_tile_hits") > 0

    @pytest.mark.parametrize(
        "heuristics",
        [
            HeuristicConfig(),
            HeuristicConfig(prefetch=True),
            HeuristicConfig(prefetch=True, replication_group=2),
            HeuristicConfig(prefetch=True, read_kmers=True, read_tiles=True),
            HeuristicConfig(allgather_kmers=True),
        ],
        ids=["base", "prefetch", "group", "reads", "allgather"],
    )
    def test_per_tier_ledger_balances(self, scale, heuristics):
        """At every compiled tier, hits + misses == requests; under
        prefetch the chunk-cache tier carries the load."""
        from repro.parallel.lookup.stack import TIER_NAMES

        total = _totals(_run(scale, heuristics))
        for tier in TIER_NAMES:
            requests = total.get(f"lookup_{tier}_requests")
            hits = total.get(f"lookup_{tier}_hits")
            misses = total.get(f"lookup_{tier}_misses")
            assert hits + misses == requests, tier
            assert total.get(f"lookup_{tier}_bytes") == 12 * hits, tier
        if heuristics.use_prefetch:
            assert total.get("lookup_chunk_cache_requests") > 0
        else:
            assert total.get("lookup_chunk_cache_requests") == 0


class TestEndpoint:
    def test_bulk_round_trip(self):
        """A fetch is a round of the one protocol: two rounds in flight
        at once, as the prefetch pipeline keeps them, and collecting the
        later one first still gives each round exactly its own
        owner-authoritative counts, serving peers while waiting — in
        both frame layouts."""

        def prog(comm, universal):
            keys = np.arange(400, dtype=np.uint64)
            owners = np.asarray(mix_to_rank(keys, comm.size))
            from repro.parallel.build import RankSpectra
            from repro.kmer.tiles import TileShape

            sp = RankSpectra(shape=TileShape(12, 4), rank=comm.rank, nranks=comm.size)
            mine = keys[owners == comm.rank]
            sp.kmers.add_counts(mine, mine + np.uint64(1))
            sp.tiles.add_counts(mine, mine * np.uint64(2))
            proto = CorrectionProtocol(comm, sp.kmers, sp.tiles, universal=universal)

            def chunks(lo, hi):
                out = {}
                for owner in range(comm.size):
                    ids = keys[lo:hi][owners[lo:hi] == owner]
                    if owner != comm.rank and ids.size:
                        out[owner] = (np.concatenate([ids, ids[::2]]), ids.size)
                return out

            first, second = chunks(0, 200), chunks(200, 400)
            seqs = [proto.post(first), proto.post(second)]
            for seq, asked in zip(reversed(seqs), (second, first)):
                answers = proto.collect(seq)
                assert set(answers) == set(asked)
                for owner, (ids, n_kmer) in asked.items():
                    want = np.concatenate([ids[:n_kmer] + 1, ids[n_kmer:] * 2])
                    assert np.array_equal(answers[owner], want.astype(np.uint32))
            proto.finish()
            return True

        for universal in (False, True):
            run = run_spmd(lambda comm: prog(comm, universal), 4, engine="cooperative")
            assert run.results == [True] * 4

    def test_cache_is_idempotent(self):
        cache = ChunkCountCache()
        ids = np.array([5, 5, 9], dtype=np.uint64)
        cache.add_kmers(ids, np.array([3, 3, 0], dtype=np.uint32))
        # Re-adding must not accumulate; the first deposit wins.
        cache.add_kmers(ids, np.array([7, 7, 7], dtype=np.uint32))
        counts, found = cache.kmers.lookup_found(
            np.array([5, 9, 11], dtype=np.uint64)
        )
        assert counts.tolist() == [3, 0, 0]
        # An explicit zero is "known absent", an unseen key is not known.
        assert found.tolist() == [True, True, False]
