"""``prefetch=True`` runs the blocking lookahead: prefetch on ≡ off.

:attr:`HeuristicConfig.prefetch` is accepted and selects nothing: a
prefetch plan corrects each rank's share with the same blocking
lookahead every messaging plan runs (one request per owner per dependent
round, each candidate's look-ahead tiles in the same round).  A count is
the same whoever fetches it and whenever, so every pin here holds the
two plans to the same corrected reads — the serial reference's — and to
the same frames, byte for byte, on every engine, on uniform and on
bursty (``localized_errors``) reads, alone and composed with the other
heuristics.
"""

import numpy as np
import pytest

from repro.bench.harness import small_scale
from repro.core.corrector import ReptileCorrector
from repro.core.spectrum import LocalSpectrumView, build_spectra
from repro.faults import FaultPlan
from repro.hashing.counthash import CountHash
from repro.hashing.inthash import mix_to_rank
from repro.parallel.driver import ParallelReptile
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.lookup.stack import TIER_NAMES, add_fresh, tier_order
from repro.parallel.server import CorrectionProtocol
from repro.simmpi import run_spmd

#: The bursty instance's plan: what the ``static_prefetch_p8`` benchmark
#: row runs, prefetch on and off.
GROUP2 = HeuristicConfig(replication_group=2)


@pytest.fixture(scope="module")
def scale():
    """Small E.Coli-profile instance shared by the equivalence tests."""
    return small_scale("E.Coli", genome_size=4_000, chunk_size=100)


def _serial(scale):
    block, cfg = scale.dataset.block, scale.config
    spectra = build_spectra(block, cfg)
    return ReptileCorrector(cfg, LocalSpectrumView(spectra)).correct_block(block)


@pytest.fixture(scope="module")
def serial_reference(scale):
    """The single-process corrector's output — the equivalence anchor."""
    return _serial(scale)


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
    """Frames and bytes per tag, and the corrections they bought."""
    total = _totals(result)
    return (
        dict(total.messages_by_tag),
        dict(total.bytes_by_tag),
        result.total_corrections,
    )


def _assert_identical(result, reference):
    block = result.corrected_block
    assert np.array_equal(block.codes, reference.block.codes)
    assert np.array_equal(block.lengths, reference.block.lengths)


def _assert_same_plan(on, off):
    """Prefetch on and off: the same reads, corrections, frames and
    counters."""
    assert np.array_equal(on.corrected_block.codes, off.corrected_block.codes)
    for a, b in zip(on.reports, off.reports):
        assert np.array_equal(a.corrections_per_read, b.corrections_per_read)
    assert _ledger(on) == _ledger(off)
    assert _totals(on).counters == _totals(off).counters


@pytest.fixture(scope="module")
def cooperative_ledger(scale):
    """The cooperative engine's ledger of the plain blocking plan."""
    return _ledger(_run(scale, HeuristicConfig()))


class TestProtocolEquivalence:
    """Prefetch on/off must be byte-identical, whatever engine it runs on."""

    @pytest.mark.parametrize("prefetch", [False, True])
    @pytest.mark.parametrize("engine", ["cooperative", "threaded", "process"])
    def test_engines(
        self, scale, serial_reference, cooperative_ledger, engine, prefetch
    ):
        res = _run(scale, HeuristicConfig(prefetch=prefetch), engine=engine)
        _assert_identical(res, serial_reference)
        # Engines are transports, not algorithms, and the flag selects
        # nothing: the same frames, byte for byte, and the same
        # corrections on every engine, prefetch on or off.
        assert _ledger(res) == cooperative_ledger

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
        _assert_identical(res, serial_reference)
        _assert_same_plan(res, _run(scale, heuristics.with_updates(prefetch=False)))

    def test_bursty_errors_exercise_replay(self, bursty):
        """Localized error bursts make corrections rewrite later tiles,
        which the lookahead looks up again in later rounds: the group-2
        plan the benchmark row runs, prefetch on and off, runs those
        rounds alike and matches the serial corrector."""
        scale, reference = bursty
        on = _run(scale, GROUP2.with_updates(prefetch=True))
        _assert_identical(on, reference)
        _assert_same_plan(on, _run(scale, GROUP2))
        rounds = on.counter_per_rank("blocking_request_counts")
        assert rounds.min() > 2


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
def bursty():
    """The bursty instance and its serial corrector's output."""
    scale = _bursty(250)
    return scale, _serial(scale)


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


class TestRankWideTail:
    """A rank's share is one wavefront on bursty reads: one pass per
    rank whatever ``chunk_size``, every lookup it misses locally fetched
    from the owners in a blocking round, on every engine and under
    frame faults."""

    @pytest.mark.parametrize("nranks", [2, 4, 8])
    @pytest.mark.parametrize("chunk_size", [50, 100, 250])
    def test_one_replay_per_rank(
        self, chunk_size, nranks, bursty, blocking_codes, monkeypatch
    ):
        """Cutting a share into ``chunk_size`` pieces would multiply its
        lookup rounds: each rank corrects its share in one
        ``correct_block`` call."""
        calls = {}
        inner = ReptileCorrector.correct_block

        def counting(self, block):
            rank = self.view.kmers.comm.rank
            calls[rank] = calls.get(rank, 0) + 1
            return inner(self, block)

        monkeypatch.setattr(ReptileCorrector, "correct_block", counting)
        res = _run(_bursty(chunk_size), HeuristicConfig(prefetch=True), nranks)
        _assert_identical(res, bursty[1])
        assert np.array_equal(
            res.corrected_block.codes, blocking_codes[nranks]
        )
        assert calls == {
            rank: 1 for rank, report in enumerate(res.reports)
            if len(report.block)
        }

    @pytest.mark.parametrize("engine", ["cooperative", "threaded", "process"])
    def test_on_miss_fetch_across_engines(self, bursty, engine):
        scale, reference = bursty
        on = _run(scale, GROUP2.with_updates(prefetch=True), engine=engine)
        off = _run(scale, GROUP2, engine=engine)
        _assert_identical(on, reference)
        _assert_identical(off, reference)
        assert _ledger(on) == _ledger(off)
        assert _totals(on).get("blocking_request_counts") > 0

    def test_on_miss_fetch_survives_drops_and_duplicates(self, bursty):
        """The blocking rounds ride the endpoint's resilient collect."""
        plan = FaultPlan(
            seed=5,
            drop_rate=0.05,
            duplicate_rate=0.05,
            max_drops_per_frame=2,
            base_timeout_s=0.05,
            max_retries=8,
        )
        scale, reference = bursty
        res = _run(scale, HeuristicConfig(prefetch=True), faults=plan)
        _assert_identical(res, reference)
        total = _totals(res)
        assert total.get("blocking_request_counts") > 0
        assert total.get("frames_dropped") > 0
        assert total.get("frames_duplicated") > 0


class TestStructuralClaims:
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
        """At every compiled tier, hits + misses == requests, and only
        the tiers :func:`tier_order` names see a request."""
        total = _totals(_run(scale, heuristics))
        for tier in TIER_NAMES:
            requests = total.get(f"lookup_{tier}_requests")
            hits = total.get(f"lookup_{tier}_hits")
            misses = total.get(f"lookup_{tier}_misses")
            assert hits + misses == requests, tier
            assert total.get(f"lookup_{tier}_bytes") == 12 * hits, tier
        named = {
            tier for kind in ("kmer", "tile")
            for tier in tier_order(heuristics, kind, 4)
        }
        ran = {t for t in TIER_NAMES if total.get(f"lookup_{t}_requests")}
        assert ran == named


class TestEndpoint:
    def test_bulk_round_trip(self):
        """Back-to-back rounds of the one protocol each get exactly
        their own owner-authoritative counts, per kind, serving peers
        while waiting — in both frame layouts; an owner may be asked
        one kind alone."""

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
                        # The next owner up is asked its k-mers alone.
                        alone = owner == (comm.rank + 1) % comm.size
                        out[owner] = (ids, ids[:0] if alone else ids[::2])
                return out

            for asked in (chunks(0, 200), chunks(200, 400)):
                answers = proto.ask(asked)
                assert set(answers) == set(asked)
                for owner, (kmers, tiles) in asked.items():
                    got_kmers, got_tiles = answers[owner]
                    assert np.array_equal(got_kmers, (kmers + 1).astype(np.uint32))
                    assert np.array_equal(got_tiles, (tiles * 2).astype(np.uint32))
            proto.finish()
            return True

        for universal in (False, True):
            run = run_spmd(lambda comm: prog(comm, universal), 4, engine="cooperative")
            assert run.results == [True] * 4

    def test_cache_is_idempotent(self):
        """The reads-table write-back (*add remote lookups*) caches each
        id once."""
        table = CountHash()
        ids = np.array([5, 5, 9], dtype=np.uint64)
        add_fresh(table, ids, np.array([3, 3, 0], dtype=np.uint32))
        # Re-adding must not accumulate; the first deposit wins.
        add_fresh(table, ids, np.array([7, 7, 7], dtype=np.uint32))
        counts, found = table.lookup_found(
            np.array([5, 9, 11], dtype=np.uint64)
        )
        assert counts.tolist() == [3, 0, 0]
        # An explicit zero is "known absent", an unseen key is not known.
        assert found.tolist() == [True, True, False]
