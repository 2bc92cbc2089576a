"""Session-layer tests: the long-lived incremental pipeline.

The contract under test is the PR's acceptance matrix: a session that
ingests a dataset and corrects it must be bit-identical to the classic
one-shot ``ParallelReptile.run`` on every engine × heuristic × fault
combination, any K-way split of a dataset across ingests must reproduce
the single-build spectrum exactly, and repeated corrections must reuse
the built state (zero construction time after the first finalize).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import small_scale
from repro.config import ReptileConfig
from repro.core.corrector import ReptileCorrector
from repro.core.spectrum import LocalSpectrumView, build_spectra
from repro.faults import CrashedRank, CrashFault, FaultPlan
from repro.io.partition import slice_bounds
from repro.io.records import ReadBlock
from repro.parallel.driver import ParallelReptile, ParallelSession
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.ownership import key_spaces
from repro.parallel.session import (
    CheckpointOp, CorrectionSession, CorrectOp, IngestOp,
)
from repro.simmpi import run_spmd
from tests.core.test_rewrites import local_rounds


@pytest.fixture(scope="module")
def scale():
    return small_scale("E.Coli", genome_size=3_000, chunk_size=100)


@pytest.fixture(scope="module")
def classic_codes(scale):
    """The one-shot driver's output — the bit-identity anchor."""
    result = ParallelReptile(
        scale.config, HeuristicConfig(), nranks=4, engine="cooperative"
    ).run(scale.dataset.block)
    return result.corrected_block.codes


MATRIX_MODES = {
    "base": HeuristicConfig(),
    "group2": HeuristicConfig(replication_group=2),
    "prefetch_group2": HeuristicConfig(prefetch=True, replication_group=2),
}


class TestBitIdentityMatrix:
    """ingest(all) + correct(all) == ParallelReptile.run, everywhere."""

    @pytest.mark.parametrize("engine", ["threaded", "process"])
    @pytest.mark.parametrize("mode", list(MATRIX_MODES), ids=list(MATRIX_MODES))
    def test_session_matches_classic_run(
        self, engine, mode, scale, classic_codes
    ):
        block = scale.dataset.block
        heur = MATRIX_MODES[mode]
        classic = ParallelReptile(
            scale.config, heur, nranks=4, engine=engine
        ).run(block)
        out = ParallelSession(
            scale.config, heur, nranks=4, engine=engine
        ).run([IngestOp(block), CorrectOp(block)])
        session_block = out.result_for(0).corrected_block
        assert np.array_equal(session_block.ids, classic.corrected_block.ids)
        assert np.array_equal(session_block.codes, classic.corrected_block.codes)
        assert np.array_equal(session_block.codes, classic_codes)

    def test_session_survives_fault_plan(self, scale, classic_codes):
        """A survivable chaos plan (frame faults + one scripted crash)
        changes nothing about the merged corrected output."""
        plan = FaultPlan(
            seed=1234,
            drop_rate=0.05,
            duplicate_rate=0.02,
            delay_rate=0.02,
            max_drops_per_frame=2,
            crashes=(CrashFault(rank=2, after_events=4),),
            base_timeout_s=0.1,
            max_retries=8,
        )
        block = scale.dataset.block
        out = ParallelSession(
            scale.config, HeuristicConfig(), nranks=4,
            engine="cooperative", faults=plan,
        ).run([IngestOp(block), CorrectOp(block)])
        # The service's one crashed-rank form: a CrashedRank sentinel in
        # the rank's slot, its number in a tuple.
        assert out.crashed_ranks == (2,)
        assert isinstance(out.rank_reports[2], CrashedRank)
        merged = out.result_for(0).corrected_block
        assert np.array_equal(merged.ids, np.sort(block.ids))
        assert np.array_equal(merged.codes, classic_codes)


#: Default heuristics, and the construction-heavy regime sessions exist
#: for: batched reads tables plus read k-mer/tile retention.
REPEAT_MODES = (
    HeuristicConfig(),
    HeuristicConfig(read_kmers=True, read_tiles=True, batch_reads=True),
)


class TestRepeatedCorrection:
    """One build, three corrections: what a session amortizes."""

    @pytest.fixture(scope="class")
    def repeat_outs(self, scale):
        block = scale.dataset.block
        return [
            ParallelSession(
                scale.config, heuristics, nranks=4, engine="cooperative"
            ).run([IngestOp(block)] + [CorrectOp(block)] * 3)
            for heuristics in REPEAT_MODES
        ]

    def test_every_round_bit_identical(self, repeat_outs, classic_codes):
        for out in repeat_outs:
            for i in range(3):
                assert np.array_equal(
                    out.result_for(i).corrected_block.codes, classic_codes
                )

    def test_corrections_pay_no_construction(self, repeat_outs):
        """After the chunk-boundary finalize, correct rounds never touch
        the build phase: its per-op timing delta is exactly zero."""
        for out in repeat_outs:
            for rr in out.rank_reports:
                for kind, timing in zip(rr.op_kinds, rr.op_timings):
                    if kind == "correct":
                        assert "kmer_construction" not in timing

    def test_single_recompile_across_rounds(self, repeat_outs):
        for out in repeat_outs:
            totals = out.session_totals()
            assert totals["session_ingests"] == 4  # one per rank
            assert totals["session_recompiles"] == 4


class TestCheckpointResume:
    def test_resumed_session_matches_uninterrupted(self, scale, tmp_path):
        block = scale.dataset.block
        half = len(block) // 2
        first, second = block.slice(0, half), block.slice(half, len(block))
        ckpt = str(tmp_path / "bundles")

        driver = ParallelSession(
            scale.config, HeuristicConfig(), nranks=4, engine="cooperative"
        )
        driver.run([IngestOp(first), CheckpointOp(ckpt)])
        resumed = driver.run(
            [IngestOp(second), CorrectOp(block)], resume_dir=ckpt
        )
        straight = driver.run(
            [IngestOp(first), IngestOp(second), CorrectOp(block)]
        )
        assert np.array_equal(
            resumed.result_for(0).corrected_block.codes,
            straight.result_for(0).corrected_block.codes,
        )
        # The ingest counter survives the checkpoint/resume boundary.
        assert all(
            rr.ingest_count == 2 for rr in resumed.rank_reports
        )

    def test_resumed_tables_are_no_larger_than_checkpointed(
        self, scale, tmp_path
    ):
        """The raw shard is sorted pairs at table width, with no slack to
        lose: a reload holds exactly the pairs, dtypes and bytes that
        were saved."""
        from repro.parallel.session import CorrectionSession
        from repro.simmpi.engine import run_spmd

        block, nranks = scale.dataset.block, 4
        ckpt = str(tmp_path / "bundles")
        bounds = [len(block) * i // (3 * nranks) for i in range(3 * nranks + 1)]

        def raw_tables(session):
            return [
                (len(keys), keys.dtype, keys.nbytes + counts.nbytes,
                 (keys, counts))
                for keys, counts in (session.raw_kmers, session.raw_tiles)
            ]

        def save(comm):
            session = CorrectionSession(comm, scale.config, HeuristicConfig())
            for i in range(3 * comm.rank, 3 * comm.rank + 3):  # grows
                session.ingest(block.slice(bounds[i], bounds[i + 1]))
            session.checkpoint(ckpt)
            return raw_tables(session)

        def load(comm):
            return raw_tables(
                CorrectionSession.resume(
                    comm, scale.config, HeuristicConfig(), ckpt
                )
            )

        saved = run_spmd(save, nranks, engine="cooperative").results
        loaded = run_spmd(load, nranks, engine="cooperative").results
        for before, after in zip(sum(saved, []), sum(loaded, [])):
            size, dtype, nbytes, items = before
            assert size > 0
            assert after[:3] == (size, dtype, nbytes)
            assert all(map(np.array_equal, after[3], items))
            # Every count of this input fits 16 bits.
            assert nbytes == size * (dtype.itemsize + 2)

    def test_resume_rejects_mismatched_nranks(self, scale, tmp_path):
        from repro.errors import SessionError

        block = scale.dataset.block
        ckpt = str(tmp_path / "bundles")
        ParallelSession(
            scale.config, HeuristicConfig(), nranks=4, engine="cooperative"
        ).run([IngestOp(block), CheckpointOp(ckpt)])
        with pytest.raises(SessionError):
            ParallelSession(
                scale.config, HeuristicConfig(), nranks=2,
                engine="cooperative",
            ).run([CorrectOp(block)], resume_dir=ckpt)


    def test_resume_rejects_mismatched_strand_counting(self, scale, tmp_path):
        """A checkpoint counted with reverse complements must not be
        served by a session that counts one strand: the bundle records
        the flag and resume refuses the mismatch."""
        from repro.errors import SessionError

        block, ckpt = scale.dataset.block, str(tmp_path / "bundles")
        both = dataclasses.replace(scale.config, count_reverse_complement=True)
        ParallelSession(
            both, HeuristicConfig(universal=True), nranks=4,
            engine="cooperative",
        ).run([IngestOp(block), CheckpointOp(ckpt)])
        one = dataclasses.replace(both, count_reverse_complement=False)
        with pytest.raises(SessionError, match="count_reverse_complement"):
            ParallelSession(
                one, HeuristicConfig(universal=True), nranks=4,
                engine="cooperative",
            ).run([CorrectOp(block)], resume_dir=ckpt)

    def test_resume_refuses_an_id_bundle(self, scale, tmp_path):
        """A ``repro.session/1`` bundle held ids, not keys: it is refused
        with an error that names both formats."""
        from repro.core.persist import load_session_bundle
        from repro.errors import SpectrumError

        path = tmp_path / "rank0.npz"
        empty = np.empty(0, np.uint64)
        np.savez_compressed(
            path, format=np.array("repro.session/1"), k=np.array(12),
            overlap=np.array(4), nranks=np.array(1), rank=np.array(0),
            n_ingests=np.array(1), kmer_keys=empty, kmer_counts=empty,
            tile_keys=empty, tile_counts=empty, read_kmer_keys=empty,
            read_tile_keys=empty,
        )
        with pytest.raises(SpectrumError) as err:
            load_session_bundle(path)
        assert "repro.session/1" in str(err.value)
        assert "repro.session/2" in str(err.value)

    def test_bundles_store_counts_at_table_width(self, scale, tmp_path):
        """A checkpoint keeps the ``repro.session/2`` format and stores
        each pair at the width its shard holds it: uint32 k = 12 k-mer
        keys and uint16 counts here (resuming from such a bundle is
        bit-identical, ``test_resumed_session_matches_uninterrupted``)."""
        ckpt = tmp_path / "bundles"

        def save(comm):
            session = CorrectionSession(comm, scale.config, HeuristicConfig())
            session.ingest(scale.dataset.block)
            session.checkpoint(ckpt)

        run_spmd(save, 2, engine="cooperative")
        for rank in range(2):
            with np.load(ckpt / f"rank{rank}.npz") as data:
                assert str(data["format"]) == "repro.session/2"
                assert data["kmer_keys"].size > 0
                assert data["kmer_keys"].dtype == np.uint32
                assert data["kmer_counts"].dtype == np.uint16
                assert data["tile_counts"].dtype == np.uint16

    def test_a_uint32_count_bundle_resumes_to_the_same_tables(
        self, scale, tmp_path
    ):
        """A bundle whose counts are uint32 — written as checkpoints were
        before pairs carried table-width counts — resumes to narrow raw
        pairs and to serving tables byte for byte equal to the
        table-width bundle's."""
        from repro.core.persist import save_session_bundle

        block, nranks = scale.dataset.block, 2
        new, old = tmp_path / "new", tmp_path / "old"
        old.mkdir()
        config = scale.config

        def save(comm):
            session = CorrectionSession(comm, config, HeuristicConfig())
            cut = slice_bounds(len(block), comm.size)
            session.ingest(block.slice(cut[comm.rank], cut[comm.rank + 1]))
            session.checkpoint(new)
            shape = config.tile_shape
            (kk, kc), (tk, tc) = session.raw_kmers, session.raw_tiles
            save_session_bundle(
                old / f"rank{comm.rank}.npz", k=shape.k,
                overlap=shape.overlap, nranks=comm.size, rank=comm.rank,
                n_ingests=session.ingest_count,
                count_reverse_complement=config.count_reverse_complement,
                kmer_keys=kk.astype(np.uint64),
                kmer_counts=kc.astype(np.uint32),
                tile_keys=tk.astype(np.uint64),
                tile_counts=tc.astype(np.uint32),
                read_kmer_keys=session._read_kmer_keys,
                read_tile_keys=session._read_tile_keys,
            )

        def tables(directory):
            def load(comm):
                session = CorrectionSession.resume(
                    comm, config, HeuristicConfig(), directory
                )
                # The raw pairs resume narrow, whatever the bundle held.
                assert session.raw_kmers[1].dtype == np.uint16
                session.finalize()
                spectra = session.spectra
                return [
                    (part.dtype.str, part.tobytes())
                    for table in (spectra.kmers, spectra.tiles)
                    for part in (table._keys, table._counts)
                ]

            return run_spmd(load, nranks, engine="cooperative").results

        run_spmd(save, nranks, engine="cooperative")
        with np.load(old / "rank0.npz") as data:
            assert data["kmer_counts"].dtype == np.uint32
        assert tables(old) == tables(new)


def _sorted_items(keys, counts):
    order = np.argsort(keys)
    return keys[order], counts[order]


@dataclasses.dataclass(frozen=True)
class _IngestShardItems:
    """Rank program: ingest each part (this rank's contiguous slice of
    it), finalize, and return the serving shard's (kmer keys, kmer
    counts, tile keys, tile counts).  Module-level, so the process
    engine can ship it."""

    config: ReptileConfig
    parts: tuple[ReadBlock, ...]

    def __call__(self, comm):
        with CorrectionSession(comm, self.config, HeuristicConfig()) as session:
            for part in self.parts:
                bounds = slice_bounds(len(part), comm.size)
                session.ingest(
                    part.slice(bounds[comm.rank], bounds[comm.rank + 1])
                )
            session.finalize()
            spectra = session.spectra
            return (*spectra.kmers.items(), *spectra.tiles.items())


class TestSplitInvariance:
    """Any K-way split of the dataset across ingests yields shard
    counts identical to one full build (saturating add is
    order-independent and ownership is key-determined)."""

    @pytest.mark.parametrize("engine", ["threaded", "process"])
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_k_split_ingest_matches_full_build(self, engine, scale, data):
        block = scale.dataset.block
        k = data.draw(st.sampled_from([1, 2, 5]), label="K")
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(0, len(block)),
                    min_size=k - 1, max_size=k - 1,
                ),
                label="cuts",
            )
        )
        bounds = [0, *cuts, len(block)]
        parts = [
            block.slice(bounds[i], bounds[i + 1]) for i in range(k)
        ]
        split = run_spmd(
            _IngestShardItems(scale.config, tuple(parts)), 2, engine=engine
        ).results
        whole = run_spmd(
            _IngestShardItems(scale.config, (block,)), 2, engine=engine
        ).results
        for rank in range(2):
            sk, sc, stk, stc = split[rank]
            wk, wc, wtk, wtc = whole[rank]
            # Compare in key order: CountHash iteration order depends on
            # insertion history, which legitimately differs by split.
            assert all(
                np.array_equal(a, b)
                for a, b in zip(_sorted_items(sk, sc), _sorted_items(wk, wc))
            )
            assert all(
                np.array_equal(a, b)
                for a, b in zip(_sorted_items(stk, stc), _sorted_items(wtk, wtc))
            )


class TestShardsMatchSerial:
    """Every rank's serving shard — and its raw pairs when retained — is
    serial ``build_spectra`` restricted to the keys the rank owns, for any
    rank count, split across ingests, strand counting and batching.  A
    checkpoint seeds some counts near the uint32 maximum, so the sums
    cross it and must saturate there."""

    SEED_COUNT = 2**32 - 3

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_every_rank_holds_its_share_of_serial(self, scale, data, tmp_path_factory):
        from repro.core.persist import save_session_bundle
        from repro.io.partition import slice_bounds
        from repro.parallel.session import CorrectionSession
        from repro.simmpi.engine import run_spmd

        nranks = data.draw(st.sampled_from([1, 2, 3, 8]), label="P")
        k = data.draw(st.integers(1, 3), label="K")
        config = dataclasses.replace(
            scale.config,
            count_reverse_complement=data.draw(st.booleans(), label="rc"),
        )
        heuristics = HeuristicConfig(
            batch_reads=data.draw(st.booleans(), label="batch_reads")
        )
        retain = data.draw(st.booleans(), label="retain_raw")
        seeded = retain and data.draw(st.booleans(), label="seeded")
        block = scale.dataset.block
        cuts = sorted(data.draw(
            st.lists(st.integers(0, len(block)), min_size=k - 1, max_size=k - 1),
            label="cuts",
        ))
        bounds = [0, *cuts, len(block)]
        parts = [block.slice(bounds[i], bounds[i + 1]) for i in range(k)]

        raw = build_spectra(block, config, apply_threshold=False)
        spaces = key_spaces(config.tile_shape)
        expected = []
        for table, space in zip((raw.kmers, raw.tiles), spaces):
            ids, counts = table.items()
            keys, counts = _sorted_items(space.keys(ids), counts)
            counts = counts.astype(np.uint64)
            seed = np.zeros_like(counts)
            if seeded:
                seed[::5] = self.SEED_COUNT
            expected.append((
                keys, np.minimum(counts + seed, 2**32 - 1), seed,
            ))
        seed_dir = None
        if seeded:
            seed_dir = str(tmp_path_factory.mktemp("seed"))
            shape = config.tile_shape
            for rank in range(nranks):
                (kk, _, ks), (tk, _, ts) = expected
                km = (ks > 0) & (spaces[0].owners(kk, nranks) == rank)
                tm = (ts > 0) & (spaces[1].owners(tk, nranks) == rank)
                save_session_bundle(
                    f"{seed_dir}/rank{rank}.npz", k=shape.k,
                    overlap=shape.overlap, nranks=nranks, rank=rank,
                    n_ingests=0,
                    count_reverse_complement=config.count_reverse_complement,
                    kmer_keys=kk[km],
                    kmer_counts=ks[km].astype(np.uint32), tile_keys=tk[tm],
                    tile_counts=ts[tm].astype(np.uint32),
                    read_kmer_keys=np.empty(0, np.uint64),
                    read_tile_keys=np.empty(0, np.uint64),
                )

        def program(comm):
            if seeded:
                session = CorrectionSession.resume(
                    comm, config, heuristics, seed_dir
                )
            else:
                session = CorrectionSession(
                    comm, config, heuristics, retain_raw=retain
                )
            for part in parts:
                cut = slice_bounds(len(part), comm.size)
                session.ingest(part.slice(cut[comm.rank], cut[comm.rank + 1]))
            session.finalize()
            shard = session.spectra
            return (
                (shard.kmers.items(), shard.tiles.items()),
                (session.raw_kmers, session.raw_tiles),
            )

        results = run_spmd(program, nranks, engine="cooperative").results
        thresholds = (config.kmer_threshold, config.tile_threshold)
        for rank, (serving, held) in enumerate(results):
            for (keys, counts), (ek, ec, _), threshold, space in zip(
                serving, expected, thresholds, spaces
            ):
                keep = (space.owners(ek, nranks) == rank) & (ec >= threshold)
                got_keys, got_counts = _sorted_items(keys, counts)
                assert np.array_equal(got_keys, ek[keep])
                assert np.array_equal(got_counts, ec[keep])
            for (keys, counts), (ek, ec, _), space in zip(held, expected, spaces):
                if not retain:
                    assert keys.size == counts.size == 0
                    continue
                mine = space.owners(ek, nranks) == rank
                # Table width: uint16 counts unless one passes 16 bits.
                top = int(ec[mine].max(initial=0))
                assert counts.dtype == (np.uint16 if top < 2**16 else np.uint32)
                assert np.array_equal(keys, ek[mine])
                assert np.array_equal(counts, ec[mine])


class TestSessionReport:
    def test_run_report_session_section(self, scale):
        from repro.parallel.report import run_report

        block = scale.dataset.block
        out = ParallelSession(
            scale.config, HeuristicConfig(), nranks=4, engine="cooperative"
        ).run([IngestOp(block), CorrectOp(block)])
        payload = run_report(out.result_for(0))
        section = payload["session"]
        assert set(section) == {
            "session_ingests", "session_delta_exchanges",
            "session_delta_bytes", "session_recompiles",
        }
        assert section["session_ingests"] == 4
        assert section["session_recompiles"] == 4
        assert section["session_delta_bytes"] > 0

    def test_classic_run_populates_session_counters(self, scale):
        """Construction goes through a one-shot session even in the
        classic driver, so its ledger shows up there too."""
        from repro.parallel.report import run_report

        result = ParallelReptile(
            scale.config, HeuristicConfig(), nranks=4, engine="cooperative"
        ).run(scale.dataset.block)
        section = run_report(result)["session"]
        assert section["session_ingests"] == 4
        assert section["session_delta_exchanges"] > 0


class _ForeignRoundCounter:
    """Serial view that counts a rank's Step IV traffic the way the rank
    sends it: a lookup round that carries at least one id the rank does
    not own is one blocking request, and every owner it reaches is one
    request frame and one response frame — in the base mode one of each
    per kind that reaches the owner, since the kind travels as the tag."""

    def __init__(self, spectra, rank, size, universal):
        self._inner = LocalSpectrumView(spectra)
        self._spaces = key_spaces(spectra.shape)
        self._rank, self._size = rank, size
        self._universal = universal
        self.rounds = 0
        self.frames = 0

    def _owners(self, ids, space):
        owners = space.owners(space.keys(ids), self._size)
        return np.unique(owners[owners != self._rank])

    def pair_counts(self, kmer_ids, tile_ids):
        kmer_owners, tile_owners = (
            self._owners(ids, space)
            for ids, space in zip((kmer_ids, tile_ids), self._spaces)
        )
        frames = (
            np.union1d(kmer_owners, tile_owners).size if self._universal
            else kmer_owners.size + tile_owners.size
        )
        self.rounds += bool(frames)
        self.frames += frames
        return self._inner.kmer_counts(kmer_ids), self._inner.tile_counts(tile_ids)


class TestStepIVGrain:
    """The blocking Step IV works at the rank's share, one lookup round
    at a time: ``chunk_size`` (Step I reading, ``batch_reads`` rounds,
    dynamic work units) must never reach its traffic."""

    CHUNK_SIZES = (1, 7, 250, 10**6)  # the last exceeds every share
    STEP_IV_TAGS = (1, 2, 3, 4)  # k-mer / tile / response / universal

    @pytest.mark.parametrize("universal", [False, True], ids=["base", "universal"])
    def test_traffic_is_independent_of_chunk_size(
        self, universal, scale, classic_codes
    ):
        block = scale.dataset.block
        spectra = build_spectra(block, scale.config)
        ledgers = []
        for chunk_size in self.CHUNK_SIZES:
            config = dataclasses.replace(scale.config, chunk_size=chunk_size)
            result = ParallelReptile(
                config, HeuristicConfig(universal=universal), nranks=4,
                engine="cooperative",
            ).run(block)
            assert np.array_equal(result.corrected_block.codes, classic_codes)
            ledgers.append((
                result.counter_per_rank("blocking_request_counts").tolist(),
                result.counter_per_rank("requests_served").tolist(),
                {
                    tag: sum(s.messages_by_tag.get(tag, 0) for s in result.stats)
                    for tag in self.STEP_IV_TAGS
                },
            ))
        assert all(ledger == ledgers[0] for ledger in ledgers[1:])

        # ... and equal to what the shares themselves call for: one
        # blocking request per lookup round the rank's share needs, one
        # frame pair per owner (per kind, in the base mode) it asks.
        rounds, frames = [], 0
        for report in result.reports:
            share = block.select(np.searchsorted(block.ids, report.block.ids))
            view = _ForeignRoundCounter(spectra, report.rank, 4, universal)
            ReptileCorrector(scale.config, view).correct_block(share)
            rounds.append(view.rounds)
            frames += view.frames
        requests, served, by_tag = ledgers[0]
        assert requests == rounds
        assert sum(served) == frames
        assert sum(by_tag.values()) == 2 * frames
        assert by_tag[3] == frames  # every request frame is answered once
        # A lookup round, not a tile column, is the unit: no share needs
        # more than a dozen rounds here, against 36 column steps.
        assert 0 < max(rounds) <= 12


class TestRoundsPerShare:
    @pytest.mark.parametrize("nranks", [2, 8])
    def test_rank_rounds_equal_local_rounds(self, scale, classic_codes,
                                            nranks):
        """A rank's blocking requests are its placed share's rounds on a
        local view: no correction waits a round for the tiles it
        rewrote."""
        block = scale.dataset.block
        spectra = build_spectra(block, scale.config)
        result = ParallelReptile(
            scale.config, HeuristicConfig(), nranks=nranks,
            engine="cooperative",
        ).run(block)
        assert np.array_equal(result.corrected_block.codes, classic_codes)
        want = [
            local_rounds(
                scale.config, spectra,
                block.select(np.searchsorted(block.ids, report.block.ids)),
            )[1]
            for report in result.reports
        ]
        rounds = result.counter_per_rank("blocking_request_counts").tolist()
        assert rounds == want


class TestSequenceAcrossFinalize:
    def test_rebuilt_protocol_never_reuses_a_sequence_number(self, scale):
        """finalize() replaces the protocol endpoint, but a delayed or
        duplicated frame of the old one may still be in flight: the new
        endpoint's first request must outnumber everything sent before,
        or that frame could pass for a current answer."""
        from repro.io.partition import slice_bounds
        from repro.parallel.session import CorrectionSession
        from repro.simmpi.engine import run_spmd
        from repro.simmpi.message import REQUEST_TAGS

        plan = FaultPlan(
            seed=5, duplicate_rate=0.1, delay_rate=0.1, base_timeout_s=0.1
        )
        block = scale.dataset.block
        half = len(block) // 2

        def program(comm):
            sent: list[int] = []
            send = comm.send

            def spy(dest, payload, tag=0):
                if tag in REQUEST_TAGS:
                    sent.append(int(payload[0]))
                send(dest, payload, tag=tag)

            comm.send = spy
            session = CorrectionSession(comm, scale.config, HeuristicConfig())
            rounds, protocols = [], []
            for part in (block.slice(0, half), block.slice(half, len(block))):
                bounds = slice_bounds(len(part), comm.size)
                mine = part.slice(bounds[comm.rank], bounds[comm.rank + 1])
                session.ingest(mine)
                before = len(sent)
                session.correct(mine)
                rounds.append(sent[before:])
                protocols.append(session._protocol)
            assert protocols[0] is not protocols[1]
            return rounds

        spmd = run_spmd(program, 4, engine="cooperative", faults=plan)
        for first, second in spmd.results:
            assert first and second
            assert min(second) > max(first)


class TestSessionValidation:
    def test_empty_op_list_rejected(self, scale):
        with pytest.raises(ValueError):
            ParallelSession(
                scale.config, HeuristicConfig(), nranks=2,
                engine="cooperative",
            ).run([])

    def test_one_shot_session_seals(self, scale):
        """A one-shot session (a batch build) refuses further ingests."""
        from repro.errors import SessionError
        from repro.parallel.session import CorrectionSession
        from repro.simmpi.engine import run_spmd

        def program(comm):
            session = CorrectionSession(
                comm, scale.config, HeuristicConfig(), retain_raw=False
            )
            session.ingest(scale.dataset.block)
            session.finalize()
            try:
                session.ingest(scale.dataset.block)
            except SessionError:
                return True
            return False

        spmd = run_spmd(program, 2, engine="cooperative")
        assert all(spmd.results)
