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
from repro.core.corrector import ReptileCorrector
from repro.core.spectrum import LocalSpectrumView, build_spectra
from repro.faults import CrashFault, FaultPlan
from repro.hashing.inthash import mix_to_rank
from repro.parallel.driver import ParallelReptile, ParallelSession
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.session import CheckpointOp, CorrectOp, IngestOp


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
        assert out.crashed_ranks == [2]
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
        """A reloaded table is sized by the one rule every table is sized
        by, so it never occupies more than the table it was saved from (an
        incrementally grown one may have reserved past a power-of-two step
        that a one-shot reload does not need)."""
        from repro.hashing.counthash import _capacity_for
        from repro.parallel.session import CorrectionSession
        from repro.simmpi.engine import run_spmd

        block, nranks = scale.dataset.block, 4
        ckpt = str(tmp_path / "bundles")
        bounds = [len(block) * i // (3 * nranks) for i in range(3 * nranks + 1)]

        def raw_tables(session):
            return [
                (len(t), t.capacity, t.nbytes, _sorted_items(*t.items()))
                for t in (session.raw_kmers, session.raw_tiles)
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
            size, capacity, nbytes, items = before
            assert size > 0
            assert after[0] == size
            assert after[1] <= capacity and after[2] <= nbytes
            assert all(map(np.array_equal, after[3], items))
            assert after[1] == _capacity_for(size)

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


def _sorted_items(keys, counts):
    order = np.argsort(keys)
    return keys[order], counts[order]


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
        driver = ParallelSession(
            scale.config, HeuristicConfig(), nranks=2, engine=engine
        )
        split = driver.run(
            [IngestOp(p) for p in parts], capture_spectrum=True
        )
        whole = driver.run([IngestOp(block)], capture_spectrum=True)
        for rank in range(2):
            sk, sc, stk, stc = split.spectrum_items(rank)
            wk, wc, wtk, wtc = whole.spectrum_items(rank)
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


class _ForeignStepCounter:
    """Serial view that counts a rank's *lookup steps*: view calls that
    carry at least one id the rank does not own (each is one blocking
    request), and the owners those ids reach (each is one request frame
    and one response frame)."""

    def __init__(self, spectra, rank, size):
        self._inner = LocalSpectrumView(spectra)
        self._rank, self._size = rank, size
        self.steps = 0
        self.owners = 0

    def _note(self, ids):
        owners = mix_to_rank(ids, self._size)
        foreign = np.unique(owners[owners != self._rank])
        self.steps += bool(foreign.size)
        self.owners += foreign.size

    def kmer_counts(self, ids):
        self._note(ids)
        return self._inner.kmer_counts(ids)

    def tile_counts(self, ids):
        self._note(ids)
        return self._inner.tile_counts(ids)


class TestStepIVGrain:
    """The blocking Step IV works at the rank's share: ``chunk_size``
    (Step I reading, ``batch_reads`` rounds, prefetch pieces, dynamic
    work units) must never reach its traffic."""

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
        # blocking request per lookup step, one frame pair per owner.
        steps, owners = [], 0
        for report in result.reports:
            share = block.select(np.searchsorted(block.ids, report.block.ids))
            view = _ForeignStepCounter(spectra, report.rank, 4)
            ReptileCorrector(scale.config, view).correct_block(share)
            steps.append(view.steps)
            owners += view.owners
        requests, served, frames = ledgers[0]
        assert requests == steps
        assert sum(served) == owners == 3 * sum(steps)
        assert sum(frames.values()) == 2 * owners
        assert frames[3] == owners  # every request frame is answered once


class TestSequenceAcrossFinalize:
    def test_rebuilt_protocol_never_reuses_a_sequence_number(self, scale):
        """finalize() replaces the protocol endpoint, but a delayed or
        duplicated frame of the old one may still be in flight: the new
        endpoint's first request must outnumber everything sent before,
        or that frame could pass for a current answer."""
        from repro.io.partition import slice_bounds
        from repro.parallel.session import CorrectionSession
        from repro.simmpi.engine import run_spmd
        from repro.simmpi.message import Tags

        plan = FaultPlan(
            seed=5, duplicate_rate=0.1, delay_rate=0.1, base_timeout_s=0.1
        )
        block = scale.dataset.block
        half = len(block) // 2

        def program(comm):
            sent: list[int] = []
            send = comm.send

            def spy(dest, payload, tag=0):
                if tag == Tags.RESILIENT_REQUEST:
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
        """build_rank_spectra's one-shot session refuses further ingests."""
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
