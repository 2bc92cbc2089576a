"""Grain-aware placement: an op's block is never cut below the chunk
grain, small rounds take turns over the fleet, a rank is relayed only
the rows it holds, and who holds a read never changes how it is
corrected."""

import asyncio

import numpy as np
import pytest

from repro.bench.harness import small_scale
from repro.core.corrector import ReptileCorrector
from repro.core.spectrum import LocalSpectrumView, build_spectra
from repro.parallel.driver import ParallelSession
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.ownership import sequence_owner
from repro.parallel.session import CorrectOp, IngestOp
from repro.service import SpectrumService
from repro.service.program import SERVICE_CMD_TAG
from repro.simmpi import wire

P = 4
CHUNK = 100


@pytest.fixture(scope="module")
def scale():
    return small_scale("E.Coli", genome_size=3_000, chunk_size=CHUNK)


def head(block, n, start=0):
    return block.select(np.arange(start, start + n))


def reads_per_rank(out, index):
    return [len(report.block) for report in out.result_for(index).reports]


def holders(out, index):
    return [r for r, n in enumerate(reads_per_rank(out, index)) if n]


# (reads in the round, ranks that must correct it): ceil(reads / chunk),
# capped at P.
SIZES = [(1, 1), (40, 1), (CHUNK, 1), (CHUNK + 1, 2), (2 * CHUNK, 2),
         (2 * CHUNK + 50, 3), (4 * CHUNK, 4), (7 * CHUNK, 4)]


@pytest.fixture(scope="module")
def sized_rounds(scale):
    block = scale.dataset.block
    ops = [IngestOp(block)] + [CorrectOp(head(block, n)) for n, _ in SIZES]
    return ParallelSession(scale.config, HeuristicConfig(), nranks=P).run(ops)


class TestRanksUsed:
    @pytest.mark.parametrize("index", range(len(SIZES)),
                             ids=[f"{n}-reads" for n, _ in SIZES])
    def test_a_round_uses_one_rank_per_chunk(self, sized_rounds, index):
        reads, ranks = SIZES[index]
        per_rank = reads_per_rank(sized_rounds, index)
        assert sum(per_rank) == reads
        assert len(holders(sized_rounds, index)) == ranks

    def test_contiguous_slices_without_load_balancing(self, scale):
        """No hashing: the window's ranks hold the block's contiguous
        ``parts`` slices, in window order."""
        block = scale.dataset.block
        rounds = [head(block, 250), head(block, 90, start=300)]
        out = ParallelSession(
            scale.config, HeuristicConfig(load_balance=False), nranks=P
        ).run([IngestOp(block)] + [CorrectOp(b) for b in rounds])
        # Op 1, three parts: the window starts at rank 1 * 3 % 4 = 3.
        assert reads_per_rank(out, 0) == [83, 84, 0, 83]
        ids = [r.block.ids.tolist() for r in out.result_for(0).reports]
        assert ids[3] + ids[0] + ids[1] == rounds[0].ids.tolist()
        # Op 2, one part: rank 2 * 1 % 4 = 2 holds it whole.
        assert reads_per_rank(out, 1) == [0, 0, 90, 0]

    def test_a_block_of_p_chunks_is_placed_as_ever(self, scale):
        """From (P-1) chunks + 1 read up, every rank owns ``hash % P``
        of the block whatever the op index — the placement of the
        static drivers and of every earlier session."""
        block = scale.dataset.block
        big = head(block, (P - 1) * CHUNK + 1)
        out = ParallelSession(scale.config, HeuristicConfig(), nranks=P).run(
            [IngestOp(block), CorrectOp(big), CorrectOp(big)]
        )
        owners = sequence_owner(big, P)
        for index in (0, 1):
            for rank, report in enumerate(out.result_for(index).reports):
                assert sorted(report.block.ids.tolist()) == \
                    big.ids[owners == rank].tolist()


def test_consecutive_small_rounds_land_on_different_ranks(scale):
    block = scale.dataset.block
    rounds = [head(block, 30, start=30 * i) for i in range(2 * P)]
    out = ParallelSession(scale.config, HeuristicConfig(), nranks=P).run(
        [IngestOp(block)] + [CorrectOp(b) for b in rounds]
    )
    turn = [holders(out, i) for i in range(len(rounds))]
    assert all(len(h) == 1 for h in turn)
    turn = [h[0] for h in turn]
    assert all(a != b for a, b in zip(turn, turn[1:]))
    # Nobody is the permanent coordinator: P rounds, P different ranks.
    assert sorted(turn[:P]) == list(range(P))
    assert turn[P:] == turn[:P]


# ----------------------------------------------------------------------
# the relay ships a rank only the rows it holds
# ----------------------------------------------------------------------
def relayed_bytes(scale, ops):
    out = ParallelSession(scale.config, HeuristicConfig(), nranks=P).run(ops)
    return sum(s.bytes_by_tag.get(SERVICE_CMD_TAG, 0) for s in out.stats)


def command_frame_bytes(*command):
    return len(wire.encode_frame(0, SERVICE_CMD_TAG, command))


class TestRelay:
    def test_an_ingest_relays_each_peer_its_quarter(self, scale):
        """Three peers, a quarter of the rows each: three quarters of
        one block's bytes, where relaying the whole block to every peer
        took three blocks' worth."""
        block = scale.dataset.block
        whole = command_frame_bytes("ingest", 0, *block.to_wire())
        relayed = relayed_bytes(scale, [IngestOp(block)])
        assert 0.74 * whole < relayed < 0.78 * whole

    def test_a_small_round_goes_to_its_one_holder_only(self, scale):
        """Op 1's one-chunk round is rank 1's: it is sent the rows and
        its window (one part from rank 1); the other two peers are sent
        nothing."""
        block = scale.dataset.block
        small = head(block, 80)
        whole = command_frame_bytes("correct", 2, 1, 1, *small.to_wire())
        ingest = relayed_bytes(scale, [IngestOp(block)])
        both = relayed_bytes(scale, [IngestOp(block), CorrectOp(small)])
        assert both - ingest == whole


# ----------------------------------------------------------------------
# bit-identity: per client, against solo runs and the serial oracle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def batches(scale):
    """Three clients: well under a chunk, under a chunk, 2.5 chunks."""
    block = scale.dataset.block
    return [head(block, 30), head(block, 60, start=100),
            head(block, 250, start=400)]


@pytest.fixture(scope="module")
def serial_codes(scale, batches):
    """Each batch through the serial corrector, against the spectrum of
    everything ingested."""
    view = LocalSpectrumView(build_spectra(scale.dataset.block, scale.config))
    corrector = ReptileCorrector(scale.config, view)
    return [corrector.correct_block(b).block.codes for b in batches]


async def _serve(scale, engine, rounds):
    """Ingest, then run each round's batches concurrently; one result
    list per round."""
    service = SpectrumService(
        scale.config, P, heuristics=HeuristicConfig(universal=True),
        engine=engine,
    )
    async with service:
        await service.ingest(scale.dataset.block)
        out = []
        for batches in rounds:
            out.append(await asyncio.gather(*(
                service.correct(b, client=f"client{i}")
                for i, b in enumerate(batches)
            )))
    return out, service.result


@pytest.fixture(scope="module")
def solo_codes(scale, batches):
    """Each client alone on a fleet of its own."""
    return [
        asyncio.run(_serve(scale, "cooperative", [[b]]))[0][0][0].block.codes
        for b in batches
    ]


@pytest.mark.parametrize("engine", ["cooperative", "threaded", "process"])
def test_clients_get_serial_bytes_wherever_their_reads_land(
    engine, scale, batches, serial_codes, solo_codes
):
    """One coalesced round (340 reads: all four ranks), then the two
    small clients again, each in a round of its own (one rank each)."""
    rounds = [batches, batches[:1], batches[1:2]]
    results, run = asyncio.run(_serve(scale, engine, rounds))
    assert run.report.rounds == 3 and run.report.coalesced == 3
    for round_batches, round_results in zip(rounds, results):
        for batch, result in zip(round_batches, round_results):
            which = next(i for i, b in enumerate(batches) if b is batch)
            np.testing.assert_array_equal(result.block.ids, batch.ids)
            np.testing.assert_array_equal(
                result.block.codes, serial_codes[which])
            np.testing.assert_array_equal(
                result.block.codes, solo_codes[which])
    # A rank books only the rounds it corrected, by command number: the
    # ingest is command 1, the rounds 2-4.
    held = [
        dict(zip(
            [n for k, n in zip(r.op_kinds, r.op_numbers) if k == "correct"],
            r.correct_blocks,
        ))
        for r in run.rank_reports
    ]
    per_round = [[len(h.get(seq, ())) for h in held] for seq in (2, 3, 4)]
    assert all(per_round[0]) and sum(per_round[0]) == 340
    assert sorted(per_round[1]) == [0, 0, 0, 30]
    assert sorted(per_round[2]) == [0, 0, 0, 60]


# ----------------------------------------------------------------------
# the message economy itself
# ----------------------------------------------------------------------
#: Frames of one correct round at P = 8 (3 kb genome, chunk 250,
#: universal mode) at the parent commit c102eb7, where every round was
#: hashed over all 8 ranks: run [ingest, correct] minus run [ingest].
PARENT_ROUND_FRAMES = {40: 1018, 160: 2158}


@pytest.mark.parametrize("reads,share", [(40, 0.40), (160, 0.25)])
def test_a_small_round_sends_a_fraction_of_the_frames(reads, share):
    """One rank asks P-1 owners per lookup step instead of P ranks
    asking ~2-4 owners each, and a one-part round needs no alltoallv.
    (Measured: 384 and 496 frames, 0.38 and 0.23 of the parent's.)"""
    scale = small_scale("E.Coli", genome_size=3_000, chunk_size=250)
    block = scale.dataset.block
    heuristics = HeuristicConfig(universal=True)

    def frames(ops):
        out = ParallelSession(scale.config, heuristics, nranks=8).run(ops)
        return sum(s.messages_sent for s in out.stats), out

    ingest_only, _ = frames([IngestOp(block)])
    both, out = frames([IngestOp(block), CorrectOp(head(block, reads))])
    assert len(holders(out, 0)) == 1
    assert both - ingest_only < share * PARENT_ROUND_FRAMES[reads]
    served = sum(s.get("requests_served") for s in out.stats)
    probes = sum(s.get("serve_probes") for s in out.stats)
    assert 0 < probes <= served
