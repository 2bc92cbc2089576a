"""Tests for the static load-balancing redistribution."""

import numpy as np

from repro.io.records import ReadBlock
from repro.parallel.loadbalance import redistribute_reads
from repro.parallel.ownership import sequence_owner
from repro.simmpi import run_spmd


def _make_block(n=200, L=40, seed=0):
    rng = np.random.default_rng(seed)
    seqs = ["".join("ACGT"[c] for c in rng.integers(0, 4, L)) for _ in range(n)]
    return ReadBlock.from_strings(seqs)


def _run_redistribution(block, nranks):
    n = len(block)
    bounds = [n * r // nranks for r in range(nranks + 1)]

    def prog(comm):
        mine = block.slice(bounds[comm.rank], bounds[comm.rank + 1])
        return redistribute_reads(comm, mine)

    return run_spmd(prog, nranks, engine="cooperative").results


class TestRedistribution:
    def test_no_read_lost_or_duplicated(self):
        block = _make_block(157)
        parts = _run_redistribution(block, 5)
        ids = np.concatenate([p.ids for p in parts])
        assert sorted(ids.tolist()) == list(range(1, 158))

    def test_content_preserved(self):
        block = _make_block(60)
        parts = _run_redistribution(block, 4)
        merged = ReadBlock.concat(parts)
        order = np.argsort(merged.ids)
        src = {int(i): s for i, s in zip(block.ids, block.to_strings())}
        for rid, seq in zip(merged.ids[order].tolist(),
                            np.array(merged.to_strings())[order]):
            assert src[rid] == seq

    def test_each_rank_owns_its_reads(self):
        block = _make_block(120)
        parts = _run_redistribution(block, 6)
        for rank, part in enumerate(parts):
            if len(part):
                owners = sequence_owner(part, 6)
                assert (owners == rank).all()

    def test_quals_travel_with_reads(self):
        rng = np.random.default_rng(3)
        seqs = ["".join("ACGT"[c] for c in rng.integers(0, 4, 20))
                for _ in range(30)]
        quals = [rng.integers(2, 41, 20).tolist() for _ in range(30)]
        block = ReadBlock.from_strings(seqs, quals=quals)
        parts = _run_redistribution(block, 3)
        merged = ReadBlock.concat(parts)
        for i, rid in enumerate(merged.ids.tolist()):
            assert merged.quals[i, :20].tolist() == quals[rid - 1]

    def test_balances_contiguous_imbalance(self, bursty_dataset):
        """Error-heavy file regions spread across ranks after hashing."""
        block = bursty_dataset.block
        per_read_errors = bursty_dataset.errors_per_read()
        nranks = 8
        n = len(block)
        bounds = [n * r // nranks for r in range(nranks + 1)]
        err_by_id = dict(zip(block.ids.tolist(), per_read_errors.tolist()))

        # Contiguous assignment error load.
        contiguous = np.array([
            per_read_errors[bounds[r] : bounds[r + 1]].sum()
            for r in range(nranks)
        ])
        parts = _run_redistribution(block, nranks)
        hashed = np.array([
            sum(err_by_id[i] for i in p.ids.tolist()) for p in parts
        ])
        spread_contig = contiguous.max() / max(1, contiguous.min())
        spread_hashed = hashed.max() / max(1, hashed.min())
        assert spread_hashed < spread_contig

    def test_stats_counter(self):
        block = _make_block(50)
        n = len(block)
        nranks = 4
        bounds = [n * r // nranks for r in range(nranks + 1)]

        def prog(comm):
            mine = block.slice(bounds[comm.rank], bounds[comm.rank + 1])
            redistribute_reads(comm, mine)
            return comm.stats.get("reads_received_in_balance")

        res = run_spmd(prog, nranks, engine="cooperative")
        assert sum(res.results) > 0

    def test_one_rank_moves_nothing(self):
        """On one rank the block is already placed: no copy, no frame."""
        block = _make_block(30)

        def prog(comm):
            placed = redistribute_reads(comm, block)
            return (
                placed is block,
                comm.stats.get("reads_received_in_balance"),
                comm.stats.messages_sent,
            )

        res = run_spmd(prog, 1, engine="cooperative")
        assert res.results == [(True, 0, 0)]

    def test_empty_rank_input(self):
        block = _make_block(2)
        parts = _run_redistribution(block, 4)  # 2 reads over 4 ranks
        total = sum(len(p) for p in parts)
        assert total == 2
