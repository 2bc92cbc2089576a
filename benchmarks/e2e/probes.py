"""Replay probes: one layer's public functions, in isolation, on the
workload's real inputs.  Each timing is the median of ``REPEATS`` runs.

A probe answers "what does this layer cost for this input when nothing
else runs" — the share a faster layer can save at most — which the
in-situ spans cannot, because inside a rank program the layers' calls
are not visible from outside ``src/``.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time
from typing import Callable

import numpy as np

from repro.core.spectrum import (
    block_kmer_ids,
    block_tile_ids,
    pack_read_block,
)
from repro.hashing.counthash import CountHash
from repro.hashing.inthash import mix_to_rank
from repro.io.fasta import write_fasta
from repro.io.partition import load_rank_block
from repro.io.quality import write_quality
from repro.service import SpectrumService
from repro.simmpi import wire
from repro.simmpi.engine import run_spmd

REPEATS = 5
#: The collective micro-programs: rounds per run, bytes per alltoallv chunk.
COLL_ROUNDS = 100
COLL_CHUNK_BYTES = 64 * 1024
#: Solo one-read jobs behind ``service.round_fixed_s``.
FIXED_ROUND_JOBS = 10


def median_seconds(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def kmer_probe(block, config) -> dict[str, float]:
    shape = config.tile_shape

    def window_ids():
        return block_kmer_ids(block, shape), block_tile_ids(block, shape)

    (_, kvalid), (_, tvalid) = window_ids()
    return {
        "kmer.pack_s": median_seconds(lambda: pack_read_block(block)),
        "kmer.window_ids_s": median_seconds(window_ids),
        "kmer.window_ids": int(kvalid.sum() + tvalid.sum()),
    }


def hashing_probe(block, config, spectra, stream, nranks) -> dict[str, float]:
    """Build: ``add_counts`` chunk by chunk into fresh tables.  Probe:
    ``lookup`` over the id stream the serial corrector issued against
    ``spectra`` (the thresholded tables of that same run)."""
    shape = config.tile_shape
    chunks = []
    for chunk in block.chunks(config.chunk_size):
        kids, kvalid = block_kmer_ids(chunk, shape)
        tids, tvalid = block_tile_ids(chunk, shape)
        chunks.append((kids[kvalid], tids[tvalid]))

    def build():
        kmers, tiles = CountHash(), CountHash()
        for kids, tids in chunks:
            kmers.add_counts(kids)
            tiles.add_counts(tids)
        return kmers, tiles

    kmers, tiles = build()
    tables = {"kmer": spectra.kmers, "tile": spectra.tiles}

    def probe():
        return sum(
            int(np.count_nonzero(tables[kind].lookup(ids)))
            for kind, ids in stream
        )

    keys = np.concatenate([ids for pair in chunks for ids in pair])
    probe_keys = sum(int(ids.size) for _, ids in stream)
    hits = probe()
    return {
        "hashing.build_s": median_seconds(build),
        "hashing.build_keys": int(keys.size),
        "hashing.build_distinct": len(kmers) + len(tiles),
        "hashing.table_bytes": kmers.nbytes + tiles.nbytes,
        "hashing.probe_s": median_seconds(probe),
        "hashing.probe_keys": probe_keys,
        "hashing.probe_calls": len(stream),
        "hashing.probe_hit_ratio": hits / probe_keys,
        "hashing.owner_s": median_seconds(lambda: mix_to_rank(keys, nranks)),
    }


def write_reads(block, fasta: str, qual: str) -> None:
    """A block as the fasta + quality file pair Step I reads."""
    start = int(block.ids[0])
    write_fasta(fasta, block.to_strings(), start_id=start)
    write_quality(
        qual,
        (block.quals[i, : block.lengths[i]].tolist()
         for i in range(len(block))),
        start_id=start,
    )


def io_probe(block, workdir: str, nranks: int) -> dict[str, float]:
    fasta = os.path.join(workdir, "probe.fa")
    qual = os.path.join(workdir, "probe.qual")

    def load():
        return [load_rank_block(fasta, qual, nranks, r) for r in range(nranks)]

    return {
        "io.write_s": median_seconds(lambda: write_reads(block, fasta, qual)),
        "io.load_s": median_seconds(load),
        "io.file_bytes": os.path.getsize(fasta) + os.path.getsize(qual),
    }


def wire_probe(frames: list[bytes]) -> dict[str, float]:
    """The codec alone over every frame the traced iteration sent."""
    messages = [wire.decode_frame(frame) for frame in frames]
    return {
        "simmpi.wire.decode_s": median_seconds(
            lambda: [wire.decode_frame(frame) for frame in frames]
        ),
        "simmpi.wire.encode_s": median_seconds(
            lambda: [wire.encode_frame(m.source, m.tag, m.payload)
                     for m in messages]
        ),
    }


def _alltoallv_program(comm) -> None:
    chunk = np.zeros(COLL_CHUNK_BYTES // 8, dtype=np.uint64)
    chunks = [chunk] * comm.size
    for _ in range(COLL_ROUNDS):
        comm.alltoallv(chunks)


def _barrier_program(comm) -> None:
    for _ in range(COLL_ROUNDS):
        comm.barrier()


def collectives_probe(nranks: int) -> dict[str, float]:
    """Seconds per collective call, all ranks, on the cooperative engine."""
    return {
        "simmpi.coll.alltoallv_s": median_seconds(
            lambda: run_spmd(_alltoallv_program, nranks)
        ) / COLL_ROUNDS,
        "simmpi.coll.barrier_s": median_seconds(
            lambda: run_spmd(_barrier_program, nranks)
        ) / COLL_ROUNDS,
    }


def fixed_round_probe(block, config, heuristics, nranks) -> dict[str, float]:
    """A round's fixed cost: solo one-read jobs on a resident spectrum."""
    latencies = []

    async def drive():
        async with SpectrumService(
            config, nranks, heuristics=heuristics
        ) as service:
            await service.ingest(block)
            for i in range(FIXED_ROUND_JOBS):
                one = block.select(np.arange(i, i + 1))
                start = time.perf_counter()
                await service.correct(one)
                latencies.append(time.perf_counter() - start)

    asyncio.run(drive())
    return {"service.round_fixed_s": statistics.median(latencies)}
