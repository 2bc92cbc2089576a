"""The whole traffic ledger of three small seeded runs, pinned.

Every rank's :class:`~repro.simmpi.instrument.CommStats` — messages and
bytes sent, by tag and by peer, and every protocol counter — of three
cooperative runs must repeat ``ledger_pin.json`` exactly:

* ``universal``: a batch :class:`~repro.parallel.ParallelReptile` run
  under the universal heuristic (one frame per owner and round);
* ``base_group2``: a base-mode batch run (a frame per kind, the receiver
  probes) with a replication group of 2;
* ``service``: a :class:`~repro.service.SpectrumService` session that
  ingests the reads, then corrects two parts of them in two rounds.

A dropped or doubled counter bump, an extra or a missing frame, or a
byte more on the wire fails here.  A change that moves the ledger on
purpose regenerates the file and says what moved::

    PYTHONPATH=src python -m tests.parallel.test_ledger_pin --write
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import pytest

from repro.bench.harness import small_scale
from repro.parallel import HeuristicConfig, ParallelReptile
from repro.service import SpectrumService

PIN = Path(__file__).with_name("ledger_pin.json")
NRANKS = 4


def _scale():
    return small_scale("E.Coli", genome_size=2_000, seed=5, chunk_size=250)


def _ledger(stats) -> list[dict]:
    """Each rank's ledger as JSON-ready data (integer keys as strings)."""

    def keyed(tally):
        return {str(k): v for k, v in sorted(tally.items())}

    return [
        {
            "messages_sent": s.messages_sent,
            "bytes_sent": s.bytes_sent,
            "messages_by_tag": keyed(s.messages_by_tag),
            "bytes_by_tag": keyed(s.bytes_by_tag),
            "messages_by_peer": keyed(s.messages_by_peer),
            "bytes_by_peer": keyed(s.bytes_by_peer),
            "counters": dict(sorted(s.counters.items())),
        }
        for s in stats
    ]


def _batch(heuristics: HeuristicConfig) -> list[dict]:
    scale = _scale()
    result = ParallelReptile(
        scale.config, heuristics, nranks=NRANKS, engine="cooperative"
    ).run(scale.dataset.block)
    return _ledger(result.stats)


def _service() -> list[dict]:
    scale = _scale()
    block = scale.dataset.block
    half = len(block) // 2
    service = SpectrumService(
        scale.config, NRANKS, heuristics=HeuristicConfig(universal=True)
    )

    async def drive():
        async with service:
            await service.ingest(block)
            await service.correct(block.select(range(0, half)))
            await service.correct(block.select(range(half, len(block))))

    asyncio.run(drive())
    return _ledger(service.result.stats)


RUNS = {
    "universal": lambda: _batch(HeuristicConfig(universal=True)),
    "base_group2": lambda: _batch(HeuristicConfig(replication_group=2)),
    "service": _service,
}


@pytest.mark.parametrize("run", list(RUNS))
def test_ledger_repeats_the_pinned_one(run):
    pinned = json.loads(PIN.read_text())[run]
    ledger = RUNS[run]()
    assert len(ledger) == len(pinned) == NRANKS
    for rank, (got, want) in enumerate(zip(ledger, pinned)):
        for field in want:
            assert got[field] == want[field], f"rank {rank} {field}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.parallel.test_ledger_pin --write")
    PIN.write_text(
        json.dumps({name: run() for name, run in RUNS.items()}, indent=1) + "\n"
    )
    print(f"wrote {PIN}")
