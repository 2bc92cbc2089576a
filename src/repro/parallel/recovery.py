"""ReStore-style state replication for crash recovery.

Before the correction phase starts — while the transports are still
fully reliable for the REPLICA tag — every rank doomed by the active
:class:`~repro.faults.FaultPlan` makes its recoverable state durable:

* ``recovery="partner"`` — the shard travels in memory to the doomed
  rank's recovery partner ``(rank + 1) % size`` over the reliable
  REPLICA tag (ReStore's in-memory replica, arXiv:2203.01107);
* ``recovery="spill"`` — the shard is written to
  ``plan.spill_dir/rank<r>.npz`` via :mod:`repro.core.persist` and the
  partner loads it back after a barrier (the disk-checkpoint fallback
  for memory-constrained runs).

A rank's recoverable state is its spectrum shard (the owned k-mer and
tile tables — authoritative: an absent owned key exists nowhere) plus
its read partition.  With both in hand, the partner can (a) answer
Step IV lookups for keys the dead rank owned and (b) re-own and replay
the dead rank's reads, so the run's corrected output is bit-identical
to the fault-free reference.

The scripted plan is globally known, standing in for a failure
detector: clients route a doomed owner's lookups straight to its
partner from the start of the correction phase rather than discovering
the death by timeout.
"""

from __future__ import annotations

import os

from repro.errors import ConfigError
from repro.hashing.counthash import merge_pairs
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.io.records import ReadBlock
from repro.parallel.lookup.routing import RouteTable
from repro.simmpi.communicator import Communicator
from repro.simmpi.message import ANY_SOURCE, Tags


class RecoveryState:
    """What one rank holds on behalf of its doomed wards."""

    def __init__(self) -> None:
        #: ward rank -> (k-mer, tile) replica tables, sealed.
        self.replicas: dict[int, tuple[SortedSpectrum, SortedSpectrum]] = {}
        #: ward rank -> the ward's read partition, to be replayed.
        self.ward_blocks: dict[int, ReadBlock] = {}


def _bundle_payload(spectra, block: ReadBlock) -> tuple:
    kmer_keys, kmer_counts = spectra.kmers.items()
    tile_keys, tile_counts = spectra.tiles.items()
    return (kmer_keys, kmer_counts, tile_keys, tile_counts, *block.to_wire())


def _tables_from(kmer_keys, kmer_counts, tile_keys, tile_counts):
    """A ward's shard pairs as sealed replica tables (a ward replica
    only answers lookups, in per-owner batches)."""
    return (
        SortedSpectrum.from_sorted(*merge_pairs([(kmer_keys, kmer_counts)])),
        SortedSpectrum.from_sorted(*merge_pairs([(tile_keys, tile_counts)])),
    )


def replicate_state(
    comm: Communicator, plan, spectra, block: ReadBlock
) -> RecoveryState:
    """Make every doomed rank's state recoverable (collective).

    Returns this rank's :class:`RecoveryState`: empty unless it is the
    recovery partner of some doomed rank.
    """
    state = RecoveryState()
    doomed = sorted(plan.doomed_ranks())
    if not doomed:
        return state
    rank = comm.rank
    # The same compiled routing the lookup stack uses decides whose
    # state lands here: this rank replicates exactly the shards it will
    # later re-bind and answer for.
    wards = list(RouteTable.compile(plan, comm.size).wards_of(rank))

    if plan.recovery == "spill":
        from repro.core.persist import (
            load_recovery_bundle, save_recovery_bundle,
        )

        if plan.spill_dir is None:
            raise ConfigError('recovery="spill" requires spill_dir')
        if rank in doomed:
            kmer_keys, kmer_counts = spectra.kmers.items()
            tile_keys, tile_counts = spectra.tiles.items()
            save_recovery_bundle(
                os.path.join(plan.spill_dir, f"rank{rank}.npz"),
                kmer_keys=kmer_keys, kmer_counts=kmer_counts,
                tile_keys=tile_keys, tile_counts=tile_counts,
                codes=block.codes, lengths=block.lengths,
                quals=block.quals, ids=block.ids,
            )
            comm.stats.bump("replicas_sent")
        # Bundles must be on disk before any partner loads them.
        comm.barrier()
        for ward in wards:
            bundle = load_recovery_bundle(
                os.path.join(plan.spill_dir, f"rank{ward}.npz")
            )
            state.replicas[ward] = (bundle["kmers"], bundle["tiles"])
            state.ward_blocks[ward] = ReadBlock(
                ids=bundle["ids"],
                codes=bundle["codes"],
                lengths=bundle["lengths"],
                quals=bundle["quals"],
            )
            comm.stats.bump("replicas_held")
        return state

    # In-memory partner replication over the reliable REPLICA tag.
    if rank in doomed:
        comm.send(
            plan.partner_of(rank, comm.size),
            _bundle_payload(spectra, block),
            tag=Tags.REPLICA,
        )
        comm.stats.bump("replicas_sent")
    for _ in wards:
        msg = comm.recv(source=ANY_SOURCE, tag=Tags.REPLICA)
        state.replicas[msg.source] = _tables_from(*msg.payload[:4])
        state.ward_blocks[msg.source] = ReadBlock.from_wire(msg.payload[4:])
        comm.stats.bump("replicas_held")
    return state
