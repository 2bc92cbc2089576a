"""ReStore-style state replication for crash recovery.

Before the correction phase starts — while the transports are still
fully reliable for the REPLICA tag — every rank doomed by the active
:class:`~repro.faults.FaultPlan` ships its recoverable state in memory
to its recovery partner ``(rank + 1) % size`` over the reliable REPLICA
tag (ReStore's in-memory replica, arXiv:2203.01107).

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

from repro.hashing.counthash import merge_pairs
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.io.records import ReadBlock
from repro.parallel.build import wire_pairs
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
    """The REPLICA frame: the shard's pairs at table width, as Step III
    and replication ship them, then the read partition."""
    kmer_keys, kmer_counts = wire_pairs(spectra.kmers)
    tile_keys, tile_counts = wire_pairs(spectra.tiles)
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
