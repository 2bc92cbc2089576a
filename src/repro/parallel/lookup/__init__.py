"""Count resolution as an ordered stack of composable tiers.

Every path that resolves k-mer/tile counts — the serial
:class:`~repro.core.spectrum.LocalSpectrumView`, the blocking session
round, the prefetch planner/executor, and partner-takeover recovery —
runs the same
compiled :class:`LookupStack`, built **once per rank** by
:func:`compile_stacks` from the rank's
:class:`~repro.parallel.build.RankSpectra` and
:class:`~repro.parallel.heuristics.HeuristicConfig`.  See
``docs/RUNTIME.md`` ("The lookup tier stack") for the layer diagram.

Modules:

* :mod:`~repro.parallel.lookup.tiers` — the tier classes and the
  :class:`Resolution` state they fill in;
* :mod:`~repro.parallel.lookup.stack` — :class:`LookupStack`,
  :func:`compile_stacks`, and the report-facing order helpers;
* :mod:`~repro.parallel.lookup.routing` — owner→destination routing
  (:class:`RouteTable`) and the serving-side :class:`ShardServer` that
  recovery re-binds wards onto;
* :mod:`~repro.parallel.lookup.cache` — the :class:`ChunkCountCache`
  backing the prefetch stack's tier 0;
* :mod:`~repro.parallel.lookup.planner` — the prefetch planner view and
  pipelined :class:`PrefetchExecutor`.

This package is the **only** place in :mod:`repro.parallel` allowed to
probe spectrum tables directly; lint rule MPI007 enforces that.
"""

from repro.parallel.lookup.cache import ChunkCountCache
from repro.parallel.lookup.routing import (
    KIND_KMER,
    KIND_TILE,
    RouteTable,
    ShardServer,
    partition_by_dest,
)
from repro.parallel.lookup.stack import (
    TIER_NAMES,
    LookupStack,
    StackPair,
    compile_stacks,
    resolution_order,
    tier_order,
)
from repro.parallel.lookup.tiers import (
    BYTES_PER_HIT,
    AllgatherReplicaTier,
    ChunkCacheTier,
    LookupTier,
    OwnedShardTier,
    ReadsTableTier,
    RemoteFetchTier,
    ReplicationGroupTier,
    Resolution,
)
from repro.parallel.lookup.planner import CachedChunkView, PrefetchExecutor

__all__ = [
    "AllgatherReplicaTier",
    "BYTES_PER_HIT",
    "CachedChunkView",
    "ChunkCacheTier",
    "ChunkCountCache",
    "KIND_KMER",
    "KIND_TILE",
    "LookupStack",
    "LookupTier",
    "OwnedShardTier",
    "PrefetchExecutor",
    "ReadsTableTier",
    "RemoteFetchTier",
    "ReplicationGroupTier",
    "Resolution",
    "RouteTable",
    "ShardServer",
    "StackPair",
    "TIER_NAMES",
    "compile_stacks",
    "partition_by_dest",
    "resolution_order",
    "tier_order",
]
