"""Count resolution: local tiers, then one lookup round to the owners.

Every distributed path that resolves k-mer/tile counts — the blocking
session round, the prefetch planner/executor, and partner-takeover
recovery — runs the same compiled :class:`StackPair` (one
:class:`LookupStack` per spectrum), built **once per rank** by
:func:`compile_stacks` from the rank's
:class:`~repro.parallel.build.RankSpectra` and
:class:`~repro.parallel.heuristics.HeuristicConfig`.  A stack reads
each count from the cheapest local table that holds it — an
:class:`AuthorityTier` (owned shard, replication group, replica) or a
:class:`CacheTier` (chunk cache, reads table); what is left goes to
the owners in the pair's lookup round.  See ``docs/RUNTIME.md`` ("The
lookup tier stack") for the layer diagram.

Modules:

* :mod:`~repro.parallel.lookup.tiers` — the two tier types and the
  :class:`Resolution` state they fill in;
* :mod:`~repro.parallel.lookup.stack` — :class:`LookupStack`, the
  :class:`StackPair` and its lookup round, :func:`compile_stacks`, and
  the order helpers it compiles from;
* :mod:`~repro.parallel.lookup.routing` — owner→destination routing
  (:class:`RouteTable`) and the serving-side :class:`ShardServer` that
  recovery re-binds wards onto;
* :mod:`~repro.parallel.lookup.cache` — the :class:`ChunkCountCache`
  backing the prefetch stack's first tier;
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
    AuthorityTier,
    CacheTier,
    Resolution,
)
from repro.parallel.lookup.planner import CachedChunkView, PrefetchExecutor

__all__ = [
    "AuthorityTier",
    "BYTES_PER_HIT",
    "CacheTier",
    "CachedChunkView",
    "ChunkCountCache",
    "KIND_KMER",
    "KIND_TILE",
    "LookupStack",
    "PrefetchExecutor",
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
