"""Count resolution: local tiers, then one lookup round to the owners.

Every distributed path that resolves k-mer/tile counts — a session's
lookup rounds, the dynamic ablation's work units, and partner-takeover
recovery — runs the same compiled :class:`StackPair` (one
:class:`LookupStack` per spectrum), built **once per rank** by
:func:`compile_stacks` from the rank's
:class:`~repro.parallel.build.RankSpectra` and
:class:`~repro.parallel.heuristics.HeuristicConfig`.  A stack reads
each count from the cheapest local table that holds it — an
:class:`AuthorityTier` (owned shard, replication group, replica) or a
:class:`CacheTier` (the reads table); what is left goes to
the owners in the pair's lookup round.  See ``docs/RUNTIME.md`` ("The
lookup tier stack") for the layer diagram.

Modules:

* :mod:`~repro.parallel.lookup.tiers` — the two tier types, which
  answer a lookup round's open positions;
* :mod:`~repro.parallel.lookup.stack` — :class:`LookupStack`, the
  :class:`StackPair` and its lookup round (ordered once, as a
  :class:`~repro.parallel.lookup.stack.LookupRound`),
  :func:`compile_stacks`, and the order helpers it compiles from;
* :mod:`~repro.parallel.lookup.routing` — owner→destination routing
  (:class:`RouteTable`) and the serving-side :class:`ShardServer` that
  recovery re-binds wards onto.

This package is the **only** place in :mod:`repro.parallel` allowed to
probe spectrum tables directly; lint rule MPI007 enforces that.
"""

from repro.parallel.lookup.routing import (
    KIND_KMER,
    KIND_TILE,
    RouteTable,
    ShardServer,
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
)

__all__ = [
    "AuthorityTier",
    "BYTES_PER_HIT",
    "CacheTier",
    "KIND_KMER",
    "KIND_TILE",
    "LookupStack",
    "RouteTable",
    "ShardServer",
    "StackPair",
    "TIER_NAMES",
    "compile_stacks",
    "resolution_order",
    "tier_order",
]
