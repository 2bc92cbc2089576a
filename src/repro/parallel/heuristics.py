"""The paper's execution heuristics as a validated configuration object.

Section III-B of the paper describes five heuristic families, "to be
employed for efficient execution based on the dataset and the
architecture":

* **universal** — requests carry their kind (k-mer vs tile) inside the
  message instead of in the MPI tag, so the serving rank receives any
  message directly rather than probing per tag (8.8% faster in Fig. 5).
* **read k-mers / tiles** — after the global exchange, each rank also keeps
  a table of global counts for the k-mers/tiles occurring in *its own*
  reads, consulted before messaging the owner.
* **allgather k-mers / tiles / both** — replicate a whole spectrum on every
  rank; no messages for that spectrum during correction.
* **add remote lookups** — cache counts learned from remote lookups into
  the reads tables (requires the corresponding read-table mode).
* **batch reads table** — run the Step III exchange after every chunk of
  reads instead of once at the end, emptying the reads tables between
  chunks (bounds their size; used for the human dataset).

``load_balance`` is the static redistribution of Section III-A, and
``replication_group`` implements the *partial replication* idea from the
paper's future-work section (Section V): each rank additionally holds the
owned tables of its replication group, so only lookups owned outside the
group travel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError


@dataclass(frozen=True)
class HeuristicConfig:
    """Which of the paper's heuristics a run employs."""

    universal: bool = False
    read_kmers: bool = False
    read_tiles: bool = False
    allgather_kmers: bool = False
    allgather_tiles: bool = False
    add_remote_lookups: bool = False
    batch_reads: bool = False
    #: Accepted and inert: a ``prefetch=True`` plan runs the blocking
    #: lookahead every messaging plan runs (one request per owner per
    #: dependent round for a rank's whole share, each candidate's
    #: look-ahead tiles in the same round), which already aggregates
    #: what a bulk prefetch would.  It stays only because the
    #: ``static_prefetch_p8`` benchmark row sets it: ROADMAP item 1(a)
    #: renames that row, and item 2 then deletes this field.
    prefetch: bool = False
    load_balance: bool = True
    #: Partial replication group size (1 = none; must divide evenly into
    #: the rank count at run time).  Future-work feature, Section V.
    replication_group: int = 1

    def __post_init__(self) -> None:
        if self.add_remote_lookups and not (self.read_kmers or self.read_tiles):
            raise ConfigError(
                "add_remote_lookups requires read_kmers and/or read_tiles "
                "(remote counts are cached into the reads tables)"
            )
        if self.replication_group < 1:
            raise ConfigError("replication_group must be >= 1")
        if self.replication_group > 1 and (self.allgather_kmers and self.allgather_tiles):
            raise ConfigError(
                "partial replication is pointless when both spectra are "
                "fully replicated"
            )

    @property
    def allgather_both(self) -> bool:
        """Full replication of both spectra (the fastest, heaviest mode)."""
        return self.allgather_kmers and self.allgather_tiles

    @property
    def needs_messaging(self) -> bool:
        """Does the correction phase exchange any messages at all?"""
        return not self.allgather_both

    def with_updates(self, **kwargs) -> "HeuristicConfig":
        """A copy with the given flags replaced (validated again)."""
        return replace(self, **kwargs)

    def describe(self) -> str:
        """Short human-readable mode string for reports."""
        on = [
            name
            for name in (
                "universal", "read_kmers", "read_tiles", "allgather_kmers",
                "allgather_tiles", "add_remote_lookups", "batch_reads",
            )
            if getattr(self, name)
        ]
        if self.replication_group > 1:
            on.append(f"replication_group={self.replication_group}")
        on.append("load_balance" if self.load_balance else "no_load_balance")
        return "+".join(on) if on else "base"


#: The paper's preferred configuration: "the advantageous heuristics are
#: universal, which reduces the runtime, and batch reads table, which
#: reduces the memory footprint" (plus static load balancing).
PAPER_DEFAULT = HeuristicConfig(universal=True, batch_reads=True, load_balance=True)
