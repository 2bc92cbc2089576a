"""Tests for distributed spectrum construction (Steps II-III)."""

import pytest

from repro.config import ReptileConfig
from repro.core.spectrum import build_spectra
from repro.errors import ConfigError
from repro.hashing.counthash import CountHash
from repro.hashing.sortedspectrum import SortedSpectrum
from repro.io.records import ReadBlock
from repro.parallel.heuristics import HeuristicConfig
from repro.parallel.lookup.stack import compile_stacks, tier_order
from repro.parallel.ownership import key_spaces
from repro.parallel.session import CorrectionSession
from repro.simmpi import run_spmd


@pytest.fixture(scope="module")
def block_and_config(tiny_dataset_mod):
    cfg = ReptileConfig(
        kmer_length=12, tile_overlap=4, kmer_threshold=3, tile_threshold=2
    )
    return tiny_dataset_mod.block, cfg


@pytest.fixture(scope="module")
def tiny_dataset_mod():
    from repro.datasets.genome import random_genome
    from repro.datasets.reads import ErrorModel, ReadSimulator

    sim = ReadSimulator(
        genome=random_genome(4_000, seed=2), read_length=80,
        error_model=ErrorModel(base_rate=0.01), seed=3,
    )
    return sim.simulate(coverage=20)


def _space(cfg, table):
    """The key space a distributed ``"kmers"`` / ``"tiles"`` table holds."""
    return key_spaces(cfg.tile_shape)[table == "tiles"]


def _keyed(cfg, table, serial):
    """A serial table's ``{key: count}``: its ids mixed into keys."""
    ids, counts = getattr(serial, table).items()
    keys = _space(cfg, table).keys(ids)
    return dict(zip(keys.tolist(), counts.tolist()))


def _build(comm, block, cfg, heuristics):
    """Steps II-III on a one-shot session: ingest, finalize, spectra."""
    session = CorrectionSession(comm, cfg, heuristics, retain_raw=False)
    session.ingest(block)
    session.finalize()
    return session.spectra


def _distributed_union(block, cfg, heuristics, nranks=4):
    """Run the distributed build; return the union of owned tables."""
    n = len(block)
    bounds = [n * r // nranks for r in range(nranks + 1)]

    def prog(comm):
        mine = block.slice(bounds[comm.rank], bounds[comm.rank + 1])
        return _build(comm, mine, cfg, heuristics)

    res = run_spmd(prog, nranks, engine="cooperative")
    return res.results


@pytest.mark.parametrize(
    "heuristics",
    [HeuristicConfig(), HeuristicConfig(batch_reads=True)],
    ids=["plain", "batch"],
)
class TestGlobalCountsMatchSerial:
    def test_union_equals_serial_spectra(self, block_and_config, heuristics):
        block, cfg = block_and_config
        serial = build_spectra(block, cfg)
        spectra_list = _distributed_union(block, cfg, heuristics)

        for table in ("kmers", "tiles"):
            ref = _keyed(cfg, table, serial)
            combined = {}
            for sp in spectra_list:
                keys, counts = getattr(sp, table).items()
                owners = _space(cfg, table).owners(keys, len(spectra_list))
                assert (owners == sp.rank).all()  # strictly owned keys
                combined.update(zip(keys.tolist(), counts.tolist()))
            assert combined == ref


class TestReadTables:
    def test_reads_cache_holds_global_counts(self, block_and_config):
        block, cfg = block_and_config
        serial = build_spectra(block, cfg)
        spectra_list = _distributed_union(
            block, cfg, HeuristicConfig(read_kmers=True, read_tiles=True)
        )
        ref = _keyed(cfg, "kmers", serial)
        for sp in spectra_list:
            assert sp.reads_kmers is not None
            assert sp.reads_tiles is not None
            keys, counts = sp.reads_kmers.items()
            # Cached counts equal the serial global counts (0 if filtered).
            for k, c in zip(keys.tolist()[:200], counts.tolist()[:200]):
                assert ref.get(k, 0) == c

    def test_reads_cache_absent_by_default(self, block_and_config):
        block, cfg = block_and_config
        spectra_list = _distributed_union(block, cfg, HeuristicConfig())
        assert all(sp.reads_kmers is None for sp in spectra_list)


class TestReplication:
    def test_allgather_both_replicates_serial(self, block_and_config):
        block, cfg = block_and_config
        serial = build_spectra(block, cfg)
        kspace, tspace = key_spaces(cfg.tile_shape)
        ref_k, ref_c = serial.kmers.items()
        ref_tk, ref_tc = serial.tiles.items()
        ref_k, ref_tk = kspace.keys(ref_k), tspace.keys(ref_tk)
        for tiles_too in (True, False):
            spectra_list = _distributed_union(
                block, cfg,
                HeuristicConfig(allgather_kmers=True, allgather_tiles=tiles_too),
            )
            for sp in spectra_list:
                assert isinstance(sp.kmers, CountHash)
                assert len(sp.kmers) == len(serial.kmers)
                assert (sp.kmers.lookup(ref_k) == ref_c).all()
            if tiles_too:
                assert all(
                    (sp.tiles.lookup(ref_tk) == ref_tc).all()
                    for sp in spectra_list
                )
                continue
            # allgather_kmers alone: the tiles stay sharded by owner and
            # their union is the serial tile spectrum.
            combined = {}
            for sp in spectra_list:
                keys, counts = sp.tiles.items()
                assert (tspace.owners(keys, len(spectra_list)) == sp.rank).all()
                combined.update(zip(keys.tolist(), counts.tolist()))
            assert combined == dict(zip(ref_tk.tolist(), ref_tc.tolist()))

    def test_partial_replication_groups(self, block_and_config):
        block, cfg = block_and_config
        spectra_list = _distributed_union(
            block, cfg, HeuristicConfig(replication_group=2), nranks=4
        )
        for sp in spectra_list:
            assert sp.group_kmers is not None
            base = (sp.rank // 2) * 2
            assert sp.group_ranks == range(base, base + 2)
            # Group table covers exactly the union of the group's tables.
            expected = sum(
                len(spectra_list[r].kmers) for r in sp.group_ranks
            )
            assert len(sp.group_kmers) == expected

    def test_partial_replication_requires_divisibility(self, block_and_config):
        """A session built without ``_validate_run_params`` refuses a group
        that does not divide the world with the same typed error."""
        block, cfg = block_and_config
        with pytest.raises(ConfigError, match="replication_group 3 must divide"):
            _distributed_union(
                block, cfg, HeuristicConfig(replication_group=3), nranks=4
            )


class TestMemoryPeak:
    def test_batch_mode_lowers_construction_peak(self, block_and_config):
        block, cfg = block_and_config
        small_chunks = cfg.with_updates(chunk_size=50)
        plain = _distributed_union(block, small_chunks, HeuristicConfig())
        batched = _distributed_union(
            block, small_chunks, HeuristicConfig(batch_reads=True)
        )
        peak_plain = max(sp.peak_construction_bytes for sp in plain)
        peak_batch = max(sp.peak_construction_bytes for sp in batched)
        assert peak_batch < peak_plain

    def test_table_sizes_reported(self, block_and_config):
        block, cfg = block_and_config
        (sp, *_) = _distributed_union(block, cfg, HeuristicConfig())
        sizes = sp.table_sizes
        assert sizes["kmers"] == len(sp.kmers)
        assert sizes["tiles"] == len(sp.tiles)
        assert sp.nbytes > 0


class TestUnevenRanks:
    def test_rank_with_no_reads_participates(self, block_and_config):
        """More ranks than convenient: some get empty blocks but must not
        break the collectives."""
        block, cfg = block_and_config
        tiny = block.slice(0, 3)

        def prog(comm):
            mine = tiny.slice(comm.rank, comm.rank + 1) if comm.rank < 3 else (
                ReadBlock.empty(tiny.max_length)
            )
            return _build(comm, mine, cfg, HeuristicConfig(batch_reads=True))

        res = run_spmd(prog, 5, engine="cooperative")
        total = sum(len(sp.kmers) for sp in res.results)
        serial = build_spectra(tiny, cfg)
        assert total == len(serial.kmers)


_ROLE_OPTIONS = [
    {},
    {"universal": True},
    {"batch_reads": True},
    {"read_kmers": True, "read_tiles": True},
    {"read_kmers": True, "add_remote_lookups": True},
    {"allgather_kmers": True},
    {"allgather_kmers": True, "allgather_tiles": True},
    {"replication_group": 2},
    {"replication_group": 2, "allgather_tiles": True},
    {"prefetch": True, "replication_group": 2},
]


@pytest.mark.parametrize(
    "options, nranks",
    [
        pytest.param(
            options, nranks,
            id=f"{','.join(options) or 'plain'}-p{nranks}",
        )
        for options in _ROLE_OPTIONS
        for nranks in (1, 4)
        # A replication group needs more than one rank.
        if nranks > 1 or "replication_group" not in options
    ],
)
class TestTableRoles:
    """Each table's form is fixed by its role when it is built: sharded
    read-only tables (owned shards of a kind that is not replicated,
    group tables) are sealed; replicated spectra — allgathered, or a
    one-rank world's whole shard — and read tables are hash tables."""

    def _spectra(self, block_and_config, heuristics, nranks):
        block, cfg = block_and_config
        return _distributed_union(block, cfg, heuristics, nranks=nranks)

    def test_every_table_has_the_form_of_its_role(
        self, block_and_config, options, nranks
    ):
        heuristics = HeuristicConfig(**options)
        for sp in self._spectra(block_and_config, heuristics, nranks):
            for kind in ("kmers", "tiles"):
                replicated = nranks == 1 or options.get(f"allgather_{kind}", False)
                owned = getattr(sp, kind)
                assert type(owned) is (
                    CountHash if replicated else SortedSpectrum
                ), (sp.rank, kind)
                group = getattr(sp, f"group_{kind}")
                if options.get("replication_group", 1) > 1 and not replicated:
                    assert type(group) is SortedSpectrum, (sp.rank, kind)
                else:
                    assert group is None
                reads = getattr(sp, f"reads_{kind}")
                if options.get(f"read_{kind}"):
                    assert type(reads) is CountHash, (sp.rank, kind)
                else:
                    assert reads is None

    def test_tier_order_names_what_compile_stacks_builds(
        self, block_and_config, options, nranks
    ):
        heuristics = HeuristicConfig(**options)

        class _World:
            rank, size = 0, nranks
            stats = None

        (sp, *_) = self._spectra(block_and_config, heuristics, nranks)
        stacks = compile_stacks(
            _World(), sp, heuristics, protocol=object(),
        )
        for kind, stack in (("kmer", stacks.kmers), ("tile", stacks.tiles)):
            expected = tier_order(heuristics, kind, nranks)
            assert stack.describe() == "->".join(expected)
