"""API hygiene: docstrings, __all__ consistency, import cleanliness."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.bench",
    "repro.core",
    "repro.datasets",
    "repro.hashing",
    "repro.io",
    "repro.kmer",
    "repro.parallel",
    "repro.perfmodel",
    "repro.simmpi",
    "repro.util",
]


def _all_modules():
    names = set(PACKAGES)
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                names.add(f"{pkg_name}.{info.name}")
    return sorted(names)


@pytest.mark.parametrize("module_name", _all_modules())
def test_module_has_docstring(module_name):
    mod = importlib.import_module(module_name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve_and_are_documented(package_name):
    pkg = importlib.import_module(package_name)
    exported = getattr(pkg, "__all__", [])
    for name in exported:
        assert hasattr(pkg, name), f"{package_name}.__all__ lists missing {name}"
        obj = getattr(pkg, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__doc__, f"{package_name}.{name} lacks a docstring"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_classes_have_documented_public_methods(package_name):
    pkg = importlib.import_module(package_name)
    for name in getattr(pkg, "__all__", []):
        obj = getattr(pkg, name)
        if not inspect.isclass(obj):
            continue
        for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
            if meth_name.startswith("_"):
                continue
            if meth.__module__ and not meth.__module__.startswith("repro"):
                continue  # inherited from stdlib/numpy bases
            assert meth.__doc__, (
                f"{package_name}.{name}.{meth_name} lacks a docstring"
            )


def test_core_does_not_import_parallel():
    """The serial core sits below the distributed layer: no module of
    ``repro.core`` imports ``repro.parallel``, even lazily."""
    core = Path(repro.__file__).parent / "core"
    for path in sorted(core.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not any(
                n == "repro.parallel" or n.startswith("repro.parallel.")
                for n in names
            ), f"{path.name} imports {names}"


def test_no_module_imports_pytest():
    """Library code must not depend on test-only packages."""
    import sys
    import subprocess

    code = (
        "import sys\n"
        "banned = {'pytest', 'hypothesis'}\n"
        "import repro, repro.bench.figures, repro.cli, repro.parallel\n"
        "loaded = banned & set(sys.modules)\n"
        "sys.exit(1 if loaded else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize(
    "needles",
    [
        (".timeout_for(",),
        ('bump("lookup_timeouts"', 'bump("lookup_retries"'),
    ],
    ids=["deadline", "retry_counters"],
)
def test_retry_policy_lives_in_one_module(needles):
    """The deadline/backoff/resend loop exists once: only the
    reliable-request layer reads the plan's retry schedule or charges
    the retry counters (three copies had drifted apart before)."""
    import pathlib

    parallel = pathlib.Path(repro.__file__).parent / "parallel"
    users = sorted(
        path.relative_to(parallel).as_posix()
        for path in parallel.rglob("*.py")
        if any(needle in path.read_text(encoding="utf-8") for needle in needles)
    )
    assert users == ["reliable.py"]


STAGE_FAMILY = [
    "Stage", "StageContext", "StageResult", "PlanConfig", "StagePlan",
    "SliceInputStage", "FileInputStage", "RedistributeStage", "BuildStage",
    "SpectrumExchangeStage", "CorrectStage", "DynamicCorrectStage",
    "WriteBackStage", "static_plan", "files_plan", "build_only_plan",
    "dynamic_plan",
]


def test_the_stage_family_is_gone():
    """One rank-program family: no stage module, no alias left behind."""
    import importlib.util

    import repro.parallel

    assert importlib.util.find_spec("repro.parallel.stages") is None
    for name in STAGE_FAMILY:
        assert name not in repro.parallel.__all__
        assert not hasattr(repro.parallel, name)
        assert not hasattr(repro.parallel.driver, name)


def test_the_pre_session_step_iv_entries_are_gone():
    """A rank's ``CorrectionSession`` is its only Step IV handle: no
    one-shot build or correct wrapper, no backend protocol beside it."""
    import importlib.util

    import repro.parallel
    from repro.parallel.session import CorrectionSession

    assert importlib.util.find_spec("repro.parallel.correct") is None
    assert importlib.util.find_spec("repro.parallel.backend") is None
    for name in ("correct_distributed", "build_rank_spectra", "SessionBackend"):
        assert name not in repro.parallel.__all__
        assert not hasattr(repro.parallel, name)
    assert not hasattr(CorrectionSession, "from_spectra")


def test_step_iv_has_one_request_frame():
    """Blocking rounds, prefetch fetches and fault-mode retries share
    one frame and one serve path: no prefetch endpoint module, no
    fault-mode or prefetch tags, no endpoint export."""
    import importlib.util

    import repro.parallel
    from repro.parallel.lookup.routing import RouteTable
    from repro.simmpi.message import Tags

    assert importlib.util.find_spec("repro.parallel.prefetch") is None
    for name in ("RESILIENT_REQUEST", "RESILIENT_RESPONSE",
                 "PREFETCH_REQUEST", "PREFETCH_RESPONSE"):
        assert not hasattr(Tags, name)
    assert "PrefetchEndpoint" not in repro.parallel.__all__
    assert not hasattr(repro.parallel, "PrefetchEndpoint")
    assert not hasattr(RouteTable, "map_owners")
    # A request names its owner: the serving side re-hashes no id.
    import repro.parallel.lookup.routing as routing

    source = importlib.util.find_spec(routing.__name__).origin
    with open(source, encoding="utf-8") as handle:
        assert "mix_to_rank" not in handle.read()


def test_step_iv_has_one_lookup_plan():
    """A prefetch plan runs the blocking lookahead: the bulk-prefetch
    engine, its chunk cache, the corrector's row hook, the counters and
    the report section are gone, with no alias, and nothing in the
    package names them."""
    gone = (
        "repro.parallel.lookup.planner", "PrefetchExecutor",
        "CachedChunkView", "ChunkCountCache", "PREFETCH_COUNTERS",
        "prefetch_summary", "use_prefetch", "chunk_cache", "note_rows",
    )
    import importlib.util

    for module in ("planner", "cache"):
        assert importlib.util.find_spec(f"repro.parallel.lookup.{module}") is None
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in gone:
            assert name not in text, (path.name, name)


def test_step_ii_has_one_block_kernel():
    """Step II's window ids come from ``WindowLadder``: the packed
    whole-block extractor beside it is gone."""
    import repro.kmer.bitpack

    assert not hasattr(repro.kmer.bitpack, "window_id_matrix")


def test_every_rank_program_runs_its_ops_through_the_runner():
    """Whatever ``src/`` hands to ``run_spmd`` delegates to
    ``SessionOpRunner``: the launch sites are the two drivers', and
    neither program calls a session verb itself."""
    import ast
    import pathlib

    from repro.parallel.driver import BatchProgram
    from repro.service.program import ServingProgram

    src = pathlib.Path(repro.__file__).parent

    def launches(path):
        return any(
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "run_spmd"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )

    launchers = sorted(
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py") if launches(path)
    )
    assert launchers == ["parallel/driver.py", "service/frontend.py"]
    for module, program in (
        ("repro.parallel.driver", BatchProgram),
        ("repro.service.frontend", ServingProgram),
    ):
        assert getattr(importlib.import_module(module), program.__name__) \
            is program
        body = inspect.getsource(program.__call__)
        assert "SessionOpRunner(" in body and "runner.run_op(" in body
        for verb in (".ingest(", ".finalize(", ".correct(", "correct_dynamic("):
            assert verb not in body


def test_an_owner_is_computed_in_one_module():
    """Steps III–IV own keys by range through ``repro.parallel.ownership``
    alone: no module under ``repro.parallel`` or ``repro.bench`` imports
    ``mix_to_rank`` or mixes with ``splitmix64`` itself, the radix
    partition and the id-owner helpers are gone, and so is the
    caller-less ``request_counts``."""
    import repro.parallel
    import repro.parallel.lookup
    import repro.parallel.lookup.routing as routing
    import repro.parallel.ownership as ownership
    from repro.parallel.server import CorrectionProtocol

    src = Path(repro.__file__).parent
    for package in ("parallel", "bench"):
        for path in sorted((src / package).rglob("*.py")):
            names = set()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            assert "mix_to_rank" not in names, path
            if path.name != "ownership.py":
                assert "splitmix64" not in names, path
    assert not hasattr(routing, "partition_by_dest")
    assert "partition_by_dest" not in repro.parallel.lookup.__all__
    for name in ("kmer_owner", "tile_owner"):
        assert not hasattr(ownership, name)
        assert name not in repro.parallel.__all__
    assert not hasattr(CorrectionProtocol, "request_counts")


def test_a_lookup_round_has_one_shape():
    """A round is one ``ask`` of (k-mer keys, tile keys) per owner: the
    answer joiner is gone, the lookup layer knows no ``n_kmer`` chunk
    layout, and the one-message take beside ``take_queued`` is gone."""
    import repro.parallel.server as server
    from repro.parallel.lookup.stack import StackPair
    from repro.parallel.reliable import ReliableRequests
    from repro.simmpi.communicator import Communicator
    from repro.simmpi.engine import Engine

    src = Path(repro.__file__).parent
    assert not hasattr(server, "join_answers")
    for name in ("post", "collect"):
        assert not hasattr(server.CorrectionProtocol, name)
    assert not hasattr(ReliableRequests, "settled")
    assert not hasattr(StackPair, "for_kind")
    for cls in (Communicator, Engine):
        assert not hasattr(cls, "take_ready")
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "join_answers" not in text, path
        assert "take_ready" not in text, path
    for path in sorted((src / "parallel" / "lookup").rglob("*.py")):
        assert "n_kmer" not in path.read_text(encoding="utf-8"), path
