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
    assert launchers == ["parallel/driver.py", "service/executor.py"]
    for module, program in (
        ("repro.parallel.driver", BatchProgram),
        ("repro.service.executor", ServingProgram),
    ):
        assert getattr(importlib.import_module(module), program.__name__) \
            is program
        body = inspect.getsource(program.__call__)
        assert "SessionOpRunner(" in body and "runner.run_op(" in body
        for verb in (".ingest(", ".finalize(", ".correct(", "correct_dynamic("):
            assert verb not in body
