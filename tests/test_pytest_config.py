"""The suite's pytest configuration reports a failing property in full.

``pyproject.toml`` promotes deprecation warnings to errors.  A failing
hypothesis property must still print its falsifying example instead of
ending the run in ``INTERNALERROR``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers(min_value=0, max_value=10))
def test_fails(x):
    assert x < 5
'''


def test_failing_property_prints_its_falsifying_example(tmp_path):
    shutil.copy(REPO / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
