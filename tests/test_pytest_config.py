"""The repository's pytest configuration, run on a small test file of its own."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    # Reporting a falsifying example imports libcst, whose import warns; under
    # filterwarnings = ["error"] alone that warning ended the session with
    # INTERNALERROR, and the later test never ran.
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
        + ["-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example: test_fails(" in proc.stdout
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed in ")
