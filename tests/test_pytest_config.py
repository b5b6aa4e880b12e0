"""The suite's own pytest settings, run on a throwaway test file."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    # reporting a failing example imports libcst, whose import warns; under
    # filterwarnings = error that warning broke hypothesis's pytest hook,
    # which ended the whole run with INTERNALERROR
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert re.search(r"\b1 failed, 1 passed\b", done.stdout.splitlines()[-1])
