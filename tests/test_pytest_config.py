"""The test configuration itself: a failing hypothesis example is reported as
one failed test and the session goes on, under the repository's warning
filters."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

PAIR = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
'''


def test_failing_hypothesis_example_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR)
    argv = [
        sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
        "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "-rA", "test_pair.py",
    ]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "PASSED test_pair.py::test_after" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
