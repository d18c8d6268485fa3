"""The suite's own pytest settings, run on a scratch test file."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_fails_alone(tmp_path):
    """With every warning an error, the DeprecationWarning of the libcst
    import, which the hypothesis plugin makes to suggest a patch for a
    failing ``@given`` test, once ended the session in an INTERNALERROR
    (exit 3), and the tests after it never ran."""
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_scratch.py").write_text(FAILING_THEN_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_scratch.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
