"""The pytest settings report every failure and then stop, not before.

`filterwarnings = ["error"]` turns every warning into an error.  When a
property test fails, hypothesis imports libcst to report it, and that
import warns; as an error it would end the session with an internal
error, skipping every later test and the falsifying example.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_fails():
    assert False
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    for name in ("pyproject.toml", "conftest.py"):
        shutil.copy(ROOT / name, tmp_path / name)
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAILED test_probe.py::test_property_fails" in proc.stdout
    assert "FAILED test_probe.py::test_plain_fails" in proc.stdout
