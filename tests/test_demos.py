"""The narrative demos run end to end against the current API.

Demo 04's reduced three-seed comparison takes about a second, so every
demo runs here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "01_space_and_oracle",
    "02_networks_and_training",
    "03_online_gan_round",
    "04_compare_algorithms",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
