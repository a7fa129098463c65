"""Every demo script runs to completion against the package sources."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_cleanly(path):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run(
        [sys.executable, path], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
