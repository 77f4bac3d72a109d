"""Every script in demos/ runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

import pipedelay

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py")))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pipedelay.__file__)))
    proc = subprocess.run([sys.executable, os.path.abspath(path)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
