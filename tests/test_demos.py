"""Every script in demos/ runs to completion and prints what it printed
when its digest was recorded."""

import glob
import hashlib
import os
import subprocess
import sys

import pytest

import pipedelay

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "*.py")))

# sha256 of each demo's stdout; the outputs are deterministic.
STDOUT_SHA256 = {
    "01_delay_distributions.py": "ef5bd6cdcec8bd071086cfcbde996b5873771170de1d7debfd1815b3eb3aac6d",
    "02_camera_arrivals.py": "395284067fb11598c9b9706cbc925c742925f968b0ce2266593a10a35d2d85d6",
    "03_queue_regimes.py": "4e08ab4554c846311dd4f2ed4977aab0d86ac5d728a01d134115817f684c0331",
    "04_variant_comparison.py": "1eecc123c2190e2b0b8e9701105e18d5d445944aaf8d9221167a868a2651dd7a",
    "05_validating_bounds.py": "5de6d16d12c19aa215c2f67bff5840eacf45720d544e6ea36893a0be70426ec2",
}


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pipedelay.__file__)))
    proc = subprocess.run([sys.executable, os.path.abspath(path)], capture_output=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert b"Traceback" not in proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[os.path.basename(path)]
