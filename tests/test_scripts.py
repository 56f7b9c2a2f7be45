"""The example scripts run end to end at small sizes."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "name, args",
    [
        ("dephasing_sweep.py", ["--steps", "2", "--out", "{tmp}/dephasing.csv"]),
        ("refrigerator_sweep.py", ["--steps", "2"]),
        ("trajectory_demo.py", ["--n-traj", "500"]),
    ],
)
def test_script_exits_zero(tmp_path, name, args):
    argv = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
