"""The example scripts and the README's library example run end to end."""

import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


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


def test_readme_quick_start_runs():
    """The README's library example uses only names the package exports."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, "README.md", "exec"), {})
    assert "qsl-ml" in out.getvalue()
