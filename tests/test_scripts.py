"""The example scripts and the README's library example run end to end."""

import contextlib
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nhbounds

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


PUBLIC_NAMES = [
    "BadParameter", "BoundReport", "ClassicalMarkovModel", "CommutatorViolation",
    "DegenerateObservable", "DensityOperator", "HermiticityViolation", "IntegratorDiverged",
    "JumpCountObservable", "LindbladModel", "NonHermitianModel", "NonPositiveGamma",
    "NormUnderflow", "NotDistribution", "NotPSD", "NumericalOverflow", "QuadratureDiverged",
    "SLACK_TOL", "ShapeError", "SimulationError", "StateVector", "Trajectory",
    "TrajectoryEnsemble", "bounds", "classical_initial_density", "commutator_check", "errors",
    "evolve_lindblad", "fid_ml", "fid_ml_open", "fid_mt", "fid_mt_open", "fidelity",
    "generalized_std", "ground_energy", "jump_count_moments", "linalg", "liouvillian",
    "make_classical", "make_dephasing", "make_refrigerator", "metrics", "models", "normalize",
    "propagation", "propagator", "pure_density", "qsl_classical", "qsl_ml", "qsl_ml_open",
    "qsl_mt", "qsl_mt_open", "random_commuting", "random_density",
    "random_diagonal_jump_lindblad", "random_pure_state", "renyi_half", "sample_trajectory",
    "states", "sweep", "trajectory_ensemble", "tur_classical", "tur_ml", "tur_ml_open",
    "tur_mt", "tur_mt_open",
]


def test_public_surface_is_pinned():
    """Adding or removing an export is a deliberate change to this list."""
    assert len(PUBLIC_NAMES) == 66
    assert sorted(nhbounds.__all__) == PUBLIC_NAMES
