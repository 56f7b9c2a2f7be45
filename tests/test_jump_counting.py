"""Exact jump-count moments from full counting statistics.

``jump_count_moments`` reads E[N] and E[N(N-1)] off one block-triangular
matrix exponential.  The oracles here are independent of that route: the
Poisson count of dephasing, the counting-field derivatives of the tilted
generating function Tr exp((L + (e^s - 1) J) tau) rho0 by finite
differences, the dynamical activity at tau -> 0, and Monte Carlo ensembles.
``check --observable jump-count`` reads these moments and samples nothing.
"""

import csv
import json
import math

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from nhbounds import (
    ClassicalMarkovModel,
    LindbladModel,
    StateVector,
    classical_initial_density,
    cli,
    jump_count_moments,
    liouvillian,
    make_classical,
    make_dephasing,
    make_refrigerator,
    propagation,
    random_density,
    random_diagonal_jump_lindblad,
    trajectory_ensemble,
)
from nhbounds.bounds import SLACK_TOL
from nhbounds.errors import BadParameter, ShapeError
from nhbounds.states import as_density_matrix
from conftest import SX, SZ

PLUS2 = StateVector(np.ones(2) / math.sqrt(2.0))
PLUS3 = StateVector(np.ones(3) / math.sqrt(3.0))
REFRIGERATOR = dict(gamma=1.0, omega1=1.0, omega2=1.0, beta1=1.0, beta2=1.05, beta3=0.9)


def refrigerator():
    return make_refrigerator(**REFRIGERATOR)


def driven_decay():
    """Driven amplitude damping plus dephasing: H_S does not commute with the jumps."""
    ls = (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 0.5 * SZ)
    return LindbladModel(0.8 * SX, ls)


def chain_model():
    rates = np.array([[0.0, 0.7, 0.2], [0.4, 0.0, 1.1], [0.3, 0.5, 0.0]])
    chain = ClassicalMarkovModel(rates, np.array([0.6, 0.3, 0.1]))
    return make_classical(chain), classical_initial_density(chain)


def tilted_cumulants(model, state, tau, h=1e-3):
    """First two cumulants of N by central differences of ln G(s).

    G(s) = Tr exp((L + (e^s - 1) J) tau) rho0 with J the jump part of the
    Liouvillian, exponentiated by scipy; truncation is O(h^2).
    """
    d = model.dim
    jump = sum(np.kron(l, np.conj(l)) for l in model.jumps)
    rho = as_density_matrix(state)
    vec_eye = np.eye(d).reshape(-1)

    def log_g(s):
        gen = liouvillian(model) + np.expm1(s) * jump
        return math.log((vec_eye @ scipy_expm(gen * tau) @ rho.reshape(-1)).real)

    lo, mid, hi = log_g(-h), log_g(0.0), log_g(h)
    return (hi - lo) / (2.0 * h), (hi - 2.0 * mid + lo) / h**2


class TestJumpCountMoments:
    @pytest.mark.parametrize("gamma_tau", [1e-3, 1e-2, 0.1, 1.0, 5.0, 20.0, 50.0])
    def test_dephasing_is_poisson(self, gamma_tau):
        gamma = 0.7
        mean, var = jump_count_moments(make_dephasing(gamma), PLUS2, gamma_tau / gamma)
        assert mean == pytest.approx(gamma_tau, rel=1e-12, abs=0.0)
        assert var == pytest.approx(gamma_tau, rel=1e-12, abs=0.0)

    def test_reference_values(self):
        mean, var = jump_count_moments(refrigerator(), PLUS3, 1.0)
        assert mean == pytest.approx(1.5313911, abs=1e-7)
        assert var == pytest.approx(1.5436773, abs=1e-7)
        mean, var = jump_count_moments(make_dephasing(0.7), PLUS2, 2.0)
        assert mean == pytest.approx(1.4, rel=1e-12, abs=0.0)
        assert var == pytest.approx(1.4, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("case", ["refrigerator", "driven", "random", "classical"])
    def test_counting_field_derivatives(self, case):
        if case == "refrigerator":
            model, state = refrigerator(), PLUS3
        elif case == "driven":
            model, state = driven_decay(), PLUS2
        elif case == "random":
            model, state = random_diagonal_jump_lindblad(3, 5, 1.3), random_density(3, 6)
        else:
            model, state = chain_model()
        for tau in (0.3, 1.0, 2.5):
            mean, var = jump_count_moments(model, state, tau)
            k1, k2 = tilted_cumulants(model, state, tau)
            assert mean == pytest.approx(k1, rel=1e-5)
            assert var == pytest.approx(k2, rel=1e-5)

    @pytest.mark.parametrize("case", ["refrigerator", "driven", "classical"])
    def test_initial_slope_is_the_activity(self, case):
        if case == "refrigerator":
            model, state = refrigerator(), PLUS3
        elif case == "driven":
            model, state = driven_decay(), PLUS2
        else:
            model, state = chain_model()
        h = 1e-4
        # Richardson on E[N](h)/h = a + b h + O(h^2)
        slope = 2.0 * jump_count_moments(model, state, h / 2)[0] / (h / 2)
        slope -= jump_count_moments(model, state, h)[0] / h
        activity = np.trace(model.jump_rate_operator() @ as_density_matrix(state)).real
        assert slope == pytest.approx(activity, rel=1e-7)

    def test_symmetric_classical_chain_is_poisson(self):
        # every state leaves at rate 1, so jumps arrive as a unit-rate Poisson process
        chain = ClassicalMarkovModel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
        model, rho0 = make_classical(chain), classical_initial_density(chain)
        for tau in (0.01, 0.5, 3.0):
            mean, var = jump_count_moments(model, rho0, tau)
            assert mean == pytest.approx(tau, rel=1e-12, abs=0.0)
            assert var == pytest.approx(tau, rel=1e-12, abs=0.0)

    def test_zero_time_and_no_channels(self):
        assert jump_count_moments(refrigerator(), PLUS3, 0.0) == (0.0, 0.0)
        silent = LindbladModel(SX, ())
        assert jump_count_moments(silent, PLUS2, 1.5) == (0.0, 0.0)

    def test_bad_arguments(self):
        with pytest.raises(BadParameter):
            jump_count_moments(make_dephasing(1.0), PLUS2, -0.1)
        with pytest.raises(ShapeError):
            jump_count_moments(make_dephasing(1.0), PLUS3, 0.5)

    def test_generator_built_once(self):
        model = refrigerator()
        gen = propagation._counting_generator(model)
        assert propagation._counting_generator(model) is gen
        assert gen.shape == (27, 27) and not gen.flags.writeable

    @pytest.mark.parametrize("case, seed", [("dephasing", 41), ("refrigerator", 42),
                                            ("driven", 43)])
    def test_monte_carlo_agrees(self, case, seed):
        model, state, tau = {
            "dephasing": (make_dephasing(1.3), PLUS2, 1.0),
            "refrigerator": (refrigerator(), PLUS3, 1.0),
            "driven": (driven_decay(), PLUS2, 1.5),
        }[case]
        n = 16_000
        counts = trajectory_ensemble(model, state, tau, n, seed=seed).jump_counts.astype(float)
        mean, var = jump_count_moments(model, state, tau)
        dev = counts - counts.mean()
        sample_var = float(dev @ dev) / (n - 1)
        se_mean = math.sqrt(sample_var / n)
        se_var = math.sqrt((float(np.mean(dev**4)) - sample_var**2) / n)
        assert abs(counts.mean() - mean) <= 5.0 * se_mean
        assert abs(sample_var - var) <= 5.0 * se_var


def check_argv(tmp_path, seed):
    return ["check", "--model", "builtin:dephasing?gamma=1.0", "--state", "plus",
            "--bounds", "ml-open,mt-open", "--observable", "jump-count",
            "--t-final", "0.1", "--steps", "4", "--seed", str(seed),
            "--out", str(tmp_path / "out.csv")]


class TestCheckJumpCount:
    @pytest.mark.parametrize("seed", range(5))
    def test_short_dephasing_sweep_holds(self, tmp_path, seed):
        # rhs = gamma*tau < e^(gamma*tau) - 1 = lhs; sampled moments broke it
        assert cli.main(check_argv(tmp_path, seed)) == 0
        with open(tmp_path / "out.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        tur = [r for r in rows if r["bound"] in ("tur-ml-open", "tur-mt-open")]
        assert len(tur) == 8
        for r in tur:
            assert float(r["rhs"]) == pytest.approx(float(r["t"]), rel=1e-12, abs=0.0)
            assert float(r["slack"]) >= -SLACK_TOL

    def test_samples_nothing(self, tmp_path, monkeypatch):
        calls = []
        unravel = propagation._unravel

        def counting(*args, **kwargs):
            calls.append(args)
            return unravel(*args, **kwargs)

        # every trajectory sampler runs this kernel
        monkeypatch.setattr(propagation, "_unravel", counting)
        argv = check_argv(tmp_path, 0)
        argv[argv.index("builtin:dephasing?gamma=1.0")] = (
            "builtin:refrigerator?beta2=1.05&beta3=0.9")
        assert cli.main(argv) == 0
        assert calls == []

    def test_output_does_not_depend_on_seed(self, tmp_path):
        outs = []
        for i, extra in enumerate([["--seed", "0"], ["--seed", "17"]]):
            argv = check_argv(tmp_path, 0)[:-2] + extra + ["--out", str(tmp_path / f"{i}.csv")]
            assert cli.main(argv) == 0
            outs.append((tmp_path / f"{i}.csv").read_bytes())
        assert outs[0] == outs[1]


class TestTrajectorySummary:
    @pytest.mark.parametrize("model, state, seed", [
        ("builtin:dephasing?gamma=1.3", "plus", 5),
        ("builtin:refrigerator?beta2=1.05&beta3=0.9", "plus", 6),
        ("builtin:refrigerator?beta2=1.05&beta3=0.9", "maxmixed", 7),
    ])
    def test_sampled_mean_within_five_sigma_of_exact(self, tmp_path, model, state, seed):
        out = tmp_path / "traj.csv"
        argv = ["trajectory", "--model", model, "--state", state, "--t-final", "1.0",
                "--n-traj", "4000", "--seed", str(seed), "--out", str(out)]
        assert cli.main(argv) == 0
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert set(summary) == {
            "n_trajectories", "t_final", "seed", "n_steps", "mean_jump_count",
            "jump_count_std", "jump_count_stderr", "max_abs_deviation_from_lindblad",
            "max_entry_stderr", "exact_mean_jump_count", "exact_jump_count_var",
            "jump_count_z",
        }
        gap = summary["mean_jump_count"] - summary["exact_mean_jump_count"]
        assert summary["jump_count_z"] == pytest.approx(gap / summary["jump_count_stderr"])
        assert abs(summary["jump_count_z"]) <= 5.0
        assert summary["exact_jump_count_var"] > 0.0

    def test_dephasing_exact_values(self, tmp_path):
        out = tmp_path / "traj.csv"
        argv = ["trajectory", "--model", "builtin:dephasing?gamma=0.7", "--state", "plus",
                "--t-final", "2.0", "--n-traj", "50", "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == 0
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["exact_mean_jump_count"] == pytest.approx(1.4, rel=1e-12, abs=0.0)
        assert summary["exact_jump_count_var"] == pytest.approx(1.4, rel=1e-12, abs=0.0)
