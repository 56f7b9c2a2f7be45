"""The adaptive G7/K15 rule of the MT path, checked without scipy: the
tabulated nodes and weights, and one quadrature for constant and
time-dependent models."""

import math

import numpy as np
import pytest

from nhbounds import (
    NonHermitianModel,
    StateVector,
    random_commuting,
    random_density,
    random_pure_state,
)
from nhbounds import bounds as bnd
from nhbounds.states import as_density_matrix

from conftest import noncommuting_model


def monomial_integral(k: int) -> float:
    """The integral of x^k over [-1, 1]."""
    return 0.0 if k % 2 else 2.0 / (k + 1)


class TestKronrodRule:
    """A mistyped node or weight breaks exactness on some low-degree monomial."""

    @pytest.mark.parametrize("k", range(23))
    def test_k15_exact_to_degree_22(self, k):
        assert abs(bnd._K15_X**k @ bnd._K15_W - monomial_integral(k)) <= 1e-15

    @pytest.mark.parametrize("k", range(14))
    def test_g7_exact_to_degree_13(self, k):
        assert abs(bnd._K15_X[1::2] ** k @ bnd._G7_W - monomial_integral(k)) <= 1e-15

    def test_weights_sum_to_two(self):
        assert abs(bnd._K15_W.sum() - 2.0) <= 1e-15
        assert abs(bnd._G7_W.sum() - 2.0) <= 1e-15

    def test_nodes_ascending_and_symmetric(self):
        assert np.all(np.diff(bnd._K15_X) > 0.0)
        assert np.array_equal(bnd._K15_X, -bnd._K15_X[::-1])


class TestUnrefinedEstimate:
    """With bisection switched off, each interval's qk15 estimate alone has to
    cover the truncation error of a coarse rule."""

    @pytest.fixture(autouse=True)
    def no_bisection(self, monkeypatch):
        monkeypatch.setattr(bnd, "_QUAD_RTOL", math.inf)

    @pytest.mark.parametrize("steps", [15, 30, 150, 450, 1500])
    def test_strong_decay_pulse(self, steps):
        """From plus, Gamma = diag(0, 400) turns the state by exactly pi/4,
        in a pulse of width 1/800 at t = 0."""
        model = NonHermitianModel(np.zeros((2, 2)), np.diag([0.0, 400.0]))
        rho0 = as_density_matrix(StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0)))
        path = bnd._mt_paths(model, rho0, [(0.0, 2.0)], steps)[0]
        assert abs(path.integral - math.pi / 4) <= path.quad_err

    @pytest.mark.parametrize("case", range(12))
    def test_one_interval_on_a_long_window(self, case, monkeypatch):
        model = random_commuting(2 + case % 3, 7_000 + case, gamma_scale=3.0, h_scale=3.0)
        rho0 = as_density_matrix(random_pure_state(model.dim, 8_000 + case))
        coarse = bnd._mt_paths(model, rho0, [(0.0, 3.0)], 15)[0]
        monkeypatch.setattr(bnd, "_QUAD_RTOL", 1e-13)
        fine = bnd._mt_paths(model, rho0, [(0.0, 3.0)], 150)[0].integral
        assert abs(coarse.integral - fine) <= coarse.quad_err


@pytest.mark.parametrize("case", range(4))
def test_constant_callback_matches_constant_model(case):
    """A time-dependent model whose callback returns fixed (H, Gamma) goes
    through the midpoint running product, and still reads the constant
    model's integral and endpoints."""
    model = random_commuting(2 + case % 2, 300 + case, gamma_scale=0.8)
    timed = NonHermitianModel(model.h, model.gamma,
                              time_dependence=lambda t: (model.h, model.gamma))
    rho0 = as_density_matrix(random_pure_state(model.dim, 400 + case))
    t1, t2 = 0.1 * case, 0.1 * case + 0.9
    want = bnd._mt_paths(model, rho0, [(t1, t2)], bnd.DEFAULT_QUAD_STEPS)[0]
    got = bnd._mt_paths(timed, rho0, [(t1, t2)], bnd.DEFAULT_QUAD_STEPS)[0]
    assert abs(got.integral - want.integral) <= 1e-12
    for name in ("rho1", "rho2"):
        assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-12
    for name in ("tr1", "tr2", "overlap"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12


def spy_path_nodes(monkeypatch):
    """Record how many times each ``_path_nodes`` call hands to the integrand."""
    sizes = []
    path_nodes = bnd._path_nodes
    monkeypatch.setattr(bnd, "_path_nodes", lambda m, r, segments, *ends: sizes.append(
        sum(map(len, segments))) or path_nodes(m, r, segments, *ends))
    return sizes


@pytest.mark.parametrize("steps, intervals", [(1, 1), (15, 1), (16, 2), (40, 3), (400, 27)])
def test_steps_is_a_minimum_node_count(steps, intervals, monkeypatch):
    """``steps`` nodes round up to whole 15-node intervals; the first round
    hands them to the integrand with both endpoints in one call."""
    sizes = spy_path_nodes(monkeypatch)
    model = random_commuting(2, 5, gamma_scale=0.5)
    bnd._mt_paths(model, as_density_matrix(random_pure_state(2, 6)), [(0.0, 0.5)], steps)
    assert sizes[0] == 15 * intervals + 2


class TestSpectralIntegrand:
    """A normal generator's std comes from its spectrum; every other model
    keeps the propagator path."""

    @pytest.mark.parametrize("case", range(20))
    def test_matches_the_propagator_std(self, case):
        """On random commuting models of dim 2-6, from pure and mixed states,
        the spectral std agrees with the std of the Pade-propagated state to
        1e-12 relative."""
        dim = 2 + case % 5
        model = random_commuting(dim, 900 + case, gamma_scale=1.5, h_scale=1.0 + case % 3)
        state = random_pure_state(dim, 950 + case) if case % 2 else random_density(dim, 950 + case)
        rho0 = as_density_matrix(state)
        times = np.linspace(0.0, 3.0, 61)
        want = bnd._path_at(model, rho0, times)[3]
        got = bnd._spectral_std(bnd._spectrum(model), rho0, times)
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_built_once_per_model(self):
        model = random_commuting(3, 7)
        assert bnd._spectrum(model) is bnd._spectrum(model) is not None
        assert bnd._spectrum(random_commuting(3, 7)) is not bnd._spectrum(model)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_non_normal_generator_has_none(self, dim):
        assert bnd._spectrum(noncommuting_model(dim, dim)) is None

    @pytest.mark.parametrize("case", ["normal", "non-normal", "time-dependent"])
    def test_only_other_models_reach_the_propagator_path(self, case, monkeypatch):
        """``_path_at`` evaluates every Kronrod node of a non-normal or
        time-dependent model, with the window ends in the first round, and
        is never reached for a normal one."""
        base = random_commuting(2, 5, gamma_scale=0.5)
        model = {
            "normal": base,
            "non-normal": noncommuting_model(2, 5),
            "time-dependent": NonHermitianModel(base.h, base.gamma, time_dependence=lambda t: (
                base.h * (1.0 + 0.5 * math.sin(3.0 * t)), base.gamma * (1.0 + 0.3 * t))),
        }[case]
        calls = []
        path_at = bnd._path_at
        monkeypatch.setattr(
            bnd, "_path_at", lambda m, r, times: calls.append(times) or path_at(m, r, times)
        )
        steps = []
        refine = bnd._Window.refine

        def spy(self, f):
            steps.append(self.nodes())
            refine(self, f)

        monkeypatch.setattr(bnd._Window, "refine", spy)
        bnd._mt_paths(model, as_density_matrix(random_pure_state(2, 6)), [(0.1, 0.9)], 40)
        if case == "normal":
            assert calls == []
        else:
            assert len(calls) == len(steps)
            assert np.array_equal(calls[0], np.concatenate([[0.1], steps[0], [0.9]]))
            for times, nodes in zip(calls[1:], steps[1:]):
                assert np.array_equal(times, nodes)


def test_integer_window_ends_read_as_floats():
    """Integer window ends give the nodes of their float values (an integer
    segment array once truncated every interior node)."""
    model, psi = random_commuting(2, 1), random_pure_state(2, 3)
    assert bnd.qsl_mt(model, psi, 0, 1).lhs == bnd.qsl_mt(model, psi, 0.0, 1.0).lhs
