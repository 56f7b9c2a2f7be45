import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhbounds import (
    DensityOperator,
    StateVector,
    fidelity,
    generalized_std,
    random_commuting,
    renyi_half,
    tur_ml,
)
from nhbounds.errors import HermiticityViolation, NotDistribution
from nhbounds.metrics import _fidelity_angle, _observable_stats
from nhbounds.models import random_density, random_pure_state
from nhbounds.states import as_density_matrix


def bures_angle(rho1, rho2):
    """The Bures angle the speed-limit rows report: arccos sqrt(Fid)."""
    return _fidelity_angle(fidelity(rho1, rho2))


def observable_stats(c, state):
    """``(mean, std)`` of the Hermitian ``c`` in one state, as the TUR rows read them."""
    mean, std = _observable_stats(np.asarray(c, dtype=complex), as_density_matrix(state)[None])
    return float(mean[0]), float(std[0])


def dists(seed, size):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 1.0, size)
    return p / p.sum()


class TestFidelity:
    def test_self(self):
        rho = random_density(3, 1)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        a = DensityOperator(np.diag([1.0, 0.0]))
        b = DensityOperator(np.diag([0.0, 1.0]))
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-14)

    def test_pure_vs_maximally_mixed(self):
        a = DensityOperator(np.diag([1.0, 0.0]))
        b = DensityOperator(np.eye(2) / 2.0)
        assert fidelity(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self):
        a, b = random_density(3, 5), random_density(3, 6)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-11)

    def test_pure_overlap(self):
        for seed in range(5):
            psi = random_pure_state(3, 2 * seed)
            phi = random_pure_state(3, 2 * seed + 1)
            want = abs(np.vdot(phi.amplitudes, psi.amplitudes)) ** 2
            got = fidelity(
                DensityOperator(psi.density()), DensityOperator(phi.density())
            )
            assert got == pytest.approx(want, abs=1e-12)


class TestBuresAngle:
    def test_self(self):
        rho = random_density(2, 2)
        assert bures_angle(rho, rho) == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal(self):
        a = DensityOperator(np.diag([1.0, 0.0]))
        b = DensityOperator(np.diag([0.0, 1.0]))
        assert bures_angle(a, b) == pytest.approx(np.pi / 2.0, abs=1e-12)

    def test_half_fidelity(self):
        a = DensityOperator(np.diag([1.0, 0.0]))
        b = DensityOperator(np.eye(2) / 2.0)
        assert bures_angle(a, b) == pytest.approx(np.pi / 4.0, abs=1e-12)

    def test_monotone_under_partial_trace(self):
        # distances cannot grow when the ancilla is discarded
        def reduced(psi):
            """System state of a 2 (x) 2 vector: trace out the ancilla."""
            m = psi.amplitudes.reshape(2, 2)
            return DensityOperator(m @ m.conj().T)

        rng = np.random.default_rng(17)
        for _ in range(20):
            amp1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            amp2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi1 = StateVector(amp1 / np.linalg.norm(amp1))
            psi2 = StateVector(amp2 / np.linalg.norm(amp2))
            full = bures_angle(
                DensityOperator(psi1.density()), DensityOperator(psi2.density())
            )
            red = bures_angle(reduced(psi1), reduced(psi2))
            assert full - red >= -1e-9


class TestObservableStats:
    def test_identity(self):
        mean, std = observable_stats(np.eye(2), StateVector(np.array([0.6, 0.8])))
        assert mean == pytest.approx(1.0)
        assert std == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_superposition(self):
        mean, std = observable_stats(
            np.diag([0.0, 1.0]), StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        )
        assert mean == pytest.approx(0.5)
        assert std == pytest.approx(0.5)

    def test_bernoulli_moments(self):
        # the worked two-level example population at t = 0.5
        p1 = np.exp(-0.5) / (1.0 + np.exp(-0.5))
        rho = DensityOperator(np.diag([1.0 - p1, p1]))
        mean, std = observable_stats(np.diag([0.0, 1.0]), rho)
        assert mean == pytest.approx(p1, abs=1e-14)
        assert std == pytest.approx(np.sqrt(p1 * (1.0 - p1)), abs=1e-14)
        assert mean == pytest.approx(0.377541, abs=1e-6)
        assert std == pytest.approx(0.484772, abs=1e-6)

    def test_rejects_non_hermitian(self):
        # a row checks its observable where it enters, before any statistics
        with pytest.raises(HermiticityViolation):
            tur_ml(random_commuting(2, 1), random_density(2, 3), 0.5,
                   np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestGeneralizedStd:
    def test_scalar_operator(self):
        psi = random_pure_state(3, 8)
        assert generalized_std((0.3 - 2.0j) * np.eye(3), psi) == pytest.approx(0.0, abs=1e-14)

    def test_hermitian_consistency(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = 0.5 * (g + g.conj().T)
        psi = random_pure_state(3, 9)
        assert generalized_std(h, psi) == pytest.approx(
            observable_stats(h, psi)[1], abs=1e-12
        )

    def test_two_level_closed_form(self):
        gen = np.diag([0.0, 1.0 - 0.5j])
        psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        # <G^dag G> = 1.25/2, |<G>|^2 = 1.25/4
        assert generalized_std(gen, psi) == pytest.approx(np.sqrt(0.3125), abs=1e-12)
        assert generalized_std(gen, psi) == pytest.approx(0.559017, abs=1e-6)

    def test_real_shift_invariance(self):
        rng = np.random.default_rng(14)
        o = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        psi = random_pure_state(3, 10)
        base = generalized_std(o, psi)
        for lam in (-2.0, 0.7, 13.5):
            assert generalized_std(o - lam * np.eye(3), psi) == pytest.approx(base, abs=1e-10)


class TestRenyi:
    def test_equal(self):
        p = dists(1, 4)
        assert renyi_half(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_support(self):
        assert renyi_half([1.0, 0.0], [0.0, 1.0]) == np.inf

    def test_two_state_markov_value(self):
        q1 = (1.0 + np.exp(-2.0)) / 2.0
        got = renyi_half([1.0, 0.0], [q1, 1.0 - q1])
        assert got == pytest.approx(-np.log(q1), abs=1e-12)

    def test_half_matches_direct_formula(self):
        p, q = dists(3, 5), dists(4, 5)
        direct = -2.0 * np.log(np.sum(np.sqrt(p * q)))
        assert renyi_half(p, q) == pytest.approx(direct, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
    def test_half_symmetric_and_nonnegative(self, seed, size):
        p = dists(seed, size)
        q = dists(seed + 10_000, size)
        d = renyi_half(p, q)
        assert d >= 0.0
        assert d == pytest.approx(renyi_half(q, p), abs=1e-12)

    def test_not_distribution(self):
        with pytest.raises(NotDistribution):
            renyi_half([0.5, 0.2], [0.5, 0.5])
        with pytest.raises(NotDistribution):
            renyi_half([1.5, -0.5], [0.5, 0.5])
