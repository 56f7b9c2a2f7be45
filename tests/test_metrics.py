import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhbounds import (
    DensityOperator,
    StateVector,
    bures_angle,
    fidelity,
    generalized_std,
    observable_stats,
    renyi_divergence,
    renyi_half,
)
from nhbounds.errors import HermiticityViolation, NotDistribution
from nhbounds.models import random_density, random_pure_state


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
        from nhbounds.states import reduced_density

        rng = np.random.default_rng(17)
        for _ in range(20):
            amp1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            amp2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi1 = StateVector(amp1 / np.linalg.norm(amp1), layout=(2, 2))
            psi2 = StateVector(amp2 / np.linalg.norm(amp2), layout=(2, 2))
            full = bures_angle(
                DensityOperator(psi1.density()), DensityOperator(psi2.density())
            )
            red = bures_angle(reduced_density(psi1), reduced_density(psi2))
            assert full - red >= -1e-9


class TestObservableStats:
    def test_identity(self):
        s = observable_stats(np.eye(2), StateVector(np.array([0.6, 0.8])))
        assert s.mean == pytest.approx(1.0)
        assert s.std == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_superposition(self):
        s = observable_stats(
            np.diag([0.0, 1.0]), StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        )
        assert s.mean == pytest.approx(0.5)
        assert s.std == pytest.approx(0.5)

    def test_bernoulli_moments(self):
        # the worked two-level example population at t = 0.5
        p1 = np.exp(-0.5) / (1.0 + np.exp(-0.5))
        rho = DensityOperator(np.diag([1.0 - p1, p1]))
        s = observable_stats(np.diag([0.0, 1.0]), rho)
        assert s.mean == pytest.approx(p1, abs=1e-14)
        assert s.std == pytest.approx(np.sqrt(p1 * (1.0 - p1)), abs=1e-14)
        assert s.mean == pytest.approx(0.377541, abs=1e-6)
        assert s.std == pytest.approx(0.484772, abs=1e-6)

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityViolation):
            observable_stats(np.array([[0.0, 1.0], [0.0, 0.0]]), random_density(2, 3))


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
            observable_stats(h, psi).std, abs=1e-12
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

    def test_general_alpha_matches_direct_formula(self):
        p, q = dists(3, 5), dists(4, 5)
        for alpha in (0.25, 0.5, 0.75):
            direct = np.log(np.sum(p**alpha * q ** (1 - alpha))) / (alpha - 1.0)
            assert renyi_divergence(p, q, alpha) == pytest.approx(direct, abs=1e-12)

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
