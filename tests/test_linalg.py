import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhbounds import linalg
from nhbounds.errors import HermiticityViolation, NotPSD, NumericalOverflow

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_hermitian(rng, dim, scale=1.0):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T)


class TestHermEig:
    def test_diagonal(self):
        w, v = linalg.herm_eig(np.diag([2.0, 1.0]))
        assert np.allclose(w, [1.0, 2.0])
        assert np.allclose(np.abs(v), np.array([[0, 1], [1, 0]]))

    def test_pauli_x(self):
        w, v = linalg.herm_eig(SX)
        assert np.allclose(w, [-1.0, 1.0])
        for col, lam in zip(v.T, w):
            assert np.allclose(SX @ col, lam * col, atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 4)
        w, v = linalg.herm_eig(a)
        assert np.max(np.abs((v * w) @ v.conj().T - a)) <= 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(HermiticityViolation):
            linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=8))
    def test_reconstruction_property(self, seed, dim):
        a = random_hermitian(np.random.default_rng(seed), dim)
        w, v = linalg.herm_eig(a)
        assert np.all(np.diff(w) >= 0)
        assert np.max(np.abs((v * w) @ v.conj().T - a)) <= 1e-10


class TestExpm:
    def test_zero(self):
        assert np.allclose(linalg.expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = linalg.expm(np.diag([-0.5, -1.0]))
        assert np.allclose(out, np.diag(np.exp([-0.5, -1.0])), atol=1e-14)

    def test_taylor_oracle(self):
        # 50-term Taylor series as an independent reference
        a = -0.5j * SX
        term = np.eye(2, dtype=complex)
        acc = np.eye(2, dtype=complex)
        for k in range(1, 50):
            term = term @ a / k
            acc = acc + term
        assert np.max(np.abs(linalg.expm(a) - acc)) <= 1e-12

    def test_commuting_factorization(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            a = (q * rng.uniform(-1, 1, 4)) @ q.conj().T
            b = (q * rng.uniform(-1, 1, 4)) @ q.conj().T
            lhs = linalg.expm(a + b)
            rhs = linalg.expm(a) @ linalg.expm(b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_nonnormal_input(self):
        # columns of expm(a) solve x' = a x; check against ODE integration
        from scipy.integrate import solve_ivp

        a = np.array([[0.0, 1.0], [0.0, -0.3]], dtype=complex)
        out = linalg.expm(a)

        def rhs(_t, x):
            dx = a @ (x[:2] + 1j * x[2:])
            return np.concatenate([dx.real, dx.imag])

        for col in np.eye(2):
            sol = solve_ivp(rhs, (0, 1), np.concatenate([col, np.zeros(2)]),
                            rtol=1e-12, atol=1e-14)
            ref = sol.y[:2, -1] + 1j * sol.y[2:, -1]
            assert np.max(np.abs(out @ col - ref)) <= 1e-9

    def test_overflow(self):
        with pytest.raises(NumericalOverflow):
            linalg.expm(np.diag([2000.0, 2000.0]))


class TestSqrtmPsd:
    def test_identity(self):
        assert np.allclose(linalg.sqrtm_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(linalg.sqrtm_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = g @ g.conj().T
        r = linalg.sqrtm_psd(a)
        assert np.max(np.abs(r @ r - a)) <= 1e-9
        assert linalg.is_hermitian(r)

    def test_clamps_tiny_negative(self):
        out = linalg.sqrtm_psd(np.diag([1.0, -1e-11]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-5)

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            linalg.sqrtm_psd(np.diag([1.0, -1.0]))

