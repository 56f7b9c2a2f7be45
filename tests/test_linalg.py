import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import nhbounds
from nhbounds import linalg
from nhbounds.errors import HermiticityViolation, NotPSD, NumericalOverflow, ShapeError
from nhbounds.models import make_refrigerator, random_diagonal_jump_lindblad
from nhbounds.propagation import _counting_generator, liouvillian

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


def _one_norm(a):
    return np.abs(a).sum(axis=-2).max(axis=-1)


def _decaying_generators():
    """Non-Hermitian generators the package exponentiates, scaled to 1-norms
    from 1e-6 to 1e3: -i H_eff of dim 2-9, Liouvillians of dim 4 and 9, and
    the 27x27 counting generator of the refrigerator.

    The counting generator stops at 10^2.5: at 1e3 scipy's own result is
    3.0e-12 off a 40-digit mpmath reference in its largest entry, where
    ``linalg.expm`` is 2.6e-14 off, so scipy is no oracle to 1e-12 there.
    """
    rng = np.random.default_rng(2024)
    gens = []
    for dim in range(2, 10):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        gens.append(-1j * (random_hermitian(rng, dim) - 0.5j * (g @ g.conj().T)))
    fridge = make_refrigerator(1.0, 1.0, 1.5, 1.0, 1.05, 0.9)
    gens += [liouvillian(random_diagonal_jump_lindblad(2, 3)), liouvillian(fridge)]
    norms = np.logspace(-6, 3, 19)
    out = [g * (norm / _one_norm(g)) for g in gens for norm in norms]
    counting = _counting_generator(fridge)
    return out + [counting * (norm / _one_norm(counting)) for norm in norms[norms < 1e3]]


class TestPadeExpm:
    """The in-repo Pade exponential against scipy's as the oracle."""

    @pytest.fixture
    def pade_calls(self, monkeypatch):
        calls = []
        pade = linalg._pade

        def spy(a, degree):
            calls.extend((linalg._PADE_DEGREES[degree], n) for n in _one_norm(a))
            return pade(a, degree)

        monkeypatch.setattr(linalg, "_pade", spy)
        return calls

    def test_matches_scipy_on_every_branch(self, pade_calls):
        for a in _decaying_generators():
            ref = scipy.linalg.expm(a)
            err = np.max(np.abs(linalg.expm(a) - ref)) / np.max(np.abs(ref))
            assert err <= 1e-12, (a.shape, _one_norm(a))
        assert {d for d, _ in pade_calls} == set(linalg._PADE_DEGREES)
        # inputs up to norm 1e3 reach degree 13 only after scaling by 2^-s
        assert max(n for d, n in pade_calls if d == 13) <= linalg._PADE_THETA[-1]

    def test_stack_equals_members(self):
        gens = _decaying_generators()
        for dim in {g.shape[0] for g in gens}:
            stack = np.stack([g for g in gens if g.shape[0] == dim])
            out = linalg.expm(stack)
            assert out.shape == stack.shape
            for member, a in zip(out, stack):
                assert np.array_equal(member, linalg.expm(a))
        nested = np.stack([g for g in gens if g.shape[0] == 2][:18]).reshape(3, 6, 2, 2)
        assert np.array_equal(linalg.expm(nested).reshape(-1, 2, 2), linalg.expm(nested.reshape(-1, 2, 2)))

    def test_hermitian_member_takes_eigh(self, pade_calls, monkeypatch):
        herm_calls = []
        hermitian = linalg._expm_hermitian
        monkeypatch.setattr(linalg, "_expm_hermitian", lambda a: herm_calls.append(a) or hermitian(a))
        h = random_hermitian(np.random.default_rng(5), 3)
        a = -1j * (h - 0.5j * np.diag([0.0, 1.0, 2.0]))
        out = linalg.expm(np.stack([a, h, 2 * a]))
        assert len(herm_calls) == 1 and np.array_equal(herm_calls[0], h[None])
        assert len(pade_calls) == 2
        w, v = np.linalg.eigh(h)
        assert np.max(np.abs(out[1] - (v * np.exp(w)) @ v.conj().T)) <= 1e-12
        assert np.array_equal(out[0], linalg.expm(a))

    def test_overflowing_member_raises(self):
        a = np.array([[-1.0, 1.0], [0.0, -2.0]], dtype=complex)
        with pytest.raises(NumericalOverflow):
            linalg.expm(np.stack([a, np.array([[2000.0, 1.0], [0.0, 2000.0]]), a]))
        with pytest.raises(NumericalOverflow):
            linalg.expm(np.stack([a, np.diag([2000.0, 0.0])]))

    def test_non_finite_input_raises(self):
        with pytest.raises(NumericalOverflow):
            linalg.expm(np.array([[np.nan, 1.0], [0.0, 0.0]]))

    def test_not_square_rejected(self):
        with pytest.raises(ShapeError):
            linalg.expm(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            linalg.expm(np.zeros(4))


def test_runtime_imports_no_scipy():
    code = ("import sys, nhbounds, nhbounds.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(nhbounds.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


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
        linalg.require_hermitian(r)  # raises HermiticityViolation otherwise

    def test_clamps_tiny_negative(self):
        out = linalg.sqrtm_psd(np.diag([1.0, -1e-11]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-5)

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            linalg.sqrtm_psd(np.diag([1.0, -1.0]))

