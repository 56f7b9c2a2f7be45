import numpy as np
import pytest

from nhbounds import LindbladModel, NonHermitianModel, StateVector

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@pytest.fixture
def two_level_model():
    """H = diag(0, 1), Gamma = diag(0, 0.5): the worked two-level example.

    Closed forms: psi(t) = (1, e^{-it-t/2})/sqrt(2) from |+>, excited
    population p1(t) = e^{-t}/(1+e^{-t}), generalized-std^2 of the full
    generator 1.25 p1 (1 - p1).
    """
    return NonHermitianModel(
        np.diag([0.0, 1.0]).astype(complex), np.diag([0.0, 0.5]).astype(complex)
    )


@pytest.fixture
def plus_state():
    return StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))


@pytest.fixture
def two_level_lindblad():
    """H_S = diag(0, 1), one jump diag(0, 1): H_eff = diag(0, 1 - 0.5i)."""
    return LindbladModel(
        np.diag([0.0, 1.0]).astype(complex), (np.diag([0.0, 1.0]).astype(complex),)
    )


def random_hermitian(dim, rng, scale=1.0):
    """Random Hermitian matrix with entries of size about ``scale``."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (g + g.conj().T) / np.sqrt(dim)


def noncommuting_model(dim, seed):
    """A constant model with [H, Gamma] != 0, so G = H - i Gamma is not normal."""
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(2))
    return NonHermitianModel(0.5 * (a + a.conj().T), 0.2 * b @ b.conj().T)


def p1_closed(t):
    """Excited population of the worked two-level example."""
    return np.exp(-t) / (1.0 + np.exp(-t))


def tree_product(mats):
    """Ordered product mats[n-1] @ ... @ mats[0] via pairwise reduction."""
    mats = np.asarray(mats)
    while mats.shape[0] > 1:
        odd = mats[-1:] if mats.shape[0] % 2 else None
        body = mats[:-1] if odd is not None else mats
        mats = np.matmul(body[1::2], body[0::2])
        if odd is not None:
            mats = np.concatenate([mats, odd])
    return mats[0]


def expm_2x2(mats):
    """Closed-form exponential of a batch of 2x2 complex matrices.

    Splits M = a I + B with B traceless; exp(M) = e^a (cosh(s) I +
    sinh(s)/s B) where s^2 = -det B.  Independent of every library
    exponential, used as a test oracle.
    """
    mats = np.asarray(mats, dtype=complex)
    a = 0.5 * (mats[..., 0, 0] + mats[..., 1, 1])
    b = mats - a[..., None, None] * np.eye(2)
    det = b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0]
    s = np.sqrt(-det + 0j)
    tiny = np.abs(s) < 1e-30
    safe = np.where(tiny, 1.0, s)
    ch = np.cosh(s)
    sh = np.where(tiny, 1.0, np.sinh(safe) / safe)
    return np.exp(a)[..., None, None] * (
        ch[..., None, None] * np.eye(2) + sh[..., None, None] * b
    )
