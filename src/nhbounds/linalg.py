"""Dense complex linear algebra for small operator matrices.

Everything operates on plain ``numpy`` arrays.  The routines wrap ``numpy``
primitives with the validation the rest of the package relies on:
Hermiticity checks, PSD clamping, overflow detection.  The matrix
exponential is implemented here, as scaling-and-squaring Pade over a stack
of matrices, so the package needs nothing beyond ``numpy`` at run time.
All matrices in this code base are tiny (dim <= ~10 on the system, small
tensor products at most), so dense O(dim^3) algorithms are used throughout.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import HermiticityViolation, NotPSD, NumericalOverflow, ShapeError

# Tolerances, fixed once for the whole package.
HERMITICITY_RTOL = 1e-12
PSD_CLAMP = -1e-10   # eigenvalues above this are clamped to zero
PSD_REJECT = -1e-8   # eigenvalues below this are an error
_STACK_BUDGET = 1 << 13  # matrix entries per stacked call of a sweep: bounds its working memory


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square complex ndarray."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def _square_stack(a) -> np.ndarray:
    """Coerce ``a`` to a complex square matrix or a stack ``(..., n, n)`` of them."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ShapeError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(a).T


def max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def _hermiticity(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For a matrix or each matrix of a stack ``(..., n, n)``: whether it is
    Hermitian, max |A - A^dag| <= HERMITICITY_RTOL (1 + max |A|), and that
    defect max |A - A^dag|."""
    defect = np.abs(m - np.conj(np.swapaxes(m, -1, -2))).max(axis=(-2, -1), initial=0.0)
    return defect <= HERMITICITY_RTOL * (1.0 + np.abs(m).max(axis=(-2, -1), initial=0.0)), defect


def is_hermitian(a) -> bool:
    return bool(_hermiticity(as_matrix(a))[0])


def require_hermitian(a, what: str = "matrix") -> np.ndarray:
    m = as_matrix(a)
    ok, defect = _hermiticity(m)
    if not ok:
        raise HermiticityViolation(f"{what} is not Hermitian: defect {defect:.3e}")
    return m


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` real ascending and orthonormal
    eigenvectors in the columns of ``v``, so ``a = v @ diag(w) @ v.conj().T``.

    Raises:
        HermiticityViolation: if the input is not Hermitian within tolerance.
    """
    m = require_hermitian(a)
    w, v = np.linalg.eigh(m)
    return w, v


# Scaling-and-squaring Pade, Higham, SIAM J. Matrix Anal. Appl. 26, 1179
# (2005), Algorithm 2.3.  The degree-m approximant r_m = (V - U)^-1 (V + U)
# is accurate to double precision for ||A||_1 <= theta_m (Table 2.3); above
# theta_13, A is scaled by 2^-s into range and r_13 squared s times.
_PADE_DEGREES = (3, 5, 7, 9, 13)
_PADE_THETA = np.array([1.495585217958292e-2, 2.539398330063230e-1,
                        9.504178996162932e-1, 2.097847961257068e0, 5.371920351148152e0])
# 1-norm bucket edges: theta_3 .. theta_9, then theta_13 * 2^s.  A matrix in
# bucket i < 4 takes degree index i unscaled; bucket 4 + s takes degree 13
# after scaling by 2^-s.
_PADE_EDGES = np.concatenate([_PADE_THETA[:4], _PADE_THETA[4] * 2.0 ** np.arange(1022)])


def _pade_coefficients(m: int) -> np.ndarray:
    """Rows mapping the stacked even powers [I, A^2, A^4, ...] to the sums
    that make U and V: for m <= 9 (odd part / A, V); for m = 13 Higham's
    split (high odd, low odd, high even, low even) over [I, A^2, A^4, A^6]."""
    b = [math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j))
         for j in range(m + 1)]
    if m < 13:
        return np.array([b[1::2], b[0::2]], dtype=float)
    return np.array([[0, b[9], b[11], b[13]], [b[1], b[3], b[5], b[7]],
                     [0, b[8], b[10], b[12]], [b[0], b[2], b[4], b[6]]], dtype=float)


_PADE_COEFFS = tuple(_pade_coefficients(m) for m in _PADE_DEGREES)


@functools.lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    out = np.eye(n, dtype=complex)
    out.flags.writeable = False
    return out


def _pade(a: np.ndarray, degree: int) -> np.ndarray:
    """r_m(a) over a stack ``(b, n, n)``, m = ``_PADE_DEGREES[degree]``."""
    coeffs = _PADE_COEFFS[degree]
    p = np.empty((coeffs.shape[1], *a.shape), dtype=complex)
    p[0] = _eye(a.shape[-1])
    np.matmul(a, a, out=p[1])
    for k in range(2, len(p)):
        np.matmul(p[k - 1], p[1], out=p[k])
    sums = (coeffs @ p.reshape(len(p), -1).view(float)).view(complex).reshape((-1, *a.shape))
    if degree < 4:
        u, v = a @ sums[0], sums[1]
    else:
        high = p[3] @ sums[[0, 2]]
        u, v = a @ (high[0] + sums[1]), high[1] + sums[3]
    return np.linalg.solve(v - u, v + u)


def _scaled_pade(a: np.ndarray, bucket: int) -> np.ndarray:
    """exp over a stack ``(b, n, n)`` whose members share the 1-norm ``bucket``."""
    s = max(bucket - 4, 0)
    out = _pade(a * math.ldexp(1.0, -s) if s else a, min(bucket, 4))
    for _ in range(s):
        out = out @ out
    return out


def expm(a) -> np.ndarray:
    """Matrix exponential of a square complex matrix or a stack ``(..., n, n)``.

    Hermitian matrices are routed through the eigendecomposition; everything
    else (in particular non-normal generators) goes through Pade
    scaling-and-squaring with the degree and the scaling picked by the
    1-norm.  Each member of a stack is treated as if passed alone.

    Raises:
        NumericalOverflow: if the input or the result is not finite.
    """
    m = _square_stack(a)
    x = m.reshape(-1, *m.shape[-2:])
    norm = np.abs(x).sum(axis=-2).max(axis=-1, initial=0.0)
    if not np.isfinite(norm).all():
        raise NumericalOverflow("matrix exponential of a non-finite matrix")
    bucket = np.where(_hermiticity(x)[0], -1, np.searchsorted(_PADE_EDGES, norm))  # -1: eigh
    groups = set(bucket.tolist())
    out = np.empty_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for g in groups:
            members = bucket == g if len(groups) > 1 else slice(None)
            out[members] = _expm_hermitian(x[members]) if g < 0 else _scaled_pade(x[members], g)
    if not np.isfinite(out).all():
        raise NumericalOverflow("matrix exponential overflowed")
    return out.reshape(m.shape)


def _expm_hermitian(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    return (v * np.exp(w)[..., None, :]) @ np.conj(v.swapaxes(-1, -2))


def sqrtm_psd(a) -> np.ndarray:
    """Hermitian PSD square root of a matrix or of each matrix of a stack
    ``(..., n, n)``.

    Eigenvalues in ``[PSD_REJECT, 0)`` are treated as round-off and clamped
    to zero; anything below ``PSD_REJECT`` raises.
    """
    m = _square_stack(a)
    herm, defect = _hermiticity(m)
    if not herm.all():
        raise HermiticityViolation(f"PSD input is not Hermitian: defect {defect[~herm][0]:.3e}")
    w, v = np.linalg.eigh(m)
    low = w[..., :1] < PSD_REJECT
    if low.any():
        raise NotPSD(f"matrix has eigenvalue {w[..., :1][low][0]:.3e} below {PSD_REJECT:.0e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def _stack_slices(members: int, n: int) -> list[slice]:
    """Consecutive slices of a stack of ``members`` n x n matrices, each
    within ``_STACK_BUDGET`` entries (one member at least); one empty slice
    for an empty stack."""
    size = max(1, _STACK_BUDGET // (n * n))
    return [slice(i, i + size) for i in range(0, max(members, 1), size)]


def _expm_stack(times, n: int, build, reduce=None) -> np.ndarray:
    """``reduce(expm(build(ts)))`` over consecutive slices ``ts`` of the
    ``times`` array, concatenated; ``build(ts)`` is the stack of n x n
    matrices of the times ``ts``, one per time.  Each slice holds at most
    ``_STACK_BUDGET`` entries.  ``expm`` treats each member as if passed
    alone, so the slicing changes no value."""
    times = np.asarray(times, dtype=float)
    parts = []
    for s in _stack_slices(len(times), n):
        e = expm(build(times[s]))
        parts.append(e if reduce is None else reduce(e))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
