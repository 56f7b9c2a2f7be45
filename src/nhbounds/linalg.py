"""Dense complex linear algebra for small operator matrices.

Everything operates on plain ``numpy`` arrays.  The routines wrap
``numpy``/``scipy`` primitives with the validation the rest of the package
relies on: Hermiticity checks, PSD clamping, overflow detection.  All
matrices in this code base are tiny (dim <= ~10 on the system, small tensor
products at most), so dense O(dim^3) algorithms are used throughout.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm as _pade_expm

from .errors import HermiticityViolation, NotPSD, NumericalOverflow, ShapeError

# Tolerances, fixed once for the whole package.
HERMITICITY_RTOL = 1e-12
PSD_CLAMP = -1e-10   # eigenvalues above this are clamped to zero
PSD_REJECT = -1e-8   # eigenvalues below this are an error


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square complex ndarray."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(a).T


def max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermiticity_defect(a) -> float:
    """max |A_ij - conj(A_ji)|."""
    m = as_matrix(a)
    return max_abs(m - dag(m))


def is_hermitian(a, rtol: float = HERMITICITY_RTOL) -> bool:
    m = as_matrix(a)
    return hermiticity_defect(m) <= rtol * (1.0 + max_abs(m))


def require_hermitian(a, what: str = "matrix") -> np.ndarray:
    m = as_matrix(a)
    if not is_hermitian(m):
        raise HermiticityViolation(
            f"{what} is not Hermitian: defect {hermiticity_defect(m):.3e}"
        )
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


def expm(a) -> np.ndarray:
    """Matrix exponential of a general complex square matrix.

    Hermitian inputs are routed through the eigendecomposition; everything
    else (in particular non-normal generators) goes through Pade
    scaling-and-squaring.

    Raises:
        NumericalOverflow: if the result is not finite.
    """
    m = as_matrix(a)
    with np.errstate(over="ignore", invalid="ignore"):
        if is_hermitian(m):
            w, v = np.linalg.eigh(m)
            out = (v * np.exp(w)) @ dag(v)
        else:
            out = _pade_expm(m)
    if not np.all(np.isfinite(out)):
        raise NumericalOverflow("matrix exponential overflowed")
    return out


def sqrtm_psd(a) -> np.ndarray:
    """Hermitian PSD square root.

    Eigenvalues in ``[PSD_REJECT, 0)`` are treated as round-off and clamped
    to zero; anything below ``PSD_REJECT`` raises.
    """
    m = require_hermitian(a, "PSD input")
    w, v = np.linalg.eigh(m)
    if w.size and w[0] < PSD_REJECT:
        raise NotPSD(f"matrix has eigenvalue {w[0]:.3e} below {PSD_REJECT:.0e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ dag(v)

