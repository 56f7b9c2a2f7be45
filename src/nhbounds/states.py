"""State containers and conversions between them.

``StateVector`` holds a pure state, possibly unnormalized (non-Hermitian
evolution does not preserve the norm).  ``DensityOperator`` holds a
unit-trace positive Hermitian matrix.  Both validate their input once, where
it enters the program; states the program computes itself travel as plain
read-only arrays.  ``as_density_matrix`` reads either container, or a raw
matrix, as a unit-trace density matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadParameter, NormUnderflow, NotPSD

NORM_FLOOR = 1e-14


@dataclass(eq=False)
class StateVector:
    """A pure state vector with norm tracking; amplitudes are flattened."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        n = float(np.linalg.norm(amp))
        if not np.isfinite(n):
            raise ValueError("state vector has non-finite amplitudes")
        if n <= NORM_FLOOR:
            raise NormUnderflow(f"state norm {n:.3e} at or below {NORM_FLOOR:.0e}")
        self.amplitudes = amp

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.norm - 1.0) <= tol

    def density(self) -> np.ndarray:
        """Outer product |psi><psi| as a plain matrix (not trace-normalized)."""
        return np.outer(self.amplitudes, np.conj(self.amplitudes))


@dataclass(eq=False)
class DensityOperator:
    """Unit-trace Hermitian PSD operator."""

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.require_hermitian(self.matrix, "density operator")
        m = 0.5 * (m + linalg.dag(m))
        w = np.linalg.eigvalsh(m)
        if w[0] < linalg.PSD_CLAMP:
            raise NotPSD(f"density operator eigenvalue {w[0]:.3e} below tolerance")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-10:
            raise BadParameter(f"trace {tr!r} is not 1 within 1e-10")
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def pure_density(psi: StateVector) -> DensityOperator:
    """Unit-trace density operator of a (normalized) pure state."""
    unit, _ = normalize(psi)
    return DensityOperator(unit.density())


def as_density_matrix(state) -> np.ndarray:
    """Unit-trace density matrix from a StateVector, a DensityOperator or a
    raw matrix; a raw matrix is validated as a :class:`DensityOperator`."""
    if isinstance(state, StateVector):
        unit, _ = normalize(state)
        return unit.density()
    if isinstance(state, DensityOperator):
        m = state.matrix
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-8:
            raise BadParameter(f"density operator trace {tr!r} is not 1")
        return m / tr
    m = linalg.as_matrix(state)
    return DensityOperator(m).matrix


def normalize(psi: StateVector) -> tuple[StateVector, float]:
    """Split ``psi`` into a unit vector and its norm.

    Raises:
        NormUnderflow: if the norm is at or below 1e-14 (the state has
            decayed away; normalized quantities are meaningless).
    """
    n = psi.norm
    if n <= NORM_FLOOR:
        raise NormUnderflow(f"cannot normalize state with norm {n:.3e}")
    return StateVector(psi.amplitudes / n), n
