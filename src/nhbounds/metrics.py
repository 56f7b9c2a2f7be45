"""Distances and statistics on states and observables.

Uhlmann fidelity, Bures angle, observable moments (Hermitian, and the
generalized standard deviation of a non-Hermitian operator, vectorized over
stacks of states), and the Renyi divergence D_1/2 between classical
distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import HermiticityViolation, NotDistribution, ShapeError
from .states import DensityOperator, StateVector, as_density_matrix


@dataclass(frozen=True)
class ObservableStats:
    """First and second moments of a Hermitian observable in a state."""

    mean: float
    std: float


def _square(a) -> np.ndarray:
    """Complex square matrix, or a stack of them along leading axes."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ShapeError(f"expected square matrices, got shape {m.shape}")
    return m


def _rho(state) -> np.ndarray:
    if isinstance(state, DensityOperator):
        return state.matrix
    if isinstance(state, StateVector):
        return as_density_matrix(state)
    return _square(state)


def fidelity(rho1, rho2) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 in [0, 1].

    General inputs go through two PSD square roots with tiny negative
    eigenvalues clamped.  When either input is rank-1 the exact identity
    Fid(|psi><psi|, rho) = <psi|rho|psi> is used instead: the square-root
    route carries sqrt(machine-eps) noise from the spurious zero
    eigenvalues of a projector, which would break the 1e-12 pure-overlap
    contract.
    """
    a = _rho(rho1)
    b = _rho(rho2)
    for first, second in ((a, b), (b, a)):
        w, v = np.linalg.eigh(first)
        if w[-1] >= 1.0 - 1e-10:
            top = v[:, -1]
            f = float(np.real(np.vdot(top, second @ top)))
            return min(max(f, 0.0), 1.0)
    ra = linalg.sqrtm_psd(a)
    inner = ra @ b @ ra
    inner = 0.5 * (inner + linalg.dag(inner))
    root = linalg.sqrtm_psd(inner)
    f = float(np.trace(root).real) ** 2
    if f > 1.0 + 1e-6:
        raise ValueError(f"fidelity {f!r} exceeds 1; inputs are not unit-trace states")
    return min(max(f, 0.0), 1.0)


def bures_angle(rho1, rho2) -> float:
    """arccos of the square-root fidelity, in [0, pi/2]."""
    return float(np.arccos(np.clip(np.sqrt(fidelity(rho1, rho2)), 0.0, 1.0)))


def observable_stats(c, state) -> ObservableStats:
    """Mean and standard deviation of a Hermitian observable.

    ``state`` may be a normalized StateVector or a unit-trace
    DensityOperator.  The variance is the centered <(C - <C>)^2>, which has
    no cancellation where the one-pass <C^2> - <C>^2 loses the digits of a
    small spread.  It is taken for C - C_00 I (the variance is
    shift-invariant), so a multiple of the identity has exactly zero spread
    instead of one set by the rounding of Tr rho.
    """
    op = linalg.require_hermitian(c, "observable")
    rho = _rho(state)
    mean_c = complex(np.trace(op @ rho))
    if abs(mean_c.imag) > 1e-10 * (1.0 + abs(mean_c.real)):
        raise HermiticityViolation(
            f"observable mean has imaginary residue {mean_c.imag:.3e}"
        )
    eye = np.eye(op.shape[0])
    shifted = op - op[0, 0].real * eye
    dev = shifted - np.trace(shifted @ rho).real * eye
    var = max(float(np.trace(dev @ dev @ rho).real), 0.0)
    return ObservableStats(mean=mean_c.real, std=float(np.sqrt(var)))


def generalized_std(op, state):
    """Standard deviation sqrt(<(O - <O>)^dag (O - <O>)>) of any operator.

    Reduces to ``observable_stats(...).std`` when ``op`` is Hermitian and is
    invariant under shifts ``op -> op - lam*I`` for any complex ``lam``.
    The centered form has no cancellation: it is exactly 0 up to the
    rounding of ``<O>`` when the state is an eigenstate, where the one-pass
    form sqrt(<O^dag O> - |<O>|^2) carries sqrt(machine-eps) noise.

    ``op`` and ``state`` may also be stacks along a leading axis (operators
    and unit-trace density matrices); the stds then come back as an array.
    """
    o = _square(op)
    rho = _rho(state)
    mean = np.einsum("...ij,...ji->...", o, rho)
    dev = o - mean[..., None, None] * np.eye(o.shape[-1])
    var = np.einsum("...ki,...ki->...", np.conj(dev), dev @ rho).real
    std = np.sqrt(np.maximum(var, 0.0))
    return float(std) if std.ndim == 0 else std


def _check_distribution(p) -> np.ndarray:
    v = np.asarray(p, dtype=float).reshape(-1)
    if v.size == 0:
        raise NotDistribution("empty distribution")
    if np.any(v < -1e-12):
        raise NotDistribution(f"negative entry {v.min():.3e}")
    if abs(v.sum() - 1.0) > 1e-10:
        raise NotDistribution(f"entries sum to {v.sum()!r}, not 1")
    return np.clip(v, 0.0, None)


def renyi_half(p, q) -> float:
    """D_{1/2}(P||Q) = -2 ln sum sqrt(P Q); symmetric in its arguments.

    Terms where either entry vanishes contribute zero, and disjoint support
    yields +inf.
    """
    pv = _check_distribution(p)
    qv = _check_distribution(q)
    if pv.size != qv.size:
        raise NotDistribution("distributions have different lengths")
    mask = (pv > 0.0) & (qv > 0.0)
    if not np.any(mask):
        return float("inf")
    s = float(np.sum(np.sqrt(pv[mask]) * np.sqrt(qv[mask])))
    if s <= 0.0:
        return float("inf")
    return max(-2.0 * float(np.log(s)), 0.0)
