"""Distances and statistics on states and observables.

Uhlmann fidelity and its Bures angle, observable moments (Hermitian, and
the generalized standard deviation of a non-Hermitian operator), and the
Renyi divergence D_1/2 between classical distributions.  The fidelity and
the moments also run over stacks of states, for the stacked sweeps of
:mod:`nhbounds.bounds`.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import HermiticityViolation, NotDistribution
from .states import DensityOperator, StateVector, as_density_matrix


def _rho(state) -> np.ndarray:
    if isinstance(state, DensityOperator):
        return state.matrix
    if isinstance(state, StateVector):
        return as_density_matrix(state)
    return linalg._square_stack(state)


def fidelity(rho1, rho2) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 in [0, 1].

    General inputs go through two PSD square roots with tiny negative
    eigenvalues clamped.  When either input is rank-1 the exact identity
    Fid(|psi><psi|, rho) = <psi|rho|psi> is used instead: the square-root
    route carries sqrt(machine-eps) noise from the spurious zero
    eigenvalues of a projector, which would break the 1e-12 pure-overlap
    contract.
    """
    return _fidelities(_rho(rho1), _rho(rho2)[None])[0]


def _fidelities(a: np.ndarray, b: np.ndarray) -> list[float]:
    """:func:`fidelity` of ``a`` with each matrix of the stack ``b``.

    ``a`` is one matrix, decomposed once for the whole stack, or a stack
    paired with ``b`` member by member.  Each member takes the rank-1 route
    of its ``a``, else that of its ``b``, else the square-root route; the
    decompositions of ``b`` and the square roots are one batched call each.
    """
    wa, va = np.linalg.eigh(a)
    single = a.ndim == 2
    f = [0.0] * len(b)
    rest = []
    for k, x in enumerate(b):
        if (wa if single else wa[k])[-1] >= 1.0 - 1e-10:
            f[k] = _rank_one((va if single else va[k])[:, -1], x)
        else:
            rest.append(k)
    general = []
    if rest:
        wb, vb = np.linalg.eigh(b[rest])
        for k, w, v in zip(rest, wb, vb):
            if w[-1] >= 1.0 - 1e-10:
                f[k] = _rank_one(v[:, -1], a if single else a[k])
            else:
                general.append(k)
    if general:
        root_a = linalg.sqrtm_psd(a if single else a[general])
        inner = root_a @ b[general] @ root_a
        inner = 0.5 * (inner + np.conj(np.swapaxes(inner, -1, -2)))
        for k, tr in zip(general, np.trace(linalg.sqrtm_psd(inner), axis1=-2, axis2=-1)):
            f[k] = float(tr.real) ** 2
            if f[k] > 1.0 + 1e-6:
                raise ValueError(f"fidelity {f[k]!r} exceeds 1; inputs are not unit-trace states")
    return [min(max(x, 0.0), 1.0) for x in f]


def _rank_one(top: np.ndarray, other: np.ndarray) -> float:
    """Fid(|top><top|, other) = <top|other|top>."""
    return float(np.real(np.vdot(top, other @ top)))


def _fidelity_angle(fid: float) -> float:
    """The Bures angle arccos(sqrt(fid)) of a fidelity, in [0, pi/2]."""
    return float(np.arccos(np.clip(np.sqrt(fid), 0.0, 1.0)))


def _observable_stats(op: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of the Hermitian matrix ``op``, already
    checked, in each unit-trace state of the stack ``rho``.

    The variance is the centered <(C - <C>)^2>, which has no cancellation
    where the one-pass <C^2> - <C>^2 loses the digits of a small spread.  It
    is taken for C - C_00 I (the variance is shift-invariant), so a multiple
    of the identity has exactly zero spread instead of one set by the
    rounding of Tr rho.

    Raises:
        HermiticityViolation: at the first state whose mean has an imaginary
            residue.
    """
    mean = np.trace(op @ rho, axis1=-2, axis2=-1)
    residue = np.abs(mean.imag) > 1e-10 * (1.0 + np.abs(mean.real))
    if residue.any():
        raise HermiticityViolation(
            f"observable mean has imaginary residue {mean.imag[residue][0]:.3e}"
        )
    eye = np.eye(op.shape[0])
    shifted = op - op[0, 0].real * eye
    dev = shifted - np.trace(shifted @ rho, axis1=-2, axis2=-1).real[:, None, None] * eye
    var = np.trace(dev @ dev @ rho, axis1=-2, axis2=-1).real
    return mean.real, np.sqrt(np.where(0.0 > var, 0.0, var))


def generalized_std(op, state):
    """Standard deviation sqrt(<(O - <O>)^dag (O - <O>)>) of any operator.

    Reduces to the std of ``_observable_stats`` for a Hermitian ``op``, and
    is invariant under shifts ``op -> op - lam*I`` for any complex ``lam``.
    The centered form has no cancellation: it is exactly 0 up to the
    rounding of ``<O>`` when the state is an eigenstate, where the one-pass
    form sqrt(<O^dag O> - |<O>|^2) carries sqrt(machine-eps) noise.

    ``op`` and ``state`` may also be stacks along a leading axis (operators
    and unit-trace density matrices); the stds then come back as an array.
    """
    o = linalg._square_stack(op)
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
