"""Factories for the example systems and for randomized test ensembles.

Built-ins: the qubit dephasing channel, the three-level autonomous
refrigerator driven by three thermal reservoirs, and the embedding of an
arbitrary classical Markov chain into Lindblad form.  Random generators
produce commuting non-Hermitian models and diagonal-jump Lindblad models
with deterministic, seed-keyed output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadParameter, NotDistribution, ShapeError
from .propagation import LindbladModel, NonHermitianModel
from .states import DensityOperator, StateVector

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(eq=False, frozen=True)
class ClassicalMarkovModel:
    """Continuous-time Markov chain: off-diagonal rates and an initial law.

    ``rates[nu, mu]`` is the transition rate from state mu to state nu
    (diagonal entries are ignored and stored as zero).
    """

    rates: np.ndarray
    p0: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.rates, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ShapeError(f"rates must be square, got shape {w.shape}")
        w = w.copy()
        np.fill_diagonal(w, 0.0)
        if np.any(w < 0):
            raise BadParameter("off-diagonal rates must be nonnegative")
        p = np.asarray(self.p0, dtype=float).reshape(-1)
        if p.size != w.shape[0]:
            raise ShapeError("initial distribution length differs from state count")
        if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-10:
            raise NotDistribution("p0 is not a probability distribution")
        object.__setattr__(self, "rates", w)
        object.__setattr__(self, "p0", np.clip(p, 0.0, None))

    @property
    def n_states(self) -> int:
        return self.rates.shape[0]

    def generator(self) -> np.ndarray:
        """Rate matrix with escape rates on the diagonal (columns sum to 0)."""
        g = self.rates.copy()
        np.fill_diagonal(g, -g.sum(axis=0))
        return g

    def propagate(self, t: float) -> np.ndarray:
        """P(t) = exp(G t) P(0), clipped against round-off."""
        if t < 0:
            raise BadParameter("time must be nonnegative")
        p = linalg.expm(self.generator() * t).real @ self.p0
        return np.clip(p, 0.0, None)

    def activity(self, p: np.ndarray | None = None) -> float:
        """Total transition rate sum_{nu != mu} W[nu, mu] P(mu)."""
        dist = self.p0 if p is None else np.asarray(p, dtype=float)
        return float(self.rates.sum(axis=0) @ dist)


def make_dephasing(gamma: float) -> LindbladModel:
    """Qubit dephasing: H_S = 0, single jump sqrt(gamma) * sigma_z.

    With this normalization the jump-rate operator is gamma * I, the
    no-jump overlap decays as exp(-gamma t / 2), and coherences decay as
    exp(-2 gamma t).
    """
    if gamma <= 0:
        raise BadParameter("gamma must be positive")
    h_s = np.zeros((2, 2), dtype=complex)
    return LindbladModel(h_s, (np.sqrt(gamma) * SIGMA_Z,))


def make_refrigerator(
    gamma: float,
    omega1: float,
    omega2: float,
    beta1: float,
    beta2: float,
    beta3: float,
) -> LindbladModel:
    """Three-level autonomous refrigerator coupled to three thermal baths.

    Basis order (ground, A, B) with energies (0, omega1, omega1 + omega2).
    Each of the three transitions exchanges quanta with its own reservoir at
    inverse temperature beta_r; rates use the Bose occupation
    n_r = 1 / (exp(beta_r * omega_r) - 1).
    """
    for name, val in [
        ("gamma", gamma), ("omega1", omega1), ("omega2", omega2),
        ("beta1", beta1), ("beta2", beta2), ("beta3", beta3),
    ]:
        if val <= 0:
            raise BadParameter(f"{name} must be positive")
    omega3 = omega1 + omega2
    n1 = 1.0 / np.expm1(beta1 * omega1)
    n2 = 1.0 / np.expm1(beta2 * omega2)
    n3 = 1.0 / np.expm1(beta3 * omega3)
    h_s = np.diag([0.0, omega1, omega3]).astype(complex)
    g, a, b = 0, 1, 2
    pairs = [
        (g, a, gamma * (n1 + 1.0)),  # A -> g
        (a, g, gamma * n1),          # g -> A
        (a, b, gamma * (n2 + 1.0)),  # B -> A
        (b, a, gamma * n2),          # A -> B
        (g, b, gamma * (n3 + 1.0)),  # B -> g
        (b, g, gamma * n3),          # g -> B
    ]
    jumps = []
    for nu, mu, rate in pairs:
        l = np.zeros((3, 3), dtype=complex)
        l[nu, mu] = np.sqrt(rate)
        jumps.append(l)
    return LindbladModel(h_s, tuple(jumps))


def make_classical(chain: ClassicalMarkovModel) -> LindbladModel:
    """Embed a classical Markov chain: H_S = 0, one jump per positive rate.

    Diagonal density operators stay diagonal under this embedding and their
    diagonal solves the classical master equation.
    """
    n = chain.n_states
    h_s = np.zeros((n, n), dtype=complex)
    jumps = []
    for nu in range(n):
        for mu in range(n):
            if nu != mu and chain.rates[nu, mu] > 0:
                l = np.zeros((n, n), dtype=complex)
                l[nu, mu] = np.sqrt(chain.rates[nu, mu])
                jumps.append(l)
    return LindbladModel(h_s, tuple(jumps))


def classical_initial_density(chain: ClassicalMarkovModel) -> DensityOperator:
    """diag(P(0)) as a density operator on the embedding space."""
    return DensityOperator(np.diag(chain.p0).astype(complex))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase fix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_commuting(
    dim: int, seed: int, gamma_scale: float = 1.0, h_scale: float = 1.0
) -> NonHermitianModel:
    """Random commuting pair (H, Gamma) sharing a Haar eigenbasis.

    H eigenvalues are uniform on [-h_scale, h_scale]; Gamma eigenvalues are
    uniform on [0, gamma_scale], so Gamma is PSD by construction.  Output is
    byte-identical for a fixed seed.
    """
    if dim < 2:
        raise BadParameter("dim must be at least 2")
    rng = np.random.default_rng(seed)
    v = haar_unitary(dim, rng)
    h_eigs = rng.uniform(-h_scale, h_scale, dim)
    g_eigs = rng.uniform(0.0, gamma_scale, dim) if gamma_scale > 0 else np.zeros(dim)
    h = (v * h_eigs) @ linalg.dag(v)
    g = (v * g_eigs) @ linalg.dag(v)
    return NonHermitianModel(0.5 * (h + linalg.dag(h)), 0.5 * (g + linalg.dag(g)))


def random_diagonal_jump_lindblad(
    dim: int,
    seed: int,
    rate_scale: float = 1.0,
    energy_scale: float = 1.0,
    n_jumps: int | None = None,
) -> LindbladModel:
    """Random Lindblad model whose jump-rate operator is diagonal.

    H_S is a random diagonal Hamiltonian; jumps mix scaled basis transfers
    |nu><mu| and diagonal dephasing-type operators, so H_S commutes with
    sum L^dag L by construction (the commuting precondition of the
    mean-based open-system bounds).
    """
    if dim < 2:
        raise BadParameter("dim must be at least 2")
    rng = np.random.default_rng(seed)
    h_s = np.diag(rng.uniform(0.0, energy_scale, dim)).astype(complex)
    count = n_jumps if n_jumps is not None else int(rng.integers(1, dim + 1))
    jumps = []
    for _ in range(count):
        if rng.random() < 0.5:
            nu, mu = rng.choice(dim, size=2, replace=False)
            l = np.zeros((dim, dim), dtype=complex)
            l[nu, mu] = np.sqrt(rng.uniform(0.1, 1.0) * rate_scale)
        else:
            l = np.diag(rng.uniform(-1.0, 1.0, dim)).astype(complex)
            l *= np.sqrt(rate_scale)
        jumps.append(l)
    return LindbladModel(h_s, tuple(jumps))


def random_pure_state(dim: int, seed_or_rng) -> StateVector:
    """Haar-random normalized pure state."""
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(amp / np.linalg.norm(amp))


def random_density(dim: int, seed_or_rng, rank: int | None = None) -> DensityOperator:
    """Random mixed state from a Ginibre factor of the given rank."""
    rng = (
        seed_or_rng
        if isinstance(seed_or_rng, np.random.Generator)
        else np.random.default_rng(seed_or_rng)
    )
    r = rank if rank is not None else dim
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    rho = g @ linalg.dag(g)
    rho /= np.trace(rho).real
    return DensityOperator(0.5 * (rho + linalg.dag(rho)))

