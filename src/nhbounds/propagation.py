"""Time evolution engines.

Non-Hermitian propagators at a set of times (one stacked exact exponential
for constant generators; for time-dependent ones, at sorted times, one
running midpoint product, whose steps are no longer than the last time over
``DEFAULT_TD_STEPS``, so a single time takes that many equal steps) and the
normalized state M rho0 M^dag / Tr they carry, the Lindblad master equation
via the exact vectorized-Liouvillian exponential, the exact mean and variance
of the jump count (full counting statistics), the last two also at a stack
of times through stacked exponentials, and exact-in-time (waiting-time)
quantum-jump trajectory sampling.  The no-jump conditioned state and its
survival weight are the normalized state and trace of the equivalent
non-Hermitian model.  Trajectory randomness is stateless: each uniform is a
Philox4x32-10 block of (seed; trajectory index, jump number), evaluated
over a whole chunk at once, so no per-trajectory generator exists.

Models are immutable: they hold read-only copies of their arrays and build
their derived operators once, on first use.

Units: hbar = 1 throughout.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import (
    BadParameter,
    IntegratorDiverged,
    NonPositiveGamma,
    NormUnderflow,
    ShapeError,
)
from .states import DensityOperator, StateVector, as_density_matrix, normalize

DEFAULT_TD_STEPS = 2000        # midpoint steps for time-dependent propagation
_CHUNK = 16384                 # trajectories stepped together in one chunk
_LIFT_LEVELS = 40              # jump times resolve to 2^-40 of a node interval
_LIFT_FULL = 1 << _LIFT_LEVELS


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only complex copy of ``a``."""
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _built_once(build):
    """Cache ``build(model)`` on the model instance, arrays made read-only.

    Models are immutable, so the value never goes stale; it lives and dies
    with its model instead of in a process-wide cache.
    """
    slot = f"_built_{build.__name__}"

    @functools.wraps(build)
    def get(model):
        try:
            return model.__dict__[slot]
        except KeyError:
            value = build(model)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            model.__dict__[slot] = value  # bypasses the frozen __setattr__
            return value

    return get


@dataclass(eq=False, frozen=True)
class NonHermitianModel:
    """Generator H - i*Gamma of norm-non-preserving evolution.

    ``h`` and ``gamma`` are Hermitian; ``gamma`` is PSD (its eigenvalues set
    the decay rates).  Both are stored as read-only copies, so the caller's
    arrays stay writable and the model never changes.  An optional
    ``time_dependence`` callback ``t -> (H(t), Gamma(t))`` makes the model
    time dependent; ``h``/``gamma`` then hold the t=0 snapshot used for
    validation.
    """

    h: np.ndarray
    gamma: np.ndarray
    time_dependence: Callable[[float], tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        h = linalg.require_hermitian(self.h, "H")
        g = linalg.require_hermitian(self.gamma, "Gamma")
        if h.shape != g.shape:
            raise ShapeError("H and Gamma have different dimensions")
        w = np.linalg.eigvalsh(g)
        if w[0] < linalg.PSD_CLAMP:
            raise NonPositiveGamma(f"Gamma eigenvalue {w[0]:.3e} below tolerance")
        object.__setattr__(self, "h", _read_only(h))
        object.__setattr__(self, "gamma", _read_only(g))

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    @property
    def is_time_dependent(self) -> bool:
        return self.time_dependence is not None

    def parts(self, t: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        if self.time_dependence is None:
            return self.h, self.gamma
        h, g = self.time_dependence(t)
        return np.asarray(h, dtype=complex), np.asarray(g, dtype=complex)

    def full_generator(self, t: float = 0.0) -> np.ndarray:
        """H(t) - i Gamma(t)."""
        h, g = self.parts(t)
        return h - 1j * g


@dataclass(eq=False, frozen=True)
class LindbladModel:
    """System Hamiltonian plus jump operators of a Markovian open system.

    ``h_s`` and every jump operator are stored as read-only copies.  The
    jump-rate operator, the no-jump model and the Liouvillian are built
    once per model, on first use, and returned read-only.
    """

    h_s: np.ndarray
    jumps: tuple[np.ndarray, ...]

    def __post_init__(self):
        h = linalg.require_hermitian(self.h_s, "H_S")
        ls = tuple(linalg.as_matrix(l) for l in self.jumps)
        for l in ls:
            if l.shape != h.shape:
                raise ShapeError("jump operator dimension differs from H_S")
        object.__setattr__(self, "h_s", _read_only(h))
        object.__setattr__(self, "jumps", tuple(_read_only(l) for l in ls))

    @property
    def dim(self) -> int:
        return self.h_s.shape[0]

    @property
    def n_channels(self) -> int:
        return len(self.jumps)

    @_built_once
    def jump_rate_operator(self) -> np.ndarray:
        """Sum of L^dag L over all channels."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for l in self.jumps:
            out += linalg.dag(l) @ l
        return out

    def effective_hamiltonian(self) -> np.ndarray:
        """H_S - (i/2) sum L^dag L, the no-jump generator."""
        return self.h_s - 0.5j * self.jump_rate_operator()

    @_built_once
    def no_jump_model(self) -> NonHermitianModel:
        """The equivalent non-Hermitian model (H_S, half the jump-rate operator)."""
        half = 0.5 * self.jump_rate_operator()
        half = 0.5 * (half + linalg.dag(half))
        return NonHermitianModel(self.h_s, half)


@dataclass
class Trajectory:
    """One quantum-jump record: event times/channels plus optional states."""

    jump_times: list[tuple[float, int]]
    jump_count: int
    final_state: StateVector
    sampled_states: list[tuple[float, StateVector]] | None = None


@dataclass
class TrajectoryEnsemble:
    """Order-independent accumulation of many trajectories.

    ``mean_states[k]`` is the ensemble mean projector at ``times[k]``;
    ``stderr_real``/``stderr_imag`` hold the entrywise standard errors of the
    corresponding real and imaginary parts.  ``n_steps`` counts the exact
    propagation intervals (between 0, the sample times and the end time) of
    each trajectory.
    """

    n_trajectories: int
    times: np.ndarray
    mean_states: list[np.ndarray]
    stderr_real: list[np.ndarray]
    stderr_imag: list[np.ndarray]
    jump_counts: np.ndarray
    n_steps: int

    def mean_jump_count(self) -> float:
        return float(self.jump_counts.mean())

    def jump_count_std(self) -> float:
        return float(self.jump_counts.std(ddof=1)) if self.n_trajectories > 1 else 0.0

    def jump_count_stderr(self) -> float:
        return self.jump_count_std() / math.sqrt(self.n_trajectories)


# ---------------------------------------------------------------------------
# closed (non-Hermitian) propagation


def propagator(model: NonHermitianModel, t: float) -> np.ndarray:
    """Time-ordered exponential of -i * (H - i Gamma) up to time ``t``.

    This is :func:`_propagators` at the one time ``t``: a single matrix
    exponential (exact) for a constant generator, and a second-order
    midpoint exponential product of ``DEFAULT_TD_STEPS`` equal steps for a
    time-dependent one.
    """
    return _propagators(model, [t])[0]


def _propagators(model: NonHermitianModel, times) -> np.ndarray:
    """Propagators from time 0 to each of ``times``.

    A constant generator takes stacked ``expm`` calls of -i t G
    (``linalg._expm_stack``), in any order, and the identity at t = 0.  A
    time-dependent one needs sorted times: it splits each gap between
    consecutive times (the first from 0) into equal midpoint steps no longer
    than ``times[-1] / DEFAULT_TD_STEPS``, makes all of them in one ``expm``
    call and reads the running product at each time.

    Raises:
        BadParameter: for a negative time, or for decreasing times of a
            time-dependent model.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise BadParameter("propagation time must be nonnegative")
    if not model.is_time_dependent:
        gen = model.full_generator()
        out = linalg._expm_stack(times, model.dim, lambda ts: (-1j * ts)[:, None, None] * gen)
        out[times == 0] = np.eye(model.dim)
        return out
    gaps = np.diff(times, prepend=0.0)
    if np.any(gaps < 0):
        raise BadParameter("time-dependent propagation needs nondecreasing times")
    end = times[-1] if times.size else 0.0
    # a lone time t has gap / t = 1 exactly, so it takes DEFAULT_TD_STEPS steps
    counts = (np.ceil(gaps / end * DEFAULT_TD_STEPS).astype(int) if end > 0
              else np.zeros(times.size, dtype=int))
    steps = [(s + (k + 0.5) * g / c, g / c) for s, g, c in zip(times - gaps, gaps, counts)
             for k in range(c)]
    prods = np.empty((len(steps) + 1, model.dim, model.dim), dtype=complex)
    prods[0] = np.eye(model.dim)
    if steps:
        gens = np.stack([-1j * dt * model.full_generator(mid) for mid, dt in steps])
        for k, e in enumerate(linalg.expm(gens)):
            prods[k + 1] = e @ prods[k]
    return prods[np.cumsum(counts)]


def _normalized_density(m: np.ndarray, rho0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(M rho0 M^dag / Tr, Tr)`` for one propagator or a stack of them.

    Raises:
        NormUnderflow: if a trace is at or below 1e-14 (the decaying branch
            is gone and the normalized state is meaningless).
    """
    raw = m @ rho0 @ np.conj(np.swapaxes(m, -1, -2))
    raw = 0.5 * (raw + np.conj(np.swapaxes(raw, -1, -2)))
    tr = np.trace(raw, axis1=-2, axis2=-1).real
    if not np.all(tr > 1e-14):
        raise NormUnderflow(f"evolved trace {np.min(tr):.3e} underflowed")
    return raw / tr[..., None, None], tr


# ---------------------------------------------------------------------------
# Lindblad propagation


@_built_once
def liouvillian(model: LindbladModel) -> np.ndarray:
    """Dense superoperator L with vec(rho') = L vec(rho), row-major vec.

    Built once per model and returned read-only.
    """
    d = model.dim
    eye = np.eye(d, dtype=complex)
    h = model.h_s
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for l in model.jumps:
        ldl = linalg.dag(l) @ l
        out += np.kron(l, np.conj(l))
        out -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
    return out


@_built_once
def _counting_generator(model: LindbladModel) -> np.ndarray:
    """The block generator [[L, J, 0], [0, L, J], [0, 0, L]] of the jump count.

    L is the Liouvillian and J = sum_m L_m (x) conj(L_m) its jump part, so
    J vec(rho) = vec(sum_m L_m rho L_m^dag) in the row-major vec of
    :func:`liouvillian`.  Built once per model and returned read-only.
    """
    lv = liouvillian(model)
    zero = np.zeros_like(lv)
    jump = sum((np.kron(l, np.conj(l)) for l in model.jumps), zero)
    return np.block([[lv, jump, zero], [zero, lv, jump], [zero, zero, lv]])


def jump_count_moments(model: LindbladModel, state0, tau: float) -> tuple[float, float]:
    """Exact mean and variance of the number of jumps in [0, tau].

    Full counting statistics: with G(z) = Tr exp((L + (z - 1) J) tau) rho0,
    E[N] = G'(1) and E[N(N-1)] = G''(1).  Both are blocks of one matrix
    exponential of the block upper-triangular counting generator (Van Loan,
    IEEE TAC 23, 395 (1978)): E[N] = Tr E_01 rho0 and
    E[N(N-1)] = 2 Tr E_02 rho0, so Var[N] = E[N(N-1)] + E[N] - E[N]^2.
    ``state0`` is anything :func:`~nhbounds.states.as_density_matrix` reads.
    """
    return _jump_count_moments(model, as_density_matrix(state0), [tau])[0]


def _jump_count_moments(
    model: LindbladModel, rho: np.ndarray, times: Sequence[float]
) -> list[tuple[float, float]]:
    """:func:`jump_count_moments` of a unit-trace density matrix ``rho`` at
    each of ``times``, from stacked exponentials of the counting generator."""
    if any(t < 0 for t in times):
        raise BadParameter("tau must be nonnegative")
    d = model.dim
    if rho.shape[0] != d:
        raise ShapeError("state dimension differs from model dimension")
    n = d * d
    gen = _counting_generator(model)
    diag = np.arange(d) * (d + 1)  # row-major vec positions of the diagonal
    vec = rho.reshape(-1)

    def moments(e: np.ndarray) -> np.ndarray:
        return (e[:, :n, n:][:, diag].sum(axis=1).reshape(-1, 2, n) @ vec).real

    out = []
    for e01, e02 in linalg._expm_stack(times, 3 * n, lambda ts: ts[:, None, None] * gen, moments):
        mean = float(e01)
        out.append((mean, float(2.0 * e02 + mean - mean * mean)))
    return out


def evolve_lindblad(model: LindbladModel, rho0, t) -> np.ndarray:
    """Exact Lindblad evolution via the vectorized-Liouvillian exponential.

    ``rho0`` is anything :func:`~nhbounds.states.as_density_matrix` reads.
    For one time ``t`` the state comes back as a read-only unit-trace
    matrix; for a 1-D sequence of times, as the read-only stack of the
    states at each, from stacked exponentials.
    """
    if np.ndim(t) > 1:
        raise BadParameter("times must be one time or a 1-D sequence of them")
    rho = as_density_matrix(rho0)
    return _evolve_lindblad(model, rho, t) if np.ndim(t) else _evolve_lindblad(model, rho, [t])[0]


def _evolve_lindblad(model: LindbladModel, rho: np.ndarray, times: Sequence[float]) -> np.ndarray:
    """:func:`evolve_lindblad` of a unit-trace density matrix ``rho`` at each
    of ``times``: a read-only stack, from stacked exponentials of the
    Liouvillian, with the trace and eigenvalue checks over the whole stack.

    Raises:
        IntegratorDiverged: if, at the earliest offending time, the trace
            drifts from 1 by more than 1e-8 or an eigenvalue falls below -1e-8.
    """
    if any(t < 0 for t in times):
        raise BadParameter("propagation time must be nonnegative")
    d = model.dim
    if rho.shape[0] != d:
        raise ShapeError("state dimension differs from model dimension")
    lv, vec = liouvillian(model), rho.reshape(-1)
    out = linalg._expm_stack(times, d * d, lambda ts: lv * ts[:, None, None],
                             lambda e: e @ vec).reshape(-1, d, d)
    out = 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))
    tr = np.trace(out, axis1=-2, axis2=-1).real
    w = np.linalg.eigvalsh(out)[:, 0]
    drift, negative = np.abs(tr - 1.0) > 1e-8, w < -1e-8
    if np.any(drift | negative):
        k = int(np.argmax(drift | negative))
        if drift[k]:
            raise IntegratorDiverged(f"trace drifted to {float(tr[k])!r}")
        raise IntegratorDiverged(f"negative eigenvalue {w[k]:.3e}")
    out = out / tr[:, None, None]
    for k in np.flatnonzero(w < linalg.PSD_CLAMP):
        # round-off cleanup: project the offending eigenvalues to zero
        w2, v = np.linalg.eigh(out[k])
        w2 = np.clip(w2, 0.0, None)
        clean = (v * (w2 / w2.sum())) @ linalg.dag(v)
        out[k] = 0.5 * (clean + linalg.dag(clean))  # exactly Hermitian, as unclamped members
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# quantum-jump trajectories


# Philox4x32-10 (Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as
# easy as 1, 2, 3", SC'11) in numpy uint64 arithmetic: a 32 x 32-bit product
# fits exactly, its high word is ``p >> 32`` and its low word ``p & _MASK32``.
_PHILOX_MUL = (0xD2511F53, 0xCD9E8D57)
_PHILOX_WEYL = (0x9E3779B9, 0xBB67AE85)
_PHILOX_ROUNDS = 10
_MASK32 = 0xFFFFFFFF


def _philox4x32(ctr, key):
    """Philox4x32-10 of the counter words ``ctr`` under the key words ``key``.

    ``ctr`` is four uint64 arrays (or scalars) holding 32-bit words, ``key``
    two Python ints below 2^32; returns the four 32-bit output words as
    uint64 arrays.
    """
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in ctr)
    k0, k1 = key
    m0, m1 = _PHILOX_MUL
    for _ in range(_PHILOX_ROUNDS):
        p0, p1 = c0 * m0, c2 * m1
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & _MASK32, (p0 >> 32) ^ c3 ^ k1, p0 & _MASK32
        k0, k1 = (k0 + _PHILOX_WEYL[0]) & _MASK32, (k1 + _PHILOX_WEYL[1]) & _MASK32
    return c0, c1, c2, c3


def _uniform_pairs(seed: int, traj: np.ndarray, block) -> np.ndarray:
    """The two uniforms in [0, 1) of draw block ``block`` of trajectories ``traj``.

    One Philox4x32-10 block keyed by the 64-bit ``seed``, with counter
    (block as two 32-bit words, trajectory index as two 32-bit words), gives
    two 53-bit doubles ``((w0 >> 5) * 2^26 + (w1 >> 6)) / 2^53``.  Every
    draw is a pure function of (seed, trajectory, block), so no row depends
    on the chunk it runs in.  ``block`` is a scalar or one value per row.
    Returns an array of shape ``(len(traj), 2)``.
    """
    traj = np.asarray(traj, dtype=np.uint64)
    block = np.broadcast_to(np.asarray(block, dtype=np.uint64), traj.shape)
    w = _philox4x32(
        (block & _MASK32, block >> 32, traj & _MASK32, traj >> 32),
        (seed & _MASK32, seed >> 32),
    )
    out = np.empty(traj.shape + (2,))
    out[..., 0] = ((w[0] >> 5) << 26 | (w[1] >> 6)) * 2.0**-53
    out[..., 1] = ((w[2] >> 5) << 26 | (w[3] >> 6)) * 2.0**-53
    return out


def _require_key(name: str, value: int) -> int:
    """``value`` as an int in [0, 2^64), the range of a Philox key or counter."""
    value = operator.index(value)
    if not 0 <= value < 1 << 64:
        raise BadParameter(f"{name} must lie in [0, 2**64), got {value}")
    return value


def _sample_nodes(tau: float, sample_times: Sequence[float]) -> np.ndarray:
    """Sorted distinct propagation nodes: 0, every sample time, and ``tau``."""
    for t in sample_times:
        if not 0.0 <= t <= tau:
            raise BadParameter(f"sample time {t!r} outside [0, {tau!r}]")
    return np.unique(np.array([0.0, tau, *sample_times], dtype=float))


def _lift_propagators(model: LindbladModel, nodes: np.ndarray) -> np.ndarray:
    """``out[j, k] = exp(-i H_eff dt_j / 2^k).T`` for node interval j and k = 0..K.

    All intervals and levels are one stack, so one ``expm`` call makes them.
    """
    steps = np.ldexp(np.diff(nodes)[:, None], -np.arange(_LIFT_LEVELS + 1))
    gens = (-1j * steps)[..., None, None] * model.effective_hamiltonian()
    return np.ascontiguousarray(linalg.expm(gens).swapaxes(-1, -2))


def _norm_sq(a: np.ndarray) -> np.ndarray:
    """Squared norms along the last axis of a C-contiguous complex array."""
    x = a.view(float)
    return np.einsum("...i,...i->...", x, x)


def _unravel(
    model: LindbladModel,
    psi: np.ndarray,
    seed: int,
    traj: np.ndarray,
    nodes: np.ndarray,
    lifts: np.ndarray,
    on_node: Callable[[int, np.ndarray], None],
    events: list[list[tuple[float, int]]] | None = None,
) -> np.ndarray:
    """Waiting-time quantum-jump evolution of a chunk of trajectories.

    Row ``i`` is trajectory ``traj[i]``.  It carries its no-jump state
    ``psi[i]`` unnormalized together with a threshold; the next jump fires
    where ``||psi||^2`` decays to the threshold.  The jump-rate operator is
    PSD, so the squared norm only decreases and greedy binary lifting over
    the steps ``lifts[j, k]`` (interval j split 2^k times) finds that time
    to 2^-K of the interval.  A row that does not jump in an interval takes
    it in one step, so only the rows that jump are bisected.  The first
    threshold is the second uniform of draw block 0 (the first picks a
    mixed initial eigenstate).  At jump n, block n gives the channel, drawn
    with weight ``||L_m psi||^2``, and the next threshold.  Every draw is
    ``_uniform_pairs(seed, traj[i], n)``, a pure function of the row's
    trajectory index and jump count, so no row depends on the chunk it runs
    in.  ``on_node(j, psi)`` sees the normalized states at ``nodes[j]``;
    ``events[i]``, when given, collects the ``(time, channel)`` pairs of row
    ``i``.  ``psi`` ends holding the normalized states at the last node.
    Returns jump counts.
    """
    ls = model.jumps
    c = psi.shape[0]
    counts = np.zeros(c, dtype=np.int64)
    # without channels nothing fires and no threshold is drawn
    r = _uniform_pairs(seed, traj, 0)[:, 1] if ls else np.zeros(c)
    on_node(0, psi)
    for j, lift in enumerate(lifts):
        # the rows still in the interval and their positions in it, in
        # units of 2^-K of the interval
        live, at = np.arange(c), np.zeros(c, dtype=np.int64)
        while True:
            cand = psi[live] @ lift[0]
            keep = (at == 0) & (_norm_sq(cand) >= r[live])
            psi[live[keep]] = cand[keep]
            live, at = live[~keep], at[~keep]
            if not live.size:
                break
            # the rows left are gathered once and bisected with masked
            # updates in place, which costs far less than a gather and a
            # scatter per level
            a, thr = psi[live], r[live]
            for k in range(1, _LIFT_LEVELS + 1):
                stride = _LIFT_FULL >> k
                cand = a @ lift[k]
                # a row back from a jump starts inside the interval: no step past its end
                keep = (at + stride <= _LIFT_FULL) & (_norm_sq(cand) >= thr)
                np.copyto(a, cand, where=keep[:, None])
                at += stride * keep
            psi[live] = a
            jumped = at < _LIFT_FULL
            live, at = live[jumped], at[jumped]
            if not live.size:
                break
            amps = np.stack([psi[live] @ l.T for l in ls])
            cum = np.cumsum(_norm_sq(amps), axis=0)
            counts[live] += 1
            draws = _uniform_pairs(seed, traj[live], counts[live])
            ch = np.minimum(np.sum(draws[:, 0] * cum[-1] >= cum, axis=0), len(ls) - 1)
            chosen = amps[ch, np.arange(live.size)]
            psi[live] = chosen / np.sqrt(_norm_sq(chosen))[:, None]
            r[live] = draws[:, 1]
            if events is not None:
                times = nodes[j] + at * ((nodes[j + 1] - nodes[j]) / _LIFT_FULL)
                for i, t, m in zip(live, times, ch):
                    events[i].append((float(t), int(m)))
        n2 = _norm_sq(psi)
        if not np.all(n2 > 0.0):
            raise NormUnderflow("no-jump branch norm underflowed")
        r /= n2
        psi /= np.sqrt(n2)[:, None]
        on_node(j + 1, psi)
    return counts


def _initial_rows(model: LindbladModel, state0) -> Callable[[int, np.ndarray], np.ndarray]:
    """``rows(seed, traj)``: the initial states of trajectories ``traj``, one per row.

    ``state0`` is read as ``trajectory_ensemble`` documents.  A mixed state
    gives each trajectory the eigenstate that the first uniform of its draw
    block 0 picks, with the eigenvalues as weights.
    """
    if not isinstance(state0, (StateVector, DensityOperator)):
        arr = np.asarray(state0, dtype=complex)
        state0 = DensityOperator(arr) if arr.ndim == 2 else StateVector(arr)
    if state0.dim != model.dim:
        raise ShapeError("state dimension differs from model dimension")
    if isinstance(state0, StateVector):
        base = normalize(state0)[0].amplitudes
        return lambda _seed, traj: np.tile(base, (traj.size, 1))
    w, v = linalg.herm_eig(state0.matrix)
    order = np.argsort(w)[::-1]
    probs = np.clip(w[order], 0.0, None)
    cum = np.cumsum(probs / probs.sum())
    vecs = v[:, order]

    def rows(seed: int, traj: np.ndarray) -> np.ndarray:
        picks = np.searchsorted(cum, _uniform_pairs(seed, traj, 0)[:, 0], side="right")
        return vecs[:, np.minimum(picks, cum.size - 1)].T.copy()

    return rows


def sample_trajectory(
    model: LindbladModel,
    state0,
    tau: float,
    seed: int,
    *,
    traj_index: int = 0,
    sample_times: Sequence[float] | None = None,
) -> Trajectory:
    """Sample one quantum-jump trajectory, exact in time.

    This is the ensemble kernel run on one row: ``state0`` is read as
    ``trajectory_ensemble`` reads it (a pure state must be normalized), and
    the uniforms are functions of ``(seed, traj_index)`` and the jump
    number alone, so the result is identical to the matching member of
    ``trajectory_ensemble``.  ``seed`` and ``traj_index`` must lie in
    [0, 2^64), the Philox key and counter range.  Sampled states are
    returned at exactly the requested times, in the requested order.
    """
    if isinstance(state0, StateVector) and not state0.is_normalized(1e-10):
        raise BadParameter("initial state must be normalized")
    if tau < 0:
        raise BadParameter("tau must be nonnegative")
    seed = _require_key("seed", seed)
    traj = np.array([_require_key("traj_index", traj_index)], dtype=np.uint64)
    psi = _initial_rows(model, state0)(seed, traj)
    wanted = list(sample_times) if sample_times is not None else []
    nodes = _sample_nodes(tau, wanted)
    at_node: list[np.ndarray] = []
    events: list[list[tuple[float, int]]] = [[]]
    _unravel(
        model, psi, seed, traj, nodes, _lift_propagators(model, nodes),
        lambda _j, rows: at_node.append(rows[0].copy()), events,
    )
    sampled = [(t, StateVector(at_node[np.searchsorted(nodes, t)])) for t in wanted]
    return Trajectory(
        jump_times=events[0],
        jump_count=len(events[0]),
        final_state=StateVector(psi[0]),
        sampled_states=sampled if sample_times is not None else None,
    )


def trajectory_ensemble(
    model: LindbladModel,
    state0,
    tau: float,
    n_traj: int,
    seed: int,
    *,
    sample_times: Sequence[float] | None = None,
) -> TrajectoryEnsemble:
    """Run ``n_traj`` trajectories and accumulate order-independent statistics.

    ``state0`` may be a normalized pure state or a unit-trace density
    operator (a raw 2-D array is read as a density operator, a raw 1-D
    array as amplitudes); in the mixed case each trajectory first draws its
    initial eigenstate from the spectral decomposition.  Mean states are
    taken at exactly the requested ``sample_times`` (default ``[tau]``).
    Trajectory i draws its uniforms from ``(seed, i)`` alone, and each sum
    behind the mean states and standard errors is one running sum in
    trajectory-index order, carried across chunks, so the result is the
    same bit for bit for a fixed seed however the trajectories are
    chunked.  ``seed`` must lie in [0, 2^64), the Philox key range.
    """
    if n_traj < 1:
        raise BadParameter("need at least one trajectory")
    if tau < 0:
        raise BadParameter("tau must be nonnegative")
    seed = _require_key("seed", seed)
    d = model.dim
    initial_rows = _initial_rows(model, state0)
    times = np.array([tau] if sample_times is None else list(sample_times), dtype=float)
    nodes = _sample_nodes(tau, times)
    lifts = _lift_propagators(model, nodes)
    node_of = np.searchsorted(nodes, times)
    # per sampled node: the sums of |psi><psi|, of its squared real parts
    # and of its squared imaginary parts
    sums = {j: (np.zeros((d, d), dtype=complex), np.zeros((d, d)), np.zeros((d, d)))
            for j in node_of.tolist()}
    jump_counts = np.zeros(n_traj, dtype=np.int64)

    def accumulate(j: int, psi: np.ndarray) -> None:
        if j not in sums:
            return
        proj = np.einsum("ci,cj->cij", psi, np.conj(psi))
        for total, terms in zip(sums[j], (proj, proj.real**2, proj.imag**2)):
            # one running sum in trajectory order, whatever the chunk
            # boundaries: the total so far enters as the first term
            terms[0] += total
            total[...] = np.add.accumulate(terms, axis=0, out=terms)[-1]

    for start in range(0, n_traj, _CHUNK):
        traj = np.arange(start, min(start + _CHUNK, n_traj), dtype=np.uint64)
        jump_counts[start : start + traj.size] = _unravel(
            model, initial_rows(seed, traj), seed, traj, nodes, lifts, accumulate
        )

    means, se_re, se_im = [], [], []
    for j in node_of:
        sum_rho, sum_sq_re, sum_sq_im = sums[j]
        mean = sum_rho / n_traj
        if n_traj > 1:
            var_re = np.clip(sum_sq_re / n_traj - mean.real**2, 0.0, None)
            var_im = np.clip(sum_sq_im / n_traj - mean.imag**2, 0.0, None)
            fac = n_traj / (n_traj - 1)
            se_re.append(np.sqrt(fac * var_re / n_traj))
            se_im.append(np.sqrt(fac * var_im / n_traj))
        else:
            se_re.append(np.zeros((d, d)))
            se_im.append(np.zeros((d, d)))
        means.append(mean)

    return TrajectoryEnsemble(
        n_trajectories=n_traj,
        times=times,
        mean_states=means,
        stderr_real=se_re,
        stderr_imag=se_im,
        jump_counts=jump_counts,
        n_steps=len(lifts),
    )
