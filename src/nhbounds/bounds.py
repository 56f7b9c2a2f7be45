"""Evaluation of every trade-off inequality as a structured report.

Two families, each in a closed (non-Hermitian generator) and an open
(continuous-measurement / Lindblad) form:

* mean-based ("ML") bounds, built from the initial expectations of the
  Hamiltonian and the decay operator, valid for commuting time-independent
  generators;
* deviation-based ("MT") bounds, built from the time-integrated generalized
  standard deviation of the full generator along the normalized trajectory.

The open forms take their floors, std integrals and record-state overlaps
from the closed code run on ``no_jump_model()``, the non-Hermitian model
H_S - (i/2) sum L^dag L of the no-jump branch; their Bures angles and
observable statistics use the Lindblad state, and their jump-count
statistics are exact (full counting statistics, no sampling).

The ML rows of one (model, state, tau) read one evaluation (initial
expectations, propagator and overlap), the MT rows of one (model, state,
window) one normalized path, and the open rows of one (model, state, tau)
one Lindblad state: a one-entry memo keyed by model identity (models are
immutable), the state's contents, and the remaining arguments
shares them across the rows of a time point.

Each produces a fidelity floor, a speed limit on the Bures angle, and a
scaled-variance (TUR-style) inequality; the classical Markov special case
adds a Renyi-divergence speed limit and an activity-based TUR.  All checks
come back as :class:`BoundReport` with lhs/rhs oriented so that
``slack = lhs - rhs >= 0`` means the inequality holds; preconditions that
fail dynamically (positivity, integration window, fidelity/weight domain)
flip ``applicable`` instead of raising.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, metrics
from .errors import (
    BadParameter,
    CommutatorViolation,
    DegenerateObservable,
    NonPositiveGamma,
)
from .models import ClassicalMarkovModel
from .propagation import (
    LindbladModel,
    NonHermitianModel,
    _normalized_density,
    evolve_lindblad,
    jump_count_moments,
    propagator,
    propagator_span,
)
from .states import DensityOperator, StateVector, as_density_matrix

SLACK_TOL = 1e-8            # a theorem violation is slack below this
WINDOW_TOL = 1e-7           # round-off allowance at the pi/2 window edge
DEFAULT_QUAD_STEPS = 400    # composite Simpson panels

Condition = tuple[str, bool]


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality, oriented so slack >= 0 means satisfied."""

    kind: str
    lhs: float
    rhs: float
    applicable: bool
    conditions: tuple[Condition, ...] = ()
    params: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs

    @property
    def satisfied(self) -> bool:
        return self.slack >= -SLACK_TOL

    def failed_conditions(self) -> list[str]:
        return [name for name, ok in self.conditions if not ok]


@dataclass(frozen=True)
class JumpCountObservable:
    """Marker selecting the jump-count observable for open-system TURs.

    By the vacuum convention the count has zero mean and zero spread at
    t = 0; its exact mean and variance at the end time come from full
    counting statistics (:func:`~nhbounds.propagation.jump_count_moments`).
    """


# ---------------------------------------------------------------------------
# shared helpers


def commutator_check(h, gamma) -> tuple[float, bool]:
    """Max-abs norm of [H, Gamma] and whether it passes the relative gate."""
    a = linalg.require_hermitian(h, "H")
    b = linalg.require_hermitian(gamma, "Gamma")
    norm = linalg.max_abs(a @ b - b @ a)
    gate = 1e-10 * (1.0 + linalg.max_abs(a) * linalg.max_abs(b))
    return norm, norm <= gate


def ground_energy(h) -> float:
    """Minimum eigenvalue of a Hermitian operator."""
    w, _ = linalg.herm_eig(h)
    return float(w[0])


def _state_key(state) -> tuple:
    """Contents of a state: equal keys mean the same state."""
    if isinstance(state, StateVector):
        arr = state.amplitudes
    elif isinstance(state, DensityOperator):
        arr = state.matrix
    else:
        arr = np.asarray(state)
    return arr.dtype.str, arr.shape, arr.tobytes()


def _memo_last(fn):
    """One-entry memo of ``fn(model, state, *args)``, shared by the rows of a
    time point.

    The key holds the model itself (compared by identity; models are
    immutable), the state's contents, and the other arguments, so
    a state mutated in place or a new model misses.  A call that raises
    stores nothing.
    """
    last: list = [None, None]

    @functools.wraps(fn)
    def memo(model, state, *args):
        key = (model, _state_key(state), args)
        if last[0] != key:
            last[:] = [key, fn(model, state, *args)]
        return last[1]

    return memo


def _expectation(op: np.ndarray, rho: np.ndarray) -> float:
    return float(np.trace(op @ rho).real)


def _simpson(values: np.ndarray, dt: float) -> tuple[float, float]:
    """Composite Simpson plus a conservative error estimate.

    ``values`` has n + 1 nodes with n divisible by 4.  The estimate combines
    the plain doubling difference |S_n - S_{n/2}| (an overestimate of the
    asymptotic truncation error of S_n by roughly a factor 15) with a
    round-off floor, so it stays an upper bound once truncation drops to
    machine precision.
    """
    n = len(values) - 1
    if n % 4 != 0:
        raise BadParameter("Simpson panel count must be divisible by 4")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    fine = dt / 3.0 * float(w @ values)
    half = values[::2]
    w2 = np.ones(n // 2 + 1)
    w2[1:-1:2] = 4.0
    w2[2:-1:2] = 2.0
    coarse = 2.0 * dt / 3.0 * float(w2 @ half)
    return fine, abs(fine - coarse) + 1e-13 * (1.0 + abs(fine))


def _require_time_independent(model: NonHermitianModel, what: str) -> None:
    if model.is_time_dependent:
        raise BadParameter(f"{what} requires a time-independent model")


def _require_commuting(model: NonHermitianModel) -> float:
    norm, ok = commutator_check(model.h, model.gamma)
    if not ok:
        raise CommutatorViolation(f"[H, Gamma] norm {norm:.3e} exceeds tolerance")
    w = np.linalg.eigvalsh(model.gamma)
    if w[0] < linalg.PSD_CLAMP:
        raise NonPositiveGamma(f"Gamma eigenvalue {w[0]:.3e} below tolerance")
    return norm


def _inv_sq_minus_one(x: float, scale: float = 1.0) -> float:
    """(scale / x)^2 - 1, reading +inf where x vanishes or the square overflows."""
    if x == 0.0:
        return math.inf
    q = scale / x
    return q * q - 1.0


def _expm1(x: float) -> float:
    """exp(x) - 1, reading +inf where it overflows."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def normalized_overlap(
    model: NonHermitianModel, state0, tau1: float, tau2: float, steps: int | None = None
) -> float:
    """|<psi~(tau1)|psi~(tau2)>| along the normalized (purified) trajectory."""
    rho0 = as_density_matrix(state0)
    m1 = propagator(model, tau1, steps)
    m2 = propagator(model, tau2, steps)
    _, tr1 = _normalized_density(m1, rho0)
    _, tr2 = _normalized_density(m2, rho0)
    return abs(complex(np.trace(linalg.dag(m1) @ m2 @ rho0))) / math.sqrt(tr1 * tr2)


@dataclass(eq=False, frozen=True)
class _MTPath:
    """What the MT rows read from one normalized path over [t1, t2].

    ``integral``/``quad_err``: Simpson integral of the generalized std of
    the full generator and its error estimate.  ``rho1``/``rho2`` and
    ``tr1``/``tr2``: normalized states and traces Tr[M rho0 M^dag] at the
    endpoints.  ``overlap``: |Tr[M(t1)^dag M(t2) rho0]|, unnormalized.
    """

    integral: float
    quad_err: float
    rho1: np.ndarray
    rho2: np.ndarray
    tr1: float
    tr2: float
    overlap: float


@_memo_last
def _mt_path(
    model: NonHermitianModel, rho0: np.ndarray, t1: float, t2: float, steps: int
) -> _MTPath:
    """Evaluate the normalized trajectory once at every quadrature node.

    A time-dependent model takes its end state from :func:`propagator`,
    whose midpoint product is finer than the span's.
    """
    if steps % 4 != 0 or steps <= 0:
        raise BadParameter("quadrature steps must be a positive multiple of 4")
    n = steps if t2 != t1 else 0
    times, mats = propagator_span(model, t1, t2, n)
    rho, tr = _normalized_density(mats, rho0)
    if model.is_time_dependent:
        m2 = propagator(model, t2)
        rho2, tr2 = _normalized_density(m2, rho0)
        gen = np.stack([model.full_generator(t) for t in times])
    else:
        m2, rho2, tr2 = mats[-1], rho[-1].copy(), tr[-1]
        gen = model.full_generator()
    integral, err = (
        _simpson(metrics.generalized_std(gen, rho), (t2 - t1) / n) if n else (0.0, 0.0)
    )
    rho1 = rho[0].copy()
    rho1.setflags(write=False)
    rho2.setflags(write=False)
    overlap = abs(complex(np.trace(linalg.dag(mats[0]) @ m2 @ rho0)))
    return _MTPath(integral, err, rho1, rho2, float(tr[0]), float(tr2), overlap)


def _scaled_ratio_sq(
    observable: np.ndarray, rho_a: np.ndarray, rho_b: np.ndarray
) -> tuple[float, dict]:
    """Squared mean-change-over-total-spread ratio of a Hermitian observable.

    Raises:
        DegenerateObservable: when both spreads vanish but the means differ
            (the ratio is infinite).
    """
    s_a = metrics.observable_stats(observable, DensityOperator(rho_a))
    s_b = metrics.observable_stats(observable, DensityOperator(rho_b))
    dm = s_b.mean - s_a.mean
    ds = s_b.std + s_a.std
    info = {
        "mean_start": s_a.mean,
        "mean_end": s_b.mean,
        "std_start": s_a.std,
        "std_end": s_b.std,
    }
    if ds <= 0.0:
        if abs(dm) <= 1e-14:
            return 0.0, info
        raise DegenerateObservable("zero spread at both times with distinct means")
    return (dm / ds) ** 2, info


# ---------------------------------------------------------------------------
# closed system, mean-based (ML) family


@dataclass(eq=False, frozen=True)
class _MLPoint:
    """What the ML rows read at one time point.

    ``rho0``: the initial density matrix.  ``m``: the propagator M to tau;
    only the closed rows normalize its state, so the open rows give numbers
    where that state would underflow.  ``overlap``: |Tr[M rho0]|.
    ``params``: the initial-expectation terms of the floor; each row copies
    them before adding its own keys.
    """

    rho0: np.ndarray
    m: np.ndarray
    overlap: float
    params: dict


@_memo_last
def _ml_point(model: NonHermitianModel, state0, tau: float) -> _MLPoint:
    """Evaluate the ML ingredients of one time point once.

    The open family calls this on ``no_jump_model()``, whose Gamma is half
    the jump-rate operator: there ``floor_raw`` is the open floor
    exp(-activity*tau/2) - tau(<H_S> - E_g) and ``overlap`` is the record
    overlap.
    """
    _require_time_independent(model, "the mean-based bound")
    comm_norm = _require_commuting(model)
    if tau < 0:
        raise BadParameter("tau must be nonnegative")
    rho0 = as_density_matrix(state0)
    mean_h = _expectation(model.h, rho0)
    mean_g = _expectation(model.gamma, rho0)
    e_g = ground_energy(model.h)
    params = {
        "tau": tau,
        "mean_h": mean_h,
        "mean_gamma": mean_g,
        "ground_energy": e_g,
        "floor_raw": math.exp(-mean_g * tau) - tau * (mean_h - e_g),
        "commutator_norm": comm_norm,
    }
    m = propagator(model, tau)
    rho0.setflags(write=False)
    m.setflags(write=False)
    return _MLPoint(rho0, m, abs(complex(np.trace(m @ rho0))), params)


def fid_ml(model: NonHermitianModel, state0, tau: float) -> BoundReport:
    """Measured normalized overlap against the mean-based fidelity floor
    [exp(-<Gamma> tau) - tau(<H> - E_g)] / ||psi(tau)||.

    Requires a time-independent model with commuting (H, Gamma) and PSD
    Gamma; expectations are taken in the initial state.
    """
    point = _ml_point(model, state0, tau)
    _, tr_tau = _normalized_density(point.m, point.rho0)
    tr0 = np.trace(point.rho0).real
    params = dict(point.params, norm_tau=math.sqrt(tr_tau))
    floor = params["floor_raw"] / params["norm_tau"]
    conditions = (
        ("commuting_h_gamma", True),
        ("gamma_psd", True),
        ("floor_positive", params["floor_raw"] > 0.0),
    )
    params["fidelity_floor"] = floor
    return BoundReport(
        kind="fid-ml",
        lhs=point.overlap / math.sqrt(tr0 * tr_tau),
        rhs=floor,
        applicable=True,
        conditions=conditions,
        params=params,
    )


def qsl_ml(model: NonHermitianModel, state0, tau: float) -> BoundReport:
    """Mean-based speed limit on the Bures angle between the endpoints.

    Full form: 1 + [tau(<H> - E_g) - exp(-<Gamma> tau)] / ||psi(tau)||
    bounds 2 sin^2(angle / 2) from above.  The simplified norm-free variant
    (valid under the positivity condition) is attached under
    ``params["simple"]`` together with the weakest linear-in-tau form and
    the geometric minimum-time estimate it implies.
    """
    point = _ml_point(model, state0, tau)
    rho_tau, tr_tau = _normalized_density(point.m, point.rho0)
    params = dict(point.params, norm_tau=math.sqrt(tr_tau))
    raw, mean_g = params["floor_raw"], params["mean_gamma"]
    de = params["mean_h"] - params["ground_energy"]
    lhs = 1.0 - raw / params["norm_tau"]
    angle = metrics.bures_angle(DensityOperator(point.rho0), DensityOperator(rho_tau))
    rhs = 2.0 * math.sin(angle / 2.0) ** 2
    positive = raw > 0.0
    rate_sum = de + mean_g
    params.update(
        {
            "bures_angle": angle,
            "simple": {
                "lhs": tau * de + 1.0 - math.exp(-mean_g * tau),
                "weak_lhs": tau * rate_sum,
                "rhs": rhs,
                "applicable": positive,
            },
            "tau_min_geometric": (rhs / rate_sum) if rate_sum > 0 else 0.0,
        }
    )
    return BoundReport(
        kind="qsl-ml",
        lhs=lhs,
        rhs=rhs,
        applicable=True,
        conditions=(
            ("commuting_h_gamma", True),
            ("gamma_psd", True),
            ("floor_positive", positive),
        ),
        params=params,
    )


def tur_ml(model: NonHermitianModel, state0, tau: float, observable) -> BoundReport:
    """Mean-based scaled-variance inequality for a Hermitian observable.

    Headline lhs is the tight, norm-weighted form
    ||psi(tau)||^2 / floor^2 - 1; the loose norm-free variant sits under
    ``params["loose"]``.  Applicable only while the floor is positive.
    """
    point = _ml_point(model, state0, tau)
    rho_tau, tr_tau = _normalized_density(point.m, point.rho0)
    params = dict(point.params, norm_tau=math.sqrt(tr_tau))
    raw = params["floor_raw"]
    ratio_sq, stats = _scaled_ratio_sq(
        linalg.require_hermitian(observable, "observable"), point.rho0, rho_tau
    )
    positive = raw > 0.0
    params.update(stats)
    params["loose"] = {"lhs": _inv_sq_minus_one(raw), "rhs": ratio_sq, "applicable": positive}
    return BoundReport(
        kind="tur-ml",
        lhs=_inv_sq_minus_one(raw, params["norm_tau"]),
        rhs=ratio_sq,
        applicable=positive,
        conditions=(
            ("commuting_h_gamma", True),
            ("gamma_psd", True),
            ("floor_positive", positive),
        ),
        params=params,
    )


# ---------------------------------------------------------------------------
# closed system, deviation-based (MT) family


def fid_mt(
    model: NonHermitianModel, state0, tau1: float, tau2: float, steps: int = DEFAULT_QUAD_STEPS
) -> BoundReport:
    """Measured normalized overlap against the deviation-based fidelity floor
    cos(integral of the generalized std over [tau1, tau2]).

    The cosine form is only a valid floor while the integral stays within
    [0, pi/2]; outside that window the report is flagged inapplicable.
    """
    path = _mt_path(model, as_density_matrix(state0), tau1, tau2, steps)
    integral, err = path.integral, path.quad_err
    in_window = integral <= math.pi / 2.0 + WINDOW_TOL
    return BoundReport(
        kind="fid-mt",
        lhs=path.overlap / math.sqrt(path.tr1 * path.tr2),
        rhs=math.cos(integral),
        applicable=in_window,
        conditions=(("window_le_half_pi", in_window),),
        params={"tau1": tau1, "tau2": tau2, "integral": integral, "quad_err": err},
    )


def qsl_mt(
    model: NonHermitianModel, state0, tau1: float, tau2: float, steps: int = DEFAULT_QUAD_STEPS
) -> BoundReport:
    """Deviation-based speed limit: the integrated std bounds the Bures angle.

    Also emits the implied minimum time ``tau_min`` = angle / (time-averaged
    std) in the params.
    """
    path = _mt_path(model, as_density_matrix(state0), tau1, tau2, steps)
    integral, err = path.integral, path.quad_err
    angle = metrics.bures_angle(DensityOperator(path.rho1), DensityOperator(path.rho2))
    in_window = integral <= math.pi / 2.0 + WINDOW_TOL
    if integral > 0.0:
        tau_min = angle * (tau2 - tau1) / integral
    else:
        tau_min = 0.0 if angle == 0.0 else float("inf")
    return BoundReport(
        kind="qsl-mt",
        lhs=integral,
        rhs=angle,
        applicable=in_window,
        conditions=(("window_le_half_pi", in_window),),
        params={
            "tau1": tau1,
            "tau2": tau2,
            "quad_err": err,
            "tau_min": tau_min,
            "mean_std": integral / (tau2 - tau1) if tau2 > tau1 else 0.0,
        },
    )


def energy_time_check(model: NonHermitianModel, state0, t: float, observable) -> BoundReport:
    """Energy-time relation: spread(C) * spread(generator) >= |d<C>/dt| / 2.

    The time derivative is exact along the normalized trajectory:
    d<C>/dt = i<[H, C]> - <{C, Gamma}> + 2<C><Gamma>, with H and Gamma
    taken at t.
    """
    obs = linalg.require_hermitian(observable, "observable")
    rho_t, _ = _normalized_density(propagator(model, t), as_density_matrix(state0))
    return _energy_time(model, rho_t, t, obs)


def _energy_time(model: NonHermitianModel, rho_t: np.ndarray, t: float, obs) -> BoundReport:
    """:func:`energy_time_check` in the normalized state ``rho_t`` at t."""
    h, g = model.parts(t)
    s_c = metrics.observable_stats(obs, DensityOperator(rho_t))
    std_gen = metrics.generalized_std(h - 1j * g, rho_t)
    flow = 1j * (h @ obs - obs @ h) - (obs @ g + g @ obs)
    deriv = _expectation(flow, rho_t) + 2.0 * s_c.mean * _expectation(g, rho_t)
    return BoundReport(
        kind="energy-time",
        lhs=s_c.std * std_gen,
        rhs=abs(deriv) / 2.0,
        applicable=True,
        conditions=(),
        params={"t": t, "observable_std": s_c.std, "generator_std": std_gen,
                "mean_derivative": deriv},
    )


def tur_mt(
    model: NonHermitianModel,
    state0,
    tau1: float,
    tau2: float,
    observable,
    steps: int = DEFAULT_QUAD_STEPS,
) -> BoundReport:
    """Deviation-based scaled-variance inequality tan^2(integral) >= ratio^2.

    Requires the integral strictly inside the pi/2 window.  The short-time
    energy-time variant evaluated at tau2 is attached under
    ``params["energy_time"]``.
    """
    obs = linalg.require_hermitian(observable, "observable")
    path = _mt_path(model, as_density_matrix(state0), tau1, tau2, steps)
    integral, err = path.integral, path.quad_err
    ratio_sq, stats = _scaled_ratio_sq(obs, path.rho1, path.rho2)
    in_window = integral < math.pi / 2.0
    lhs = math.tan(integral) ** 2 if in_window else float("inf")
    params = {"tau1": tau1, "tau2": tau2, "quad_err": err, "integral": integral}
    params.update(stats)
    et = _energy_time(model, path.rho2, tau2, obs)
    params["energy_time"] = {"lhs": et.lhs, "rhs": et.rhs, "slack": et.slack}
    return BoundReport(
        kind="tur-mt",
        lhs=lhs,
        rhs=ratio_sq,
        applicable=in_window,
        conditions=(("window_lt_half_pi", in_window),),
        params=params,
    )


# ---------------------------------------------------------------------------
# open system (continuous measurement)


def dynamical_activity(model: LindbladModel, state0) -> float:
    """Expected jump rate Tr[sum L^dag L rho] in the given state."""
    rho = as_density_matrix(state0)
    return _expectation(model.jump_rate_operator(), rho)


def open_overlap(model: LindbladModel, state0, tau: float) -> float:
    """|<Psi(0)|Psi(tau)>| of the measurement record state: |Tr[M rho0]|
    with M = exp(-i H_eff tau) the propagator of ``model.no_jump_model()``."""
    rho0 = as_density_matrix(state0)
    return abs(complex(np.trace(propagator(model.no_jump_model(), tau) @ rho0)))


def fid_ml_open(model: LindbladModel, state0, tau: float) -> BoundReport:
    """Measured record-state overlap against the open mean-based floor
    exp(-activity*tau/2) - tau(<H_S> - E_g).

    Requires H_S to commute with the jump-rate operator (satisfied by the
    dephasing model, the refrigerator, and every classical embedding).
    """
    point = _ml_point(model.no_jump_model(), state0, tau)
    params = dict(point.params)
    floor = params["floor_raw"]
    return BoundReport(
        kind="fid-ml-open",
        lhs=point.overlap,
        rhs=floor,
        applicable=True,
        conditions=(
            ("commuting_hs_jumps", True),
            ("floor_positive", floor > 0.0),
        ),
        params=params,
    )


def qsl_ml_open(model: LindbladModel, state0, tau: float) -> BoundReport:
    """Open mean-based speed limit against the Bures angle of the Lindblad
    endpoints (the averaged, unconditioned evolution)."""
    point = _ml_point(model.no_jump_model(), state0, tau)
    params = dict(point.params)
    floor = params["floor_raw"]
    rho0 = point.rho0
    angle = metrics.bures_angle(DensityOperator(rho0), _lindblad_state(model, rho0, tau))
    params["bures_angle"] = angle
    return BoundReport(
        kind="qsl-ml-open",
        lhs=1.0 - floor,
        rhs=2.0 * math.sin(angle / 2.0) ** 2,
        applicable=True,
        conditions=(
            ("commuting_hs_jumps", True),
            ("floor_positive", floor > 0.0),
        ),
        params=params,
    )


@_memo_last
def _lindblad_state(model: LindbladModel, rho0: np.ndarray, tau: float) -> DensityOperator:
    """The Lindblad state at ``tau``, read-only: every open row of a time
    point reads this one."""
    out = evolve_lindblad(model, DensityOperator(rho0), tau)
    out.matrix.setflags(write=False)
    return out


def _jump_count_ratio_sq(model: LindbladModel, rho0: np.ndarray, tau: float) -> tuple[float, dict]:
    mean, var = jump_count_moments(model, rho0, tau)
    if var <= 0.0:
        ratio_sq = 0.0 if abs(mean) <= 1e-14 else float("inf")
    else:
        ratio_sq = mean**2 / var
    return ratio_sq, {"jump_count": {"mean": mean, "var": var}}


def _open_ratio_sq(model: LindbladModel, state0, tau: float, observable):
    rho0 = as_density_matrix(state0)
    if isinstance(observable, JumpCountObservable):
        return _jump_count_ratio_sq(model, rho0, tau)
    obs = linalg.require_hermitian(observable, "observable")
    return _scaled_ratio_sq(obs, rho0, _lindblad_state(model, rho0, tau).matrix)


def tur_ml_open(model: LindbladModel, state0, tau: float, observable) -> BoundReport:
    """Open mean-based scaled-variance inequality 1/floor^2 - 1 >= ratio^2.

    ``observable`` is either a Hermitian system operator (statistics from
    the Lindblad state) or :class:`JumpCountObservable` (the exact mean
    and variance of the jump count from full counting statistics, attached
    under ``params["jump_count"]``).  For
    classical embeddings (H_S = 0) the lhs reduces to
    exp(activity * tau) - 1; that specialized value is attached in params.

    ``state0`` is a :class:`StateVector`, a :class:`DensityOperator` or a
    raw density matrix, for either observable kind; a raw 1-D array is
    rejected, as it is for every row kind.
    """
    params = dict(_ml_point(model.no_jump_model(), state0, tau).params)
    floor = params["floor_raw"]
    positive = floor > 0.0
    ratio_sq, stats = _open_ratio_sq(model, state0, tau, observable)
    params.update(stats)
    if linalg.max_abs(model.h_s) <= 1e-12:
        # the no-jump Gamma is half the jump-rate operator
        params["classical_form_lhs"] = _expm1(2.0 * params["mean_gamma"] * tau)
    return BoundReport(
        kind="tur-ml-open",
        lhs=_inv_sq_minus_one(floor),
        rhs=ratio_sq,
        applicable=positive,
        conditions=(
            ("commuting_hs_jumps", True),
            ("floor_positive", positive),
        ),
        params=params,
    )


def fid_mt_open(
    model: LindbladModel, state0, tau: float, steps: int = DEFAULT_QUAD_STEPS
) -> BoundReport:
    """Measured record-state overlap against the open deviation-based floor
    sqrt(Z(tau)) * cos(integrated H_eff std).

    The no-jump conditioned state is exactly the normalized trajectory of
    ``model.no_jump_model()``, so the closed-system path is read with the
    full (non-Hermitian) effective generator.  Its trace at tau is the
    survival weight Z, and its overlap is the record overlap |Tr[M(tau) rho0]|.
    """
    path = _mt_path(model.no_jump_model(), as_density_matrix(state0), 0.0, tau, steps)
    integral, err, z = path.integral, path.quad_err, path.tr2
    in_window = integral <= math.pi / 2.0 + WINDOW_TOL
    return BoundReport(
        kind="fid-mt-open",
        lhs=path.overlap,
        rhs=math.sqrt(z) * math.cos(integral),
        applicable=in_window,
        conditions=(("window_le_half_pi", in_window),),
        params={"tau": tau, "integral": integral, "survival_weight": z, "quad_err": err},
    )


def qsl_mt_open(
    model: LindbladModel, state0, tau: float, steps: int = DEFAULT_QUAD_STEPS
) -> BoundReport:
    """Open deviation-based speed limit.

    lhs is the integrated no-jump H_eff std; rhs is
    arccos(sqrt(Fid(rho_S(0), rho_S(tau)) / Z(tau))), defined only while the
    fidelity does not exceed the survival weight.  Outside that domain the
    report is flagged inapplicable and rhs is NaN.  The underlying
    pre-monotonicity rhs (arccos of the normalized no-jump overlap) is
    always attached in params.
    """
    rho0 = as_density_matrix(state0)
    path = _mt_path(model.no_jump_model(), rho0, 0.0, tau, steps)
    integral, err, z = path.integral, path.quad_err, path.tr2
    fid = metrics.fidelity(DensityOperator(rho0), _lindblad_state(model, rho0, tau))
    ratio = fid / z
    fid_ok = ratio <= 1.0 + 1e-10
    rhs = float(np.arccos(np.clip(math.sqrt(min(ratio, 1.0)), 0.0, 1.0))) if fid_ok else float("nan")
    raw_overlap = path.overlap / math.sqrt(z)
    underlying = float(np.arccos(np.clip(raw_overlap, 0.0, 1.0)))
    return BoundReport(
        kind="qsl-mt-open",
        lhs=integral,
        rhs=rhs,
        applicable=fid_ok,
        conditions=(("fid_le_z", fid_ok),),
        params={
            "tau": tau,
            "survival_weight": z,
            "fidelity": fid,
            "quad_err": err,
            "underlying_rhs": underlying,
        },
    )


def tur_mt_open(
    model: LindbladModel,
    state0,
    tau: float,
    observable,
    steps: int = DEFAULT_QUAD_STEPS,
) -> BoundReport:
    """Open deviation-based scaled-variance inequality.

    lhs = 1 / (Z(tau) cos^2(integral)) - 1.  System-operator statistics are
    taken against the Lindblad state (the record-state convention); the
    pseudo-state alternative is noted in params.  Jump-count statistics work
    as in :func:`tur_ml_open`.
    """
    path = _mt_path(model.no_jump_model(), as_density_matrix(state0), 0.0, tau, steps)
    integral, err, z = path.integral, path.quad_err, path.tr2
    in_window = integral < math.pi / 2.0
    lhs = (1.0 / (z * math.cos(integral) ** 2) - 1.0) if in_window else float("inf")
    ratio_sq, stats = _open_ratio_sq(model, state0, tau, observable)
    params = {
        "tau": tau,
        "integral": integral,
        "survival_weight": z,
        "quad_err": err,
        "observable_convention": "lindblad-state",
    }
    params.update(stats)
    return BoundReport(
        kind="tur-mt-open",
        lhs=lhs,
        rhs=ratio_sq,
        applicable=in_window,
        conditions=(("window_lt_half_pi", in_window),),
        params=params,
    )


# ---------------------------------------------------------------------------
# classical Markov special case


def qsl_classical(chain: ClassicalMarkovModel, tau: float) -> BoundReport:
    """Classical speed limit: activity * tau >= D_{1/2}(P(0) || P(tau))."""
    if tau < 0:
        raise BadParameter("tau must be nonnegative")
    p_tau = chain.propagate(tau)
    activity = chain.activity()
    div = metrics.renyi_half(chain.p0 / chain.p0.sum(), p_tau / p_tau.sum())
    return BoundReport(
        kind="qsl-classical",
        lhs=activity * tau,
        rhs=div,
        applicable=True,
        conditions=(),
        params={"tau": tau, "activity": activity},
    )


def tur_classical(chain: ClassicalMarkovModel, tau: float, observable) -> BoundReport:
    """Classical scaled-variance inequality exp(activity * tau) - 1 >= ratio^2.

    ``observable`` is a real vector of per-state values; moments are taken
    against P(0) and P(tau).
    """
    c = np.asarray(observable, dtype=float).reshape(-1)
    if c.size != chain.n_states:
        raise BadParameter("observable length differs from the state count")
    pt = chain.propagate(tau)
    ratio_sq, stats = _scaled_ratio_sq(
        np.diag(c), np.diag(chain.p0 / chain.p0.sum()), np.diag(pt / pt.sum())
    )
    activity = chain.activity()
    return BoundReport(
        kind="tur-classical",
        lhs=_expm1(activity * tau),
        rhs=ratio_sq,
        applicable=True,
        conditions=(),
        params={"tau": tau, "activity": activity, **stats},
    )
