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

Each produces a fidelity floor, a speed limit on the Bures angle, and a
scaled-variance (TUR-style) inequality; the classical Markov special case
adds a Renyi-divergence speed limit and an activity-based TUR.  All checks
come back as :class:`BoundReport` with lhs/rhs oriented so that
``slack = lhs - rhs >= 0`` means the inequality holds; preconditions that
fail dynamically (positivity, integration window, fidelity/weight domain)
flip ``applicable`` instead of raising.

Every row comes from :func:`sweep`, which evaluates bound groups along a
time grid; each public row function is a one-point sweep.  A sweep does the
model checks and converts the state and observable once; each time point is
one ``_TimePoint`` (ML propagator, MT path, Lindblad state, fidelity,
jump-count moments), each part computed at most once, on first use, and
read by every row of that time point.  Sweeps, and so public calls, share
nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, metrics
from .errors import BadParameter, CommutatorViolation, DegenerateObservable, QuadratureDiverged
from .models import ClassicalMarkovModel, make_classical
from .propagation import (
    DEFAULT_TD_STEPS,
    LindbladModel,
    NonHermitianModel,
    _evolve_lindblad,
    _jump_count_moments,
    _normalized_density,
    _propagators,
    propagator,
)
from .states import as_density_matrix

SLACK_TOL = 1e-8            # a theorem violation is slack below this
WINDOW_TOL = 1e-7           # round-off allowance at the pi/2 window edge
DEFAULT_QUAD_STEPS = 15     # minimum MT quadrature nodes: one G7/K15 interval
_QUAD_RTOL = 1e-13          # relative accuracy the adaptive MT quadrature aims at
_MAX_SPLITS = 1000          # bisections before the quadrature gives up
_EPS = float(np.finfo(float).eps)

# QUADPACK's qk15 rule on [-1, 1] (Piessens et al., 1983), nodes ascending:
# the 15 Kronrod nodes and weights, and the weights of the 7-point Gauss rule
# on the odd-indexed nodes.
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649)
_WK0 = 0.209482141084727828012999174891714
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975)
_WG0 = 0.417959183673469387755102040816327
_K15_X = np.array([*(-x for x in _XK), 0.0, *_XK[::-1]])
_K15_W = np.array([*_WK, _WK0, *_WK[::-1]])
_G7_W = np.array([*_WG, _WG0, *_WG[::-1]])

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


def _expectation(op: np.ndarray, rho: np.ndarray) -> float:
    return float(np.trace(op @ rho).real)


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


# ---------------------------------------------------------------------------
# one time point


@dataclass(eq=False, frozen=True)
class _MLPoint:
    """What the ML rows read at one time point.

    ``m``: the propagator M to tau; only the closed rows normalize its
    state, so the open rows give numbers where that state would underflow.
    ``overlap``: |Tr[M rho0]|.  ``params``: the terms of the floor; each row
    copies them before adding its own keys.  The open family reads this on
    ``no_jump_model()``, whose Gamma is half the jump-rate operator: there
    ``floor_raw`` is the open floor exp(-activity*tau/2) - tau(<H_S> - E_g)
    and ``overlap`` is the record overlap.
    """

    m: np.ndarray
    overlap: float
    params: dict


@dataclass(eq=False, frozen=True)
class _MTPath:
    """What the MT rows read from one normalized path over [t1, t2].

    ``integral``/``quad_err``: adaptive G7/K15 integral of the generalized
    std of the full generator and the sum of its accepted intervals' error
    estimates.  ``rho1``/``rho2`` and ``tr1``/``tr2``: normalized states and
    traces Tr[M rho0 M^dag] at the endpoints.  ``overlap``:
    |Tr[M(t1)^dag M(t2) rho0]|, unnormalized.
    """

    integral: float
    quad_err: float
    rho1: np.ndarray
    rho2: np.ndarray
    tr1: float
    tr2: float
    overlap: float


def _path_at(model: NonHermitianModel, rho0: np.ndarray, times: np.ndarray, max_step: float):
    """Propagators, normalized states and traces at the sorted ``times``, and
    the generalized std of the full generator in each state.

    Raises:
        NormUnderflow: if a trace underflows (see ``_normalized_density``).
    """
    mats = _propagators(model, times, max_step)
    rho, tr = _normalized_density(mats, rho0)
    gen = (np.stack([model.full_generator(t) for t in times]) if model.is_time_dependent
           else model.full_generator())
    return mats, rho, tr, metrics.generalized_std(gen, rho)


def _kronrod_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 15 Kronrod nodes of each interval [a, b], one row per interval."""
    return (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _K15_X


def _mt_path(
    model: NonHermitianModel, rho0: np.ndarray, t1: float, t2: float, steps: int
) -> _MTPath:
    """Integrate the generalized std along the normalized trajectory by
    adaptive G7/K15 quadrature (QUADPACK's QAG).

    ``steps`` is a minimum node count: [t1, t2] starts as ceil(steps / 15)
    equal intervals.  Each round evaluates the nodes of all its intervals,
    in the first round with t1 and t2, through one :func:`_propagators` call,
    and bisects every interval whose estimate (QUADPACK's qk15, floored at
    50 eps (|K| + (b - a) ||G||_1)) exceeds both its share (b - a)/(t2 - t1)
    of ``_QUAD_RTOL`` max(1, |integral|) and the std's own round-off near an
    eigenstate.  ``quad_err`` sums the accepted estimates.

    Raises:
        QuadratureDiverged: when refinement needs more than ``_MAX_SPLITS``
            bisections.
    """
    if steps < 1:
        raise BadParameter("quadrature steps must be a positive integer")
    if not 0 <= t1 <= t2:
        raise BadParameter("need 0 <= t1 <= t2")
    n = -(-int(steps) // 15) if t2 > t1 else 0
    edges = np.linspace(t1, t2, n + 1)
    a, b = edges[:-1], edges[1:]
    max_step = t2 / DEFAULT_TD_STEPS
    ends = np.array([t1, t2])
    mats, rho, tr, std = _path_at(
        model, rho0, np.insert(ends, 1, _kronrod_times(a, b).ravel()), max_step
    )
    f = std[1:-1].reshape(n, 15)
    gnorm = max(float(np.abs(model.full_generator(t)).sum(axis=0).max()) for t in ends)
    dv = 16.0 * _EPS * gnorm**2
    integral = err = 0.0
    splits = 0
    while n:
        h = 0.5 * (b - a)
        kron = h * (f @ _K15_W)
        diff = np.abs(kron - h * (f[:, 1::2] @ _G7_W))
        asc = h * (np.abs(f - 0.5 * (f @ _K15_W)[:, None]) @ _K15_W)
        with np.errstate(divide="ignore", invalid="ignore"):
            est = np.where(asc > 0.0, asc * np.minimum(1.0, (200.0 * diff / asc) ** 1.5), diff)
            noise = h * (np.minimum(math.sqrt(dv), dv / (2.0 * f)) @ _K15_W)
        floor = 50.0 * _EPS * (np.abs(kron) + (b - a) * gnorm)
        est = np.maximum(est, floor)
        share = (b - a) / (t2 - t1) * _QUAD_RTOL * max(1.0, abs(integral + kron.sum()))
        done = (est <= share) | (est <= np.maximum(floor, noise))
        integral += float(kron[done].sum())
        err += float(est[done].sum())
        a, b = a[~done], b[~done]
        n = a.size
        if not n:
            break
        splits += n
        if splits > _MAX_SPLITS:
            raise QuadratureDiverged(
                f"quadrature diverged: the MT integral over [{t1!r}, {t2!r}] needs more "
                f"than {_MAX_SPLITS} bisections"
            )
        mid = 0.5 * (a + b)
        a, b = np.stack([a, mid], axis=1).ravel(), np.stack([mid, b], axis=1).ravel()
        f = _path_at(model, rho0, _kronrod_times(a, b).ravel(), max_step)[3].reshape(-1, 15)
    rho1, rho2 = rho[0].copy(), rho[-1].copy()
    rho1.setflags(write=False)
    rho2.setflags(write=False)
    overlap = abs(complex(np.trace(linalg.dag(mats[0]) @ mats[-1] @ rho0)))
    return _MTPath(integral, err, rho1, rho2, float(tr[0]), float(tr[-1]), overlap)


class _Sweep:
    """What every time point of one sweep shares: the quantum ``model`` (a
    chain's embedding where an open group needs one), the ``closed`` model
    the ML and MT rows read, the ``chain``, the read-only initial state
    ``rho0``, the MT window ``start`` and node count ``steps``, and the
    ML floor's model checks and initial-state terms, taken on first use."""

    def __init__(self, model, chain, rho0, start: float, steps: int):
        self.model, self.chain, self.rho0, self.start, self.steps = model, chain, rho0, start, steps
        self.closed = model.no_jump_model() if isinstance(model, LindbladModel) else model

    @functools.cached_property
    def ml_terms(self) -> dict:
        model, rho0 = self.closed, self.rho0
        if model.is_time_dependent:
            raise BadParameter("the mean-based bound requires a time-independent model")
        norm, ok = commutator_check(model.h, model.gamma)  # the model checks Gamma is PSD
        if not ok:
            raise CommutatorViolation(f"[H, Gamma] norm {norm:.3e} exceeds tolerance")
        return {"mean_h": _expectation(model.h, rho0),
                "mean_gamma": _expectation(model.gamma, rho0),
                "ground_energy": ground_energy(model.h), "commutator_norm": norm}


class _TimePoint:
    """The one evaluation of a sweep at time ``tau`` that every row reads.

    ``ml`` is taken at ``tau`` and ``mt`` over [``sweep.start``, ``tau``],
    both on ``sweep.closed``.  ``lindblad`` is the Lindblad state at
    ``tau``, ``fidelity`` its fidelity to the initial state, and
    ``jump_count`` the exact mean and variance of the jump count.  Each part
    is computed at most once, on first use, so a family pays only for what
    it reads.
    """

    def __init__(self, sweep: _Sweep, tau: float):
        self.sweep, self.tau = sweep, tau

    @functools.cached_property
    def ml(self) -> _MLPoint:
        sw, tau = self.sweep, self.tau
        terms = sw.ml_terms
        m = propagator(sw.closed, tau)  # raises for a negative tau
        m.setflags(write=False)
        de = terms["mean_h"] - terms["ground_energy"]
        raw = math.exp(-terms["mean_gamma"] * tau) - tau * de
        return _MLPoint(m, abs(complex(np.trace(m @ sw.rho0))),
                        {"tau": tau, **terms, "floor_raw": raw})

    @functools.cached_property
    def mt(self) -> _MTPath:
        sw = self.sweep
        return _mt_path(sw.closed, sw.rho0, sw.start, self.tau, sw.steps)

    @functools.cached_property
    def lindblad(self) -> np.ndarray:
        return _evolve_lindblad(self.sweep.model, self.sweep.rho0, self.tau)

    @functools.cached_property
    def fidelity(self) -> float:
        return metrics.fidelity(self.sweep.rho0, self.lindblad)

    @functools.cached_property
    def jump_count(self) -> tuple[float, float]:
        return _jump_count_moments(self.sweep.model, self.sweep.rho0, self.tau)


def _scaled_ratio_sq(
    observable: np.ndarray, rho_a: np.ndarray, rho_b: np.ndarray
) -> tuple[float, dict]:
    """Squared mean-change-over-total-spread ratio of a Hermitian observable
    between the unit-trace density matrices ``rho_a`` and ``rho_b``.

    Raises:
        DegenerateObservable: when both spreads vanish but the means differ
            (the ratio is infinite).
    """
    s_a = metrics.observable_stats(observable, rho_a)
    s_b = metrics.observable_stats(observable, rho_b)
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


def _ml_rows(point: _TimePoint, observable) -> list[BoundReport]:
    """fid-ml, qsl-ml, qsl-ml-simple and, given an observable, tur-ml at
    ``point.tau``."""
    ml, rho0, tau = point.ml, point.sweep.rho0, point.tau
    rho_tau, tr_tau = _normalized_density(ml.m, rho0)
    norm_tau = math.sqrt(tr_tau)
    params = dict(ml.params, norm_tau=norm_tau)
    raw, mean_g = params["floor_raw"], params["mean_gamma"]
    positive = raw > 0.0
    conditions = (("commuting_h_gamma", True), ("gamma_psd", True), ("floor_positive", positive))
    floor = raw / norm_tau
    rows = [BoundReport(
        "fid-ml", ml.overlap / math.sqrt(np.trace(rho0).real * tr_tau), floor, True,
        conditions, dict(params, fidelity_floor=floor),
    )]
    de = params["mean_h"] - params["ground_energy"]
    angle = metrics.bures_angle(rho0, rho_tau)
    rhs = 2.0 * math.sin(angle / 2.0) ** 2
    rate_sum = de + mean_g
    simple = {
        "lhs": tau * de + 1.0 - math.exp(-mean_g * tau),
        "weak_lhs": tau * rate_sum,
        "rhs": rhs,
        "applicable": positive,
    }
    rows.append(BoundReport("qsl-ml", 1.0 - floor, rhs, True, conditions, dict(
        params, bures_angle=angle, simple=simple,
        tau_min_geometric=(rhs / rate_sum) if rate_sum > 0 else 0.0,
    )))
    rows.append(BoundReport("qsl-ml-simple", simple["lhs"], rhs, positive, (),
                            {"tau": tau, "weak_lhs": simple["weak_lhs"]}))
    if observable is not None:
        ratio_sq, stats = _scaled_ratio_sq(observable, rho0, rho_tau)
        loose = {"lhs": _inv_sq_minus_one(raw), "rhs": ratio_sq, "applicable": positive}
        rows.append(BoundReport(
            "tur-ml", _inv_sq_minus_one(raw, norm_tau), ratio_sq, positive, conditions,
            dict(params, **stats, loose=loose),
        ))
    return rows


def fid_ml(model: NonHermitianModel, state0, tau: float) -> BoundReport:
    """Measured normalized overlap against the mean-based fidelity floor
    [exp(-<Gamma> tau) - tau(<H> - E_g)] / ||psi(tau)||.

    Requires a time-independent model with commuting (H, Gamma) and PSD
    Gamma; expectations are taken in the initial state.
    """
    return _row("fid-ml", model, state0, tau)


def qsl_ml(model: NonHermitianModel, state0, tau: float) -> BoundReport:
    """Mean-based speed limit on the Bures angle between the endpoints.

    Full form: 1 + [tau(<H> - E_g) - exp(-<Gamma> tau)] / ||psi(tau)||
    bounds 2 sin^2(angle / 2) from above.  The simplified norm-free variant
    (valid under the positivity condition) is attached under
    ``params["simple"]`` together with the weakest linear-in-tau form and
    the geometric minimum-time estimate it implies.
    """
    return _row("qsl-ml", model, state0, tau)


def tur_ml(model: NonHermitianModel, state0, tau: float, observable) -> BoundReport:
    """Mean-based scaled-variance inequality for a Hermitian observable.

    Headline lhs is the tight, norm-weighted form
    ||psi(tau)||^2 / floor^2 - 1; the loose norm-free variant sits under
    ``params["loose"]``.  Applicable only while the floor is positive.
    """
    return _row("tur-ml", model, state0, tau, observable)


# ---------------------------------------------------------------------------
# closed system, deviation-based (MT) family


def _mt_rows(point: _TimePoint, observable) -> list[BoundReport]:
    """fid-mt, qsl-mt and, given an observable, tur-mt and energy-time over
    [``point.sweep.start``, ``point.tau``]."""
    path, tau1, tau2 = point.mt, point.sweep.start, point.tau
    integral, err = path.integral, path.quad_err
    in_window = integral <= math.pi / 2.0 + WINDOW_TOL
    conditions = (("window_le_half_pi", in_window),)
    angle = metrics.bures_angle(path.rho1, path.rho2)
    if integral > 0.0:
        tau_min = angle * (tau2 - tau1) / integral
    else:
        tau_min = 0.0 if angle == 0.0 else float("inf")
    rows = [
        BoundReport(
            "fid-mt", path.overlap / math.sqrt(path.tr1 * path.tr2), math.cos(integral),
            in_window, conditions,
            {"tau1": tau1, "tau2": tau2, "integral": integral, "quad_err": err},
        ),
        BoundReport("qsl-mt", integral, angle, in_window, conditions, {
            "tau1": tau1,
            "tau2": tau2,
            "quad_err": err,
            "tau_min": tau_min,
            "mean_std": integral / (tau2 - tau1) if tau2 > tau1 else 0.0,
        }),
    ]
    if observable is not None:
        ratio_sq, stats = _scaled_ratio_sq(observable, path.rho1, path.rho2)
        inside = integral < math.pi / 2.0
        et = _energy_time(point.sweep.model, path.rho2, tau2, observable)
        rows.append(BoundReport(
            "tur-mt", math.tan(integral) ** 2 if inside else float("inf"), ratio_sq, inside,
            (("window_lt_half_pi", inside),),
            {"tau1": tau1, "tau2": tau2, "quad_err": err, "integral": integral, **stats,
             "energy_time": {"lhs": et.lhs, "rhs": et.rhs, "slack": et.slack}},
        ))
        rows.append(et)
    return rows


def fid_mt(
    model: NonHermitianModel, state0, tau1: float, tau2: float, steps: int = DEFAULT_QUAD_STEPS
) -> BoundReport:
    """Measured normalized overlap against the deviation-based fidelity floor
    cos(integral of the generalized std over [tau1, tau2]).

    The cosine form is only a valid floor while the integral stays within
    [0, pi/2]; outside that window the report is flagged inapplicable.
    """
    return _row("fid-mt", model, state0, tau2, start=tau1, steps=steps)


def qsl_mt(
    model: NonHermitianModel, state0, tau1: float, tau2: float, steps: int = DEFAULT_QUAD_STEPS
) -> BoundReport:
    """Deviation-based speed limit: the integrated std bounds the Bures angle.

    Also emits the implied minimum time ``tau_min`` = angle / (time-averaged
    std) in the params.
    """
    return _row("qsl-mt", model, state0, tau2, start=tau1, steps=steps)


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
    s_c = metrics.observable_stats(obs, rho_t)
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
    return _row("tur-mt", model, state0, tau2, observable, start=tau1, steps=steps)


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


def _open_ratio_sq(point: _TimePoint, observable) -> tuple[float, dict]:
    """The squared scaled ratio of an open TUR: exact jump-count moments, or
    a system operator's statistics in the Lindblad state."""
    if isinstance(observable, JumpCountObservable):
        mean, var = point.jump_count
        if var <= 0.0:
            ratio_sq = 0.0 if abs(mean) <= 1e-14 else float("inf")
        else:
            ratio_sq = mean**2 / var
        return ratio_sq, {"jump_count": {"mean": mean, "var": var}}
    return _scaled_ratio_sq(observable, point.sweep.rho0, point.lindblad)


def _ml_open_rows(point: _TimePoint, observable) -> list[BoundReport]:
    """fid-ml-open, qsl-ml-open and, given an observable, tur-ml-open at
    ``point.tau``."""
    ml = point.ml
    floor = ml.params["floor_raw"]
    positive = floor > 0.0
    conditions = (("commuting_hs_jumps", True), ("floor_positive", positive))
    angle = metrics._fidelity_angle(point.fidelity)
    rows = [
        BoundReport("fid-ml-open", ml.overlap, floor, True, conditions, dict(ml.params)),
        BoundReport("qsl-ml-open", 1.0 - floor, 2.0 * math.sin(angle / 2.0) ** 2, True,
                    conditions, dict(ml.params, bures_angle=angle)),
    ]
    if observable is not None:
        ratio_sq, stats = _open_ratio_sq(point, observable)
        params = dict(ml.params, **stats)
        if linalg.max_abs(point.sweep.model.h_s) <= 1e-12:
            # the no-jump Gamma is half the jump-rate operator
            params["classical_form_lhs"] = _expm1(2.0 * params["mean_gamma"] * point.tau)
        rows.append(BoundReport(
            "tur-ml-open", _inv_sq_minus_one(floor), ratio_sq, positive, conditions, params
        ))
    return rows


def fid_ml_open(model: LindbladModel, state0, tau: float) -> BoundReport:
    """Measured record-state overlap against the open mean-based floor
    exp(-activity*tau/2) - tau(<H_S> - E_g).

    Requires H_S to commute with the jump-rate operator (satisfied by the
    dephasing model, the refrigerator, and every classical embedding).
    """
    return _row("fid-ml-open", model, state0, tau)


def qsl_ml_open(model: LindbladModel, state0, tau: float) -> BoundReport:
    """Open mean-based speed limit against the Bures angle of the Lindblad
    endpoints (the averaged, unconditioned evolution)."""
    return _row("qsl-ml-open", model, state0, tau)


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
    return _row("tur-ml-open", model, state0, tau, observable)


def _mt_open_rows(point: _TimePoint, observable) -> list[BoundReport]:
    """fid-mt-open, qsl-mt-open and, given an observable, tur-mt-open over
    [0, ``point.tau``]."""
    path, tau = point.mt, point.tau
    integral, err, z = path.integral, path.quad_err, path.tr2
    in_window = integral <= math.pi / 2.0 + WINDOW_TOL
    fid = point.fidelity
    ratio = fid / z
    fid_ok = ratio <= 1.0 + 1e-10
    rhs = float(np.arccos(np.clip(math.sqrt(min(ratio, 1.0)), 0.0, 1.0))) if fid_ok else float("nan")
    raw_overlap = path.overlap / math.sqrt(z)
    rows = [
        BoundReport(
            "fid-mt-open", path.overlap, math.sqrt(z) * math.cos(integral), in_window,
            (("window_le_half_pi", in_window),),
            {"tau": tau, "integral": integral, "survival_weight": z, "quad_err": err},
        ),
        BoundReport("qsl-mt-open", integral, rhs, fid_ok, (("fid_le_z", fid_ok),), {
            "tau": tau,
            "survival_weight": z,
            "fidelity": fid,
            "quad_err": err,
            "underlying_rhs": float(np.arccos(np.clip(raw_overlap, 0.0, 1.0))),
        }),
    ]
    if observable is not None:
        inside = integral < math.pi / 2.0
        lhs = (1.0 / (z * math.cos(integral) ** 2) - 1.0) if inside else float("inf")
        ratio_sq, stats = _open_ratio_sq(point, observable)
        rows.append(BoundReport(
            "tur-mt-open", lhs, ratio_sq, inside, (("window_lt_half_pi", inside),),
            {"tau": tau, "integral": integral, "survival_weight": z, "quad_err": err,
             "observable_convention": "lindblad-state", **stats},
        ))
    return rows


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
    return _row("fid-mt-open", model, state0, tau, steps=steps)


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
    return _row("qsl-mt-open", model, state0, tau, steps=steps)


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
    return _row("tur-mt-open", model, state0, tau, observable, steps=steps)


# ---------------------------------------------------------------------------
# classical Markov special case


def _classical_rows(point: _TimePoint, observable) -> list[BoundReport]:
    """qsl-classical and, given per-state values, tur-classical at
    ``point.tau``, from one propagation of the chain."""
    chain, tau = point.sweep.chain, point.tau
    p_tau = chain.propagate(tau)  # raises for a negative tau
    p0, p1 = chain.p0 / chain.p0.sum(), p_tau / p_tau.sum()
    activity = chain.activity()
    params = {"tau": tau, "activity": activity}
    rows = [BoundReport("qsl-classical", activity * tau, metrics.renyi_half(p0, p1), True, (),
                        params)]
    if observable is not None:
        if observable.size != chain.n_states:
            raise BadParameter("observable length differs from the state count")
        ratio_sq, stats = _scaled_ratio_sq(np.diag(observable), np.diag(p0), np.diag(p1))
        rows.append(BoundReport("tur-classical", _expm1(activity * tau), ratio_sq, True, (),
                                dict(params, **stats)))
    return rows


def qsl_classical(chain: ClassicalMarkovModel, tau: float) -> BoundReport:
    """Classical speed limit: activity * tau >= D_{1/2}(P(0) || P(tau))."""
    return _row("qsl-classical", chain, None, tau)


def tur_classical(chain: ClassicalMarkovModel, tau: float, observable) -> BoundReport:
    """Classical scaled-variance inequality exp(activity * tau) - 1 >= ratio^2.

    ``observable`` is a real vector of per-state values; moments are taken
    against P(0) and P(tau).
    """
    values = np.asarray(observable, dtype=float).reshape(-1)
    return _row("tur-classical", chain, None, tau, np.diag(values))


# ---------------------------------------------------------------------------
# sweeps


# group: (the model kind it needs, that kind's name, the builder of its rows)
FAMILIES = {
    "ml": (NonHermitianModel, "nonhermitian", _ml_rows),
    "mt": (NonHermitianModel, "nonhermitian", _mt_rows),
    "ml-open": (LindbladModel, "lindblad or classical", _ml_open_rows),
    "mt-open": (LindbladModel, "lindblad or classical", _mt_open_rows),
    "classical": (ClassicalMarkovModel, "classical", _classical_rows),
}


def sweep(model, state0, times, groups, observable=None, *, start: float = 0.0,
          steps: int = DEFAULT_QUAD_STEPS) -> list[tuple[float, BoundReport]]:
    """The rows of the bound ``groups`` at each of ``times``, as ``nhbounds
    check`` writes them: ``(t, report)`` pairs time by time and group by
    group, a ``qsl-ml-simple`` report after each ``qsl-ml`` and an
    ``energy-time`` report after each ``tur-mt``.

    A classical chain serves ``classical``, which starts from the chain's
    ``p0``, and the open groups through its Lindblad embedding.
    ``observable`` adds the TUR rows: a Hermitian matrix to every group
    (``classical`` reads its diagonal), a :class:`JumpCountObservable` to
    the open groups.  ``start`` opens the ``mt`` window [start, t], and
    ``steps`` is the minimum MT quadrature node count.

    Raises:
        BadParameter: for an unknown or repeated group, a group the model
            cannot serve, or a nonzero ``start`` with a group other than ``mt``.
    """
    chain = model if isinstance(model, ClassicalMarkovModel) else None
    kinds = []
    for g in groups:
        if g not in FAMILIES:
            raise BadParameter(f"unknown bound group {g!r}")
        if groups.count(g) > 1:
            raise BadParameter(f"bound group {g!r} is given more than once")
        kind, name, _ = FAMILIES[g]
        if not (isinstance(model, kind) or (kind is LindbladModel and chain is not None)):
            raise BadParameter(f"bound group {g!r} needs a {name} model")
        kinds.append(kind)
    if start != 0.0 and set(groups) - {"mt"}:
        raise BadParameter("a window start applies to the mt group alone")
    if chain is not None and LindbladModel in kinds:
        model = make_classical(chain)
    rho0 = None
    if not isinstance(model, ClassicalMarkovModel):
        rho0 = as_density_matrix(state0)
        rho0.setflags(write=False)
        if observable is not None and not isinstance(observable, JumpCountObservable):
            observable = linalg.require_hermitian(observable, "observable")
    families = []
    for g, kind in zip(groups, kinds):
        obs = observable  # None gives a family no TUR row
        if isinstance(obs, JumpCountObservable) and kind is not LindbladModel:
            obs = None
        elif kind is ClassicalMarkovModel and obs is not None:
            obs = np.diag(obs).real
        families.append((FAMILIES[g][2], obs))
    sw = _Sweep(model, chain, rho0, start, steps)
    out: list[tuple[float, BoundReport]] = []
    for t in times:
        point = _TimePoint(sw, t)
        for build, obs in families:
            out.extend((t, report) for report in build(point, obs))
    return out


def _row(kind: str, model, state0, tau: float, observable=None, **options) -> BoundReport:
    """The ``kind`` report of a one-point sweep of its group at ``tau``."""
    for _, report in sweep(model, state0, [tau], [kind.split("-", 1)[1]], observable, **options):
        if report.kind == kind:
            return report
    raise BadParameter(f"no {kind} row for observable {observable!r}")
