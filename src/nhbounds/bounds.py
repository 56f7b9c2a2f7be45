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
time grid; each public row function is a one-point sweep.  A sweep converts
the state and observable once and calls each group's row builder once.  The
builder does its family's model checks and evaluates each part it reads
(MT integrals, Lindblad states, fidelities, observable statistics,
jump-count moments, chain distributions) as one stack over the whole grid:
one stacked exponential per part, and one adaptive quadrature for all MT
windows, the grid's [0, t] and the ``mt`` group's optional extra
[tau1, tau2] alike.  Both families read the propagators at the ends of
these windows, and their normalized states, from one stack per sweep.
Where a constant generator G = H - i Gamma is normal to round-off, the MT
integrand at the quadrature nodes comes from its spectrum (built once per
model) instead of propagators.  The window ends, the Lindblad states, their
fidelities and the open TUR ratios are computed at most once per sweep.
Sweeps, and so public calls, share nothing.
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
    LindbladModel,
    NonHermitianModel,
    _built_once,
    _evolve_lindblad,
    _jump_count_moments,
    _normalized_density,
    _propagators,
)
from .states import as_density_matrix

SLACK_TOL = 1e-8            # a theorem violation is slack below this
WINDOW_TOL = 1e-7           # round-off allowance at the pi/2 window edge
DEFAULT_QUAD_STEPS = 15     # minimum MT quadrature nodes: one G7/K15 interval
_QUAD_RTOL = 1e-13          # relative accuracy the adaptive MT quadrature aims at
_MAX_SPLITS = 1000          # bisections before the quadrature gives up
_EPS = float(np.finfo(float).eps)
_SPECTRAL_TOL = 64.0        # residual of U diag(lam) U^dag, in eps * dim * max(1, ||G||_1)

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


# ---------------------------------------------------------------------------
# one sweep's stacks


@_built_once
def _spectrum(model: NonHermitianModel):
    """``(U, lam)`` with G = U diag(lam) U^dag to round-off, or None.

    U holds the eigenvectors of H + (pi/7) Gamma and lam = diag(U^dag G U).
    When [H, Gamma] = 0, G is normal and U diagonalizes it unless the
    generic shift pi/7 happens to merge two eigenvalues that G keeps apart.
    None when the residual ||U diag(lam) U^dag - G||_1 exceeds
    ``_SPECTRAL_TOL`` eps dim max(1, ||G||_1): G is not normal, or U missed.
    """
    g = model.full_generator()
    _, u = np.linalg.eigh(model.h + (math.pi / 7.0) * model.gamma)
    lam = np.einsum("ki,kl,li->i", u.conj(), g, u)
    residual = np.abs((u * lam) @ u.conj().T - g).sum(axis=0).max()
    bound = _SPECTRAL_TOL * _EPS * model.dim * max(1.0, _generator_norm(model, 0.0))
    return (u, lam) if residual <= bound else None


def _spectral_std(spectrum, rho0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The generalized std of G = U diag(lam) U^dag in the normalized state at
    each of ``times``, from the populations alone:
    sqrt(sum_k p_k |lam_k - sum_j p_j lam_j|^2), where
    p_k(t) is (U^dag rho0 U)_kk exp(2 Im(lam_k) t), normalized in log space
    so that no population underflows before the others.  The std is
    shift-invariant; shifting lam by lam_0 makes it exactly 0 where G is a
    multiple of the identity."""
    u, lam = spectrum
    w = np.einsum("ki,kl,li->i", u.conj(), rho0, u).real
    with np.errstate(divide="ignore"):
        x = np.log(np.maximum(w, 0.0)) + 2.0 * np.multiply.outer(times, lam.imag)
    p = np.exp(x - x.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    shifted = lam - lam[0]
    dev = shifted - (p @ shifted)[:, None]
    return np.sqrt((p * (dev.real**2 + dev.imag**2)).sum(axis=1))


def _path_nodes(model: NonHermitianModel, rho0: np.ndarray, segments) -> np.ndarray:
    """The generalized std of the full generator in the normalized state at
    every time of ``segments`` (one sorted time array per MT window),
    concatenated.

    Where :func:`_spectrum` diagonalizes a constant generator, the std comes
    from the spectrum.  Any other constant generator evaluates all segments
    as one stack of propagators, in calls of at most ``linalg._STACK_BUDGET``
    matrix entries.  A time-dependent one takes each segment through its own
    running product, whose step its last time sets (see ``_propagators``),
    so no window's nodes depend on the others.

    Raises:
        NormUnderflow: if a propagated trace underflows.
    """
    flat = np.concatenate(segments)
    spectrum = None if model.is_time_dependent else _spectrum(model)
    if spectrum is not None:
        return _spectral_std(spectrum, rho0, flat)
    calls = (segments if model.is_time_dependent
             else [flat[s] for s in linalg._stack_slices(flat.size, model.dim)])
    std = []
    for times in calls:
        rho, _ = _normalized_density(_propagators(model, times), rho0)
        gen = (np.stack([model.full_generator(t) for t in times]) if model.is_time_dependent
               else model.full_generator())
        std.append(metrics.generalized_std(gen, rho))
    return np.concatenate(std)


def _kronrod_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 15 Kronrod nodes of each interval [a, b], one row per interval."""
    return (0.5 * (a + b))[:, None] + (0.5 * (b - a))[:, None] * _K15_X


def _generator_norm(model: NonHermitianModel, t: float) -> float:
    """The 1-norm of the full generator at t."""
    return float(np.abs(model.full_generator(t)).sum(axis=0).max())


class _Window:
    """One MT window [t1, t2] under refinement: its pending intervals
    [``a``, ``b``], running ``integral`` and ``err``, and bisection count."""

    def __init__(self, t1: float, t2: float, n: int, gnorm: float):
        edges = np.linspace(t1, t2, n + 1)
        self.t1, self.t2, self.a, self.b = t1, t2, edges[:-1], edges[1:]
        self.gnorm, self.dv = gnorm, 16.0 * _EPS * gnorm**2
        self.integral = self.err = 0.0
        self.splits = 0

    def nodes(self) -> np.ndarray:
        return _kronrod_times(self.a, self.b).ravel()

    def refine(self, f: np.ndarray) -> None:
        """Accept each pending interval whose estimate is small enough, given
        the std ``f`` at its Kronrod nodes (one row per interval), and
        bisect the others.

        Raises:
            QuadratureDiverged: when the window needs more than
                ``_MAX_SPLITS`` bisections.
        """
        a, b, gnorm, dv = self.a, self.b, self.gnorm, self.dv
        h = 0.5 * (b - a)
        kron = h * (f @ _K15_W)
        diff = np.abs(kron - h * (f[:, 1::2] @ _G7_W))
        asc = h * (np.abs(f - 0.5 * (f @ _K15_W)[:, None]) @ _K15_W)
        with np.errstate(divide="ignore", invalid="ignore"):
            est = np.where(asc > 0.0, asc * np.minimum(1.0, (200.0 * diff / asc) ** 1.5), diff)
            noise = h * (np.minimum(math.sqrt(dv), dv / (2.0 * f)) @ _K15_W)
        floor = 50.0 * _EPS * (np.abs(kron) + (b - a) * gnorm)
        est = np.maximum(est, floor)
        share = (b - a) / (self.t2 - self.t1) * _QUAD_RTOL * max(1.0, abs(self.integral + kron.sum()))
        done = (est <= share) | (est <= np.maximum(floor, noise))
        self.integral += float(kron[done].sum())
        self.err += float(est[done].sum())
        a, b = a[~done], b[~done]
        if a.size:
            self.splits += a.size
            if self.splits > _MAX_SPLITS:
                raise QuadratureDiverged(
                    f"quadrature diverged: the MT integral over [{self.t1!r}, {self.t2!r}] needs "
                    f"more than {_MAX_SPLITS} bisections"
                )
            mid = 0.5 * (a + b)
            a, b = np.stack([a, mid], axis=1).ravel(), np.stack([mid, b], axis=1).ravel()
        self.a, self.b = a, b


def _mt_paths(model: NonHermitianModel, rho0: np.ndarray, windows, steps: int):
    """``(integral, quad_err)`` of each window [t1, t2] of ``windows`` (each
    0 <= t1 <= t2): the generalized std integrated along the normalized
    trajectory by adaptive G7/K15 quadrature (QUADPACK's QAG), all windows
    together, and the sum of the accepted intervals' error estimates.

    ``steps`` is a minimum node count: each window starts as
    ceil(steps / 15) equal intervals.  Each round evaluates the nodes of
    every pending interval of every window through one :func:`_path_nodes`
    call, and bisects every interval whose estimate (QUADPACK's qk15,
    floored at 50 eps (|K| + (b - a) ||G||_1)) exceeds both its share
    (b - a)/(t2 - t1) of ``_QUAD_RTOL`` max(1, |integral|) of its window and
    the std's own round-off near an eigenstate.  Each window keeps its own
    integral, ``quad_err`` and bisection count, so its numbers do not depend
    on the other windows.  The window ends are not nodes: the rows read
    them from the sweep's ``ends``.

    Raises:
        QuadratureDiverged: when a window's refinement needs more than
            ``_MAX_SPLITS`` bisections.
    """
    if steps < 1:
        raise BadParameter("quadrature steps must be a positive integer")
    n = -(-int(steps) // 15)
    if model.is_time_dependent:
        gnorms = [max(_generator_norm(model, t1), _generator_norm(model, t2)) for t1, t2 in windows]
    else:
        gnorms = [_generator_norm(model, 0.0)] * len(windows)
    wins = [_Window(t1, t2, n if t2 > t1 else 0, g) for (t1, t2), g in zip(windows, gnorms)]
    live = [w for w in wins if w.a.size]
    while live:
        nodes = [w.nodes() for w in live]
        std = _path_nodes(model, rho0, nodes).reshape(-1, 15)
        for w, f in zip(live, np.split(std, np.cumsum([len(x) // 15 for x in nodes])[:-1])):
            w.refine(f)
        live = [w for w in live if w.a.size]
    return [(w.integral, w.err) for w in wins]


def _scaled_ratios(start, end) -> list[tuple[float, dict]]:
    """Squared mean-change-over-total-spread ratio of a Hermitian observable
    from each start state to each end state, given the ``(means, stds)`` of
    both from :func:`metrics._observable_stats`; one start serves every end.

    Raises:
        DegenerateObservable: when both spreads vanish but the means differ
            (the ratio is infinite).
    """
    out = []
    for mean_a, std_a, mean_b, std_b in np.broadcast(*start, *end):
        mean_a, std_a, mean_b, std_b = float(mean_a), float(std_a), float(mean_b), float(std_b)
        dm = mean_b - mean_a
        ds = std_b + std_a
        info = {"mean_start": mean_a, "mean_end": mean_b, "std_start": std_a, "std_end": std_b}
        if ds <= 0.0:
            if abs(dm) <= 1e-14:
                out.append((0.0, info))
                continue
            raise DegenerateObservable("zero spread at both times with distinct means")
        out.append(((dm / ds) ** 2, info))
    return out


def _count_ratio(mean: float, var: float) -> tuple[float, dict]:
    """The squared scaled ratio of the exact jump-count moments."""
    if var <= 0.0:
        ratio_sq = 0.0 if abs(mean) <= 1e-14 else float("inf")
    else:
        ratio_sq = mean**2 / var
    return ratio_sq, {"jump_count": {"mean": mean, "var": var}}


class _Sweep:
    """One sweep's inputs, and the stacks more than one group reads.

    ``model`` is the quantum model (a chain's embedding where an open group
    needs one), ``closed`` the model the ML and MT rows read, ``chain`` the
    classical chain, ``rho0`` the read-only initial state, ``times`` the
    grid, ``window`` the extra ``mt`` window (t1, t2) or None, and ``steps``
    the minimum MT quadrature node count.
    ``observable`` is the sweep's observable, validated; ``matrix`` is what
    the ML and MT families read of it (None for a jump count) and
    ``values`` what the classical family reads (its diagonal).

    ``windows``, ``ends``, ``states`` and ``overlaps`` are what the ML and MT
    families read of ``closed``; ``lindblad``, ``fidelity`` and
    ``open_ratios`` are stacks over ``times`` that both open groups read.
    Each is computed at most once, on first use.  Every other stack belongs
    to the one group builder that reads it.
    """

    def __init__(self, model, chain, rho0, times, observable, window, steps: int):
        self.model, self.chain, self.rho0, self.times = model, chain, rho0, list(times)
        self.observable, self.window, self.steps = observable, window, steps
        self.closed = model.no_jump_model() if isinstance(model, LindbladModel) else model
        self.matrix = None if isinstance(observable, JumpCountObservable) else observable
        self.values = None if self.matrix is None else np.diag(self.matrix).real

    @functools.cached_property
    def windows(self) -> list[tuple[float, float]]:
        """[0, t] for each time of the grid, then ``window`` if it is set;
        a ``BadParameter`` unless 0 <= t1 <= t2 in each."""
        windows = [(0.0, t) for t in self.times]
        if self.window is not None:
            windows.append(self.window)
        if not all(0 <= t1 <= t2 for t1, t2 in windows):
            raise BadParameter("need 0 <= t1 <= t2")
        return windows

    @functools.cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """``(mats, at)``: the propagators of ``closed`` at both ends of every
        window, and the indices ``at[k]`` of window k's (t1, t2) in ``mats``.
        A constant generator takes one stack over the distinct times, each
        member computed as if alone; a time-dependent one takes one running
        product per window, so no window's ends depend on the grid."""
        model, windows = self.closed, self.windows
        if model.is_time_dependent:
            mats = np.concatenate([_propagators(model, w) for w in windows])
            return mats, np.arange(len(mats)).reshape(-1, 2)
        times, at = np.unique(windows, return_inverse=True)
        return _propagators(model, times), at.reshape(-1, 2)

    @functools.cached_property
    def states(self) -> tuple[np.ndarray, np.ndarray]:
        """``_normalized_density`` of the ``ends``, indexed by their ``at``."""
        return _normalized_density(self.ends[0], self.rho0)

    @functools.cached_property
    def overlaps(self) -> list[float]:
        """|Tr[M(t1)^dag M(t2) rho0]| of each window, unnormalized."""
        mats, at = self.ends
        return [abs(complex(np.trace(linalg.dag(mats[i]) @ mats[j] @ self.rho0))) for i, j in at]

    @functools.cached_property
    def lindblad(self) -> np.ndarray:
        return _evolve_lindblad(self.model, self.rho0, self.times)

    @functools.cached_property
    def fidelity(self) -> list[float]:
        return metrics._fidelities(self.rho0, self.lindblad)

    @functools.cached_property
    def open_ratios(self) -> list[tuple[float, dict]]:
        """The open TURs' ratio at each time: exact jump-count moments, or a
        system operator's statistics in the Lindblad state."""
        if isinstance(self.observable, JumpCountObservable):
            return [_count_ratio(*moments)
                    for moments in _jump_count_moments(self.model, self.rho0, self.times)]
        return _scaled_ratios(metrics._observable_stats(self.matrix, self.rho0[None]),
                              metrics._observable_stats(self.matrix, self.lindblad))


def _ml_stack(sw: _Sweep) -> tuple[list[float], list[dict]]:
    """The model checks of the ML family, then what its rows read at the
    times of ``sw``: the overlaps |Tr[M rho0]| of the propagators M to each
    time (the sweep's ``overlaps`` of the windows [0, t]) and the terms of
    each time's floor (each row copies them before adding its own keys).

    Only the closed rows read the normalized ``states``, so the open rows
    give numbers where a state would underflow.  The open family reads this
    on ``no_jump_model()``, whose Gamma is half the jump-rate operator:
    there ``floor_raw`` is the open floor exp(-activity*tau/2) -
    tau(<H_S> - E_g) and the overlaps are the record overlaps.
    """
    model, rho0 = sw.closed, sw.rho0
    if model.is_time_dependent:
        raise BadParameter("the mean-based bound requires a time-independent model")
    norm, ok = commutator_check(model.h, model.gamma)  # the model checks Gamma is PSD
    if not ok:
        raise CommutatorViolation(f"[H, Gamma] norm {norm:.3e} exceeds tolerance")
    terms = {"mean_h": _expectation(model.h, rho0),
             "mean_gamma": _expectation(model.gamma, rho0),
             "ground_energy": ground_energy(model.h), "commutator_norm": norm}
    de = terms["mean_h"] - terms["ground_energy"]
    return sw.overlaps[:len(sw.times)], [
        {"tau": tau, **terms, "floor_raw": math.exp(-terms["mean_gamma"] * tau) - tau * de}
        for tau in sw.times
    ]


# ---------------------------------------------------------------------------
# closed system, mean-based (ML) family


def _ml_rows(sw: _Sweep) -> list[list[BoundReport]]:
    """fid-ml, qsl-ml, qsl-ml-simple and, given an observable, tur-ml at each
    time of ``sw``."""
    rho0 = sw.rho0
    overlaps, terms = _ml_stack(sw)
    rho, tr = (part[sw.ends[1][:len(sw.times), 1]] for part in sw.states)
    fidelities = metrics._fidelities(rho0, rho)
    if sw.matrix is not None:
        ratios = _scaled_ratios(metrics._observable_stats(sw.matrix, rho0[None]),
                                metrics._observable_stats(sw.matrix, rho))
    out = []
    for k, tau in enumerate(sw.times):
        norm_tau = math.sqrt(tr[k])
        params = dict(terms[k], norm_tau=norm_tau)
        raw, mean_g = params["floor_raw"], params["mean_gamma"]
        positive = raw > 0.0
        conditions = (("commuting_h_gamma", True), ("gamma_psd", True),
                      ("floor_positive", positive))
        floor = raw / norm_tau
        rows = [BoundReport(
            "fid-ml", overlaps[k] / math.sqrt(np.trace(rho0).real * tr[k]), floor, True,
            conditions, dict(params, fidelity_floor=floor),
        )]
        de = params["mean_h"] - params["ground_energy"]
        angle = metrics._fidelity_angle(fidelities[k])
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
        if sw.matrix is not None:
            ratio_sq, stats = ratios[k]
            loose = {"lhs": _inv_sq_minus_one(raw), "rhs": ratio_sq, "applicable": positive}
            rows.append(BoundReport(
                "tur-ml", _inv_sq_minus_one(raw, norm_tau), ratio_sq, positive, conditions,
                dict(params, **stats, loose=loose),
            ))
        out.append(rows)
    return out


def fid_ml(model: NonHermitianModel, state0, tau: float) -> BoundReport:
    """Measured normalized overlap against the mean-based fidelity floor
    [exp(-<Gamma> tau) - tau(<H> - E_g)] / ||psi(tau)||.

    Requires a time-independent model with commuting (H, Gamma) and PSD
    Gamma; expectations are taken in the initial state.
    """
    return _row("fid-ml", model, state0, [tau])


def qsl_ml(model: NonHermitianModel, state0, tau: float) -> BoundReport:
    """Mean-based speed limit on the Bures angle between the endpoints.

    Full form: 1 + [tau(<H> - E_g) - exp(-<Gamma> tau)] / ||psi(tau)||
    bounds 2 sin^2(angle / 2) from above.  The simplified norm-free variant
    (valid under the positivity condition) is attached under
    ``params["simple"]`` together with the weakest linear-in-tau form and
    the geometric minimum-time estimate it implies.
    """
    return _row("qsl-ml", model, state0, [tau])


def tur_ml(model: NonHermitianModel, state0, tau: float, observable) -> BoundReport:
    """Mean-based scaled-variance inequality for a Hermitian observable.

    Headline lhs is the tight, norm-weighted form
    ||psi(tau)||^2 / floor^2 - 1; the loose norm-free variant sits under
    ``params["loose"]``.  Applicable only while the floor is positive.
    """
    return _row("tur-ml", model, state0, [tau], observable)


# ---------------------------------------------------------------------------
# closed system, deviation-based (MT) family


def _mt_rows(sw: _Sweep) -> list[list[BoundReport]]:
    """fid-mt, qsl-mt and, given an observable, tur-mt and energy-time over
    [0, t] for each time t of ``sw``, then over ``sw.window`` if it is set;
    all windows are integrated in one quadrature."""
    windows, (rho, tr), at = sw.windows, sw.states, sw.ends[1]
    quads = _mt_paths(sw.closed, sw.rho0, windows, sw.steps)
    starts, ends = rho[at[:, 0]], rho[at[:, 1]]
    fidelities = metrics._fidelities(starts, ends)
    if sw.matrix is not None:
        start_stats, end_stats = (metrics._observable_stats(sw.matrix, rho) for rho in (starts, ends))
        ratios = _scaled_ratios(start_stats, end_stats)
        energy_times = _energy_times(sw.closed, ends, [t2 for _, t2 in windows], sw.matrix,
                                     end_stats)
    out = []
    for k, ((integral, err), (tau1, tau2), (i, j)) in enumerate(zip(quads, windows, at)):
        in_window = integral <= math.pi / 2.0 + WINDOW_TOL
        conditions = (("window_le_half_pi", in_window),)
        angle = metrics._fidelity_angle(fidelities[k])
        if integral > 0.0:
            tau_min = angle * (tau2 - tau1) / integral
        else:
            tau_min = 0.0 if angle == 0.0 else float("inf")
        rows = [
            BoundReport(
                "fid-mt", sw.overlaps[k] / math.sqrt(float(tr[i]) * float(tr[j])),
                math.cos(integral), in_window, conditions,
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
        if sw.matrix is not None:
            ratio_sq, stats = ratios[k]
            inside = integral < math.pi / 2.0
            et = energy_times[k]
            rows.append(BoundReport(
                "tur-mt", math.tan(integral) ** 2 if inside else float("inf"), ratio_sq, inside,
                (("window_lt_half_pi", inside),),
                {"tau1": tau1, "tau2": tau2, "quad_err": err, "integral": integral, **stats,
                 "energy_time": {"lhs": et.lhs, "rhs": et.rhs, "slack": et.slack}},
            ))
            rows.append(et)
        out.append(rows)
    return out


def fid_mt(
    model: NonHermitianModel, state0, tau1: float, tau2: float, steps: int = DEFAULT_QUAD_STEPS
) -> BoundReport:
    """Measured normalized overlap against the deviation-based fidelity floor
    cos(integral of the generalized std over [tau1, tau2]).

    The cosine form is only a valid floor while the integral stays within
    [0, pi/2]; outside that window the report is flagged inapplicable.
    """
    return _row("fid-mt", model, state0, [], window=(tau1, tau2), steps=steps)


def qsl_mt(
    model: NonHermitianModel, state0, tau1: float, tau2: float, steps: int = DEFAULT_QUAD_STEPS
) -> BoundReport:
    """Deviation-based speed limit: the integrated std bounds the Bures angle.

    Also emits the implied minimum time ``tau_min`` = angle / (time-averaged
    std) in the params.
    """
    return _row("qsl-mt", model, state0, [], window=(tau1, tau2), steps=steps)


def _energy_times(model: NonHermitianModel, rho: np.ndarray, times, obs, stats) -> list[BoundReport]:
    """The energy-time relation spread(C) * spread(generator) >= |d<C>/dt| / 2
    in each normalized state of the stack ``rho`` at its time of ``times``,
    given the observable's ``(means, stds)`` there.

    The time derivative is exact along the normalized trajectory:
    d<C>/dt = i<[H, C]> - <{C, Gamma}> + 2<C><Gamma>, with H and Gamma
    taken at t."""
    h, g = (np.stack(part) for part in zip(*(model.parts(t) for t in times)))
    std_gen = metrics.generalized_std(h - 1j * g, rho)
    flow = 1j * (h @ obs - obs @ h) - (obs @ g + g @ obs)
    e_flow = np.trace(flow @ rho, axis1=-2, axis2=-1).real
    e_g = np.trace(g @ rho, axis1=-2, axis2=-1).real
    reports = []
    for t, mean, std, sg, ef, eg in zip(times, *stats, std_gen, e_flow, e_g):
        std, sg = float(std), float(sg)
        deriv = float(ef) + 2.0 * float(mean) * float(eg)
        reports.append(BoundReport(
            kind="energy-time",
            lhs=std * sg,
            rhs=abs(deriv) / 2.0,
            applicable=True,
            conditions=(),
            params={"t": t, "observable_std": std, "generator_std": sg, "mean_derivative": deriv},
        ))
    return reports


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
    return _row("tur-mt", model, state0, [], observable, window=(tau1, tau2), steps=steps)


# ---------------------------------------------------------------------------
# open system (continuous measurement)


def _ml_open_rows(sw: _Sweep) -> list[list[BoundReport]]:
    """fid-ml-open, qsl-ml-open and, given an observable, tur-ml-open at each
    time of ``sw``."""
    overlaps, terms = _ml_stack(sw)
    fidelity = sw.fidelity
    if sw.observable is not None:
        ratios = sw.open_ratios
    classical_form = linalg.max_abs(sw.model.h_s) <= 1e-12  # H_S = 0: the classical TUR form
    out = []
    for k, tau in enumerate(sw.times):
        floor = terms[k]["floor_raw"]
        positive = floor > 0.0
        conditions = (("commuting_hs_jumps", True), ("floor_positive", positive))
        angle = metrics._fidelity_angle(fidelity[k])
        rows = [
            BoundReport("fid-ml-open", overlaps[k], floor, True, conditions, dict(terms[k])),
            BoundReport("qsl-ml-open", 1.0 - floor, 2.0 * math.sin(angle / 2.0) ** 2, True,
                        conditions, dict(terms[k], bures_angle=angle)),
        ]
        if sw.observable is not None:
            ratio_sq, stats = ratios[k]
            params = dict(terms[k], **stats)
            if classical_form:
                # the no-jump Gamma is half the jump-rate operator
                params["classical_form_lhs"] = _expm1(2.0 * params["mean_gamma"] * tau)
            rows.append(BoundReport(
                "tur-ml-open", _inv_sq_minus_one(floor), ratio_sq, positive, conditions, params
            ))
        out.append(rows)
    return out


def fid_ml_open(model: LindbladModel, state0, tau: float) -> BoundReport:
    """Measured record-state overlap against the open mean-based floor
    exp(-activity*tau/2) - tau(<H_S> - E_g).

    Requires H_S to commute with the jump-rate operator (satisfied by the
    dephasing model, the refrigerator, and every classical embedding).
    """
    return _row("fid-ml-open", model, state0, [tau])


def qsl_ml_open(model: LindbladModel, state0, tau: float) -> BoundReport:
    """Open mean-based speed limit against the Bures angle of the Lindblad
    endpoints (the averaged, unconditioned evolution)."""
    return _row("qsl-ml-open", model, state0, [tau])


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
    return _row("tur-ml-open", model, state0, [tau], observable)


def _mt_open_rows(sw: _Sweep) -> list[list[BoundReport]]:
    """fid-mt-open, qsl-mt-open and, given an observable, tur-mt-open over
    [0, t] for each time t of ``sw``."""
    (_, tr), at = sw.states, sw.ends[1]
    quads = _mt_paths(sw.closed, sw.rho0, sw.windows, sw.steps)
    fidelity = sw.fidelity
    if sw.observable is not None:
        ratios = sw.open_ratios
    out = []
    for k, ((integral, err), tau) in enumerate(zip(quads, sw.times)):
        z, overlap = float(tr[at[k, 1]]), sw.overlaps[k]
        in_window = integral <= math.pi / 2.0 + WINDOW_TOL
        fid = fidelity[k]
        ratio = fid / z
        fid_ok = ratio <= 1.0 + 1e-10
        rhs = metrics._fidelity_angle(min(ratio, 1.0)) if fid_ok else float("nan")
        raw_overlap = overlap / math.sqrt(z)
        rows = [
            BoundReport(
                "fid-mt-open", overlap, math.sqrt(z) * math.cos(integral), in_window,
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
        if sw.observable is not None:
            inside = integral < math.pi / 2.0
            lhs = (1.0 / (z * math.cos(integral) ** 2) - 1.0) if inside else float("inf")
            ratio_sq, stats = ratios[k]
            rows.append(BoundReport(
                "tur-mt-open", lhs, ratio_sq, inside, (("window_lt_half_pi", inside),),
                {"tau": tau, "integral": integral, "survival_weight": z, "quad_err": err,
                 "observable_convention": "lindblad-state", **stats},
            ))
        out.append(rows)
    return out


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
    return _row("fid-mt-open", model, state0, [tau], steps=steps)


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
    return _row("qsl-mt-open", model, state0, [tau], steps=steps)


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
    return _row("tur-mt-open", model, state0, [tau], observable, steps=steps)


# ---------------------------------------------------------------------------
# classical Markov special case


def _classical_rows(sw: _Sweep) -> list[list[BoundReport]]:
    """qsl-classical and, given per-state values, tur-classical at each time
    of ``sw``."""
    chain = sw.chain
    p = chain.propagate(sw.times)  # raises for a negative time
    p0, p1, activity = chain.p0 / chain.p0.sum(), p / p.sum(axis=1, keepdims=True), chain.activity()
    if sw.values is not None:
        if sw.values.size != chain.n_states:
            raise BadParameter("observable length differs from the state count")
        op, eye = linalg.as_matrix(np.diag(sw.values)), np.eye(len(p0))
        ratios = _scaled_ratios(*(metrics._observable_stats(op, (p[..., None] * eye).astype(complex))
                                  for p in (p0[None], p1)))
    out = []
    for k, tau in enumerate(sw.times):
        params = {"tau": tau, "activity": activity}
        rows = [BoundReport("qsl-classical", activity * tau, metrics.renyi_half(p0, p1[k]), True,
                            (), params)]
        if sw.values is not None:
            ratio_sq, stats = ratios[k]
            rows.append(BoundReport("tur-classical", _expm1(activity * tau), ratio_sq, True, (),
                                    dict(params, **stats)))
        out.append(rows)
    return out


def qsl_classical(chain: ClassicalMarkovModel, tau: float) -> BoundReport:
    """Classical speed limit: activity * tau >= D_{1/2}(P(0) || P(tau))."""
    return _row("qsl-classical", chain, None, [tau])


def tur_classical(chain: ClassicalMarkovModel, tau: float, observable) -> BoundReport:
    """Classical scaled-variance inequality exp(activity * tau) - 1 >= ratio^2.

    ``observable`` is a real vector of per-state values; moments are taken
    against P(0) and P(tau).
    """
    values = np.asarray(observable, dtype=float).reshape(-1)
    return _row("tur-classical", chain, None, [tau], np.diag(values))


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


def sweep(model, state0, times, groups, observable=None, *, window=None,
          steps: int = DEFAULT_QUAD_STEPS) -> list[tuple[float, BoundReport]]:
    """The rows of the bound ``groups`` at each of ``times``, as ``nhbounds
    check`` writes them: ``(t, report)`` pairs time by time and group by
    group, a ``qsl-ml-simple`` report after each ``qsl-ml`` and an
    ``energy-time`` report after each ``tur-mt``.

    A classical chain serves ``classical``, which starts from the chain's
    ``p0``, and the open groups through its Lindblad embedding.
    ``observable`` adds the TUR rows: a Hermitian matrix to every group
    (``classical`` reads its diagonal), a :class:`JumpCountObservable` to
    the open groups.  ``window`` = (tau1, tau2) adds the ``mt`` rows over
    [tau1, tau2] at t = tau2 after every grid row, integrated in the same
    quadrature as the grid's [0, t] windows; ``times`` may then be empty.
    ``steps`` is the minimum MT quadrature node count.

    Raises:
        BadParameter: for an unknown or repeated group, a group the model
            cannot serve, or a ``window`` without the ``mt`` group.
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
    if window is not None and "mt" not in groups:
        raise BadParameter("a window applies to the mt group, which is not among the groups")
    if chain is not None and LindbladModel in kinds:
        model = make_classical(chain)
    rho0 = None
    if not isinstance(model, ClassicalMarkovModel):
        rho0 = as_density_matrix(state0)
        rho0.setflags(write=False)
        if observable is not None and not isinstance(observable, JumpCountObservable):
            observable = linalg.require_hermitian(observable, "observable")
    sw = _Sweep(model, chain, rho0, times, observable, window, steps)
    per_group = [FAMILIES[g][2](sw) for g in groups] if sw.times or window else []
    out = [(t, report) for k, t in enumerate(sw.times) for rows in per_group for report in rows[k]]
    if window is not None:
        out += [(window[1], report) for report in per_group[groups.index("mt")][-1]]
    return out


def _row(kind: str, model, state0, times, observable=None, **options) -> BoundReport:
    """The ``kind`` report of a sweep of its group over ``times``, which is
    one point, or no point beside a ``window``."""
    for _, report in sweep(model, state0, times, [kind.split("-", 1)[1]], observable, **options):
        if report.kind == kind:
            return report
    raise BadParameter(f"no {kind} row for observable {observable!r}")
