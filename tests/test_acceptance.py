"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single summary line (visible with ``pytest -s`` or in the
captured-output section) so the suite doubles as a verification report.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from nhbounds import (
    ClassicalMarkovModel,
    NonHermitianModel,
    StateVector,
    energy_time_check,
    evolve_lindblad,
    fid_ml_open,
    fid_mt_open,
    make_dephasing,
    make_refrigerator,
    open_overlap,
    propagator,
    pure_density,
    qsl_classical,
    qsl_ml,
    qsl_ml_open,
    qsl_mt,
    qsl_mt_open,
    random_commuting,
    random_density,
    random_diagonal_jump_lindblad,
    random_pure_state,
    trajectory_ensemble,
    tur_classical,
    tur_ml,
    tur_ml_open,
    tur_mt,
    tur_mt_open,
)
from nhbounds import linalg
from nhbounds.bounds import _mt_paths
from nhbounds.states import as_density_matrix
from conftest import SX, expm_2x2, random_hermitian, tree_product

PLUS = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))


def _positivity_horizon(decay_mean, energy_gap, cap=20.0):
    """Largest tau with exp(-decay_mean * tau) - tau * energy_gap > 0."""
    f = lambda t: math.exp(-decay_mean * t) - t * energy_gap
    hi = 0.1
    while f(hi) > 0 and hi < cap:
        hi *= 2.0
    if f(hi) > 0:
        return cap
    return brentq(f, 1e-12, hi, xtol=1e-10)


def test_criterion_1_closed_inequality_battery():
    """Battery of >= 200 random commuting models: all four closed bounds hold."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    checked = 0
    min_slack = math.inf
    case = 0
    while checked < 200:
        case += 1
        dim = int(rng.integers(2, 7))
        model = random_commuting(dim, 10_000 + case, gamma_scale=0.7, h_scale=0.9)
        state = (
            random_pure_state(dim, 20_000 + case)
            if case % 2
            else random_density(dim, 20_000 + case)
        )
        obs = random_hermitian(dim, rng)
        rho0 = as_density_matrix(state)
        gap = float(np.trace(model.h @ rho0).real) - float(np.linalg.eigvalsh(model.h)[0])
        decay = float(np.trace(model.gamma @ rho0).real)
        t_pos = _positivity_horizon(decay, max(gap, 1e-9))
        std0 = _mt_paths(model, rho0, [(0.0, 1e-9)], 4)[0].integral / 1e-9
        t_window = 0.85 * (math.pi / 2.0) / max(std0, 0.05)
        tau = float(rng.uniform(0.2, 0.9)) * min(t_pos, t_window)
        reports = None
        for _ in range(6):
            reports = (
                qsl_ml(model, state, tau),
                tur_ml(model, state, tau, obs),
                qsl_mt(model, state, 0.0, tau, steps=200),
                tur_mt(model, state, 0.0, tau, obs, steps=200),
            )
            if all(r.applicable for r in reports):
                break
            tau *= 0.5
        assert all(r.applicable for r in reports), f"case {case}: no applicable window"
        for rep in reports:
            assert rep.slack >= -1e-8, (case, rep.kind, rep.slack)
            min_slack = min(min_slack, rep.slack)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"battery took {elapsed:.1f}s"
    print(
        f"[acceptance] C1 closed battery: PASS "
        f"({checked} models, min slack {min_slack:.3e}, {elapsed:.1f}s)"
    )


def test_criterion_2_open_inequality_battery():
    """Battery of >= 100 diagonal-jump models plus the two named models."""
    start = time.monotonic()
    rng = np.random.default_rng(4048)
    cases = []
    for k in range(100):
        dim = int(rng.integers(2, 5))
        model = random_diagonal_jump_lindblad(dim, 30_000 + k, rate_scale=0.6, energy_scale=0.8)
        state = (
            random_pure_state(dim, 40_000 + k) if k % 2 else random_density(dim, 40_000 + k)
        )
        cases.append((model, state))
    cases.append((make_dephasing(1.0), PLUS))
    fridge = make_refrigerator(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    coherent = StateVector(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
    cases.append((fridge, coherent))

    checked = applicable_reports = 0
    min_slack = math.inf
    for k, (model, state) in enumerate(cases):
        rho0 = as_density_matrix(state)
        gap = float(np.trace(model.h_s @ rho0).real) - float(
            np.linalg.eigvalsh(model.h_s)[0]
        )
        activity = float(np.trace(model.jump_rate_operator() @ rho0).real)
        t_pos = _positivity_horizon(0.5 * activity, max(gap, 1e-9))
        tau = float(rng.uniform(0.2, 0.9)) * min(t_pos, 2.0)
        obs = random_hermitian(model.dim, rng)
        for _ in range(6):
            ml_reports = (
                qsl_ml_open(model, state, tau),
                tur_ml_open(model, state, tau, obs),
            )
            if all(("floor_positive", True) in r.conditions for r in ml_reports):
                break
            tau *= 0.5
        mt_reports = (
            qsl_mt_open(model, state, tau, steps=200),
            tur_mt_open(model, state, tau, obs, steps=200),
        )
        for rep in ml_reports + mt_reports:
            if rep.applicable:
                applicable_reports += 1
                assert rep.slack >= -1e-8, (k, rep.kind, rep.slack)
                min_slack = min(min_slack, rep.slack)
        checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 102
    assert applicable_reports >= 3 * checked  # the vast majority must be checkable
    assert elapsed <= 120.0, f"battery took {elapsed:.1f}s"
    print(
        f"[acceptance] C2 open battery: PASS ({checked} models, "
        f"{applicable_reports} applicable reports, min slack {min_slack:.3e}, {elapsed:.1f}s)"
    )


def test_criterion_3_mt_saturation():
    """Two-level Rabi model reaches orthogonality exactly at the MT time."""
    omega = 1.0
    model = NonHermitianModel(0.5 * omega * SX, np.zeros((2, 2)))
    psi0 = StateVector(np.array([1.0, 0.0]))
    g = lambda t: float(np.vdot(psi0.amplitudes, propagator(model, t) @ psi0.amplitudes).real)
    tau = brentq(g, 0.5 * math.pi / omega, 1.5 * math.pi / omega, xtol=1e-13)
    dh = math.sqrt(
        float(np.vdot(psi0.amplitudes, (0.5 * omega * SX) @ (0.5 * omega * SX) @ psi0.amplitudes).real)
        - float(np.vdot(psi0.amplitudes, (0.5 * omega * SX) @ psi0.amplitudes).real) ** 2
    )
    assert abs(tau * dh - math.pi / 2.0) <= 1e-6
    rep = qsl_mt(model, psi0, 0.0, tau)
    assert rep.applicable
    assert abs(rep.slack) <= 1e-6
    assert rep.lhs == pytest.approx(math.pi / 2.0, abs=1e-6)
    print(
        f"[acceptance] C3 MT saturation: PASS (tau*dH - pi/2 = {tau * dh - math.pi / 2:.2e}, "
        f"speed-limit gap {rep.slack:.2e})"
    )


def test_criterion_4_ml_geometric_reduction():
    """Gamma = 0, fully distinguishable endpoints: tau >= 1/(<H> - E_g).

    On a two-level instance the chain saturates at tau = pi/2 * 1/(<H>-E_g);
    the 5% equality-side check is against that best-achievable value.
    """
    model = NonHermitianModel(np.diag([0.0, 1.0]).astype(complex), np.zeros((2, 2)))
    g = lambda t: float(
        (np.exp(0.5j * t) * np.vdot(PLUS.amplitudes, propagator(model, t) @ PLUS.amplitudes)).real
    )
    tau = brentq(g, 0.5, 4.0, xtol=1e-13)
    rep = qsl_ml(model, PLUS, tau)
    assert rep.rhs == pytest.approx(1.0, abs=1e-9)  # Fid = 0
    gap = rep.params["mean_h"] - rep.params["ground_energy"]
    t_min_geometric = 1.0 / gap
    assert tau >= t_min_geometric
    assert rep.params["simple"]["weak_lhs"] >= rep.rhs - 1e-12
    saturating = math.pi / 2.0 / gap
    assert abs(tau - saturating) / saturating <= 0.05
    print(
        f"[acceptance] C4 ML reduction: PASS (tau = {tau:.6f} >= 1/gap = {t_min_geometric:.6f}, "
        f"within {abs(tau - saturating) / saturating:.2%} of the saturating time)"
    )


def test_criterion_5_dephasing_equalities():
    """Record-state overlap equals both fidelity floors, exactly, for dephasing."""
    gamma = 1.0
    model = make_dephasing(gamma)
    worst = 0.0
    for gt in (0.1, 0.5, 1.0, 2.0):
        want = math.exp(-0.5 * gamma * gt)
        overlap = open_overlap(model, PLUS, gt)
        ml = fid_ml_open(model, PLUS, gt).rhs
        mt = fid_mt_open(model, PLUS, gt).rhs
        for value in (overlap, ml, mt):
            assert abs(value - want) <= 1e-10
            worst = max(worst, abs(value - want))
        assert abs(fid_ml_open(model, PLUS, gt).slack) <= 1e-10
        assert abs(fid_mt_open(model, PLUS, gt).slack) <= 1e-10
    print(f"[acceptance] C5 dephasing equality: PASS (worst deviation {worst:.2e})")


def test_criterion_6_classical_reduction():
    """Two-state symmetric chain: Renyi speed limit and activity TUR values."""
    chain = ClassicalMarkovModel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
    tau = 1.0
    rep = qsl_classical(chain, tau)
    div_closed = -math.log((1.0 + math.exp(-2.0)) / 2.0)
    assert rep.lhs == pytest.approx(1.0, abs=1e-6)          # activity * tau
    assert rep.rhs == pytest.approx(div_closed, abs=1e-6)   # D_1/2 closed form
    assert rep.satisfied
    tur = tur_classical(chain, tau, [0.0, 1.0])
    assert tur.lhs == pytest.approx(math.e - 1.0, abs=1e-6)
    assert tur.lhs == pytest.approx(1.71828, abs=1e-5)
    assert tur.slack > 0.0
    print(
        f"[acceptance] C6 classical reduction: PASS "
        f"(D_1/2 = {rep.rhs:.6f} <= {rep.lhs:.1f}; TUR slack {tur.slack:.4f})"
    )


def test_criterion_7_trajectory_consistency():
    """10^4 dephasing trajectories reproduce the Lindblad state and jump rate."""
    start = time.monotonic()
    gamma, tau, n = 1.0, 1.0, 10_000
    model = make_dephasing(gamma)
    ens = trajectory_ensemble(model, PLUS, tau, n, seed=99, sample_times=[0.5, tau])
    worst_sigma = 0.0
    for k, t in enumerate([0.5, tau]):
        exact = evolve_lindblad(model, pure_density(PLUS), t)
        for dev, se in (
            (np.abs(ens.mean_states[k].real - exact.real), ens.stderr_real[k]),
            (np.abs(ens.mean_states[k].imag - exact.imag), ens.stderr_imag[k]),
        ):
            mask = se > 0
            assert np.all(dev[mask] <= 5.0 * se[mask])
            assert np.all(dev[~mask] <= 1e-12)  # deterministic entries: round-off only
            if mask.any():
                worst_sigma = max(worst_sigma, float((dev[mask] / se[mask]).max()))
    mean = ens.mean_jump_count()
    se = ens.jump_count_stderr()
    assert abs(mean - gamma * tau) <= 3.0 * se
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0, f"trajectories took {elapsed:.1f}s"
    print(
        f"[acceptance] C7 trajectory consistency: PASS (worst entry {worst_sigma:.2f} sigma, "
        f"jump count {mean:.4f} vs {gamma * tau}, {elapsed:.1f}s)"
    )


def test_criterion_8_derivation_chains_pointwise():
    """Intermediate inequalities hold on a 1e-3 grid for 20 random models."""
    rng = np.random.default_rng(808)
    h_grid = 1e-3
    ts = np.arange(0.0, 0.5 + h_grid / 2, h_grid)
    worst = -math.inf
    for case in range(20):
        dim = int(rng.integers(2, 4))
        model = random_commuting(dim, 50_000 + case, gamma_scale=0.4, h_scale=0.4)
        state = (
            random_pure_state(dim, 60_000 + case)
            if case % 2
            else random_density(dim, 60_000 + case)
        )
        rho0 = as_density_matrix(state)
        e_g = float(np.linalg.eigvalsh(model.h)[0])
        shifted = model.h - e_g * np.eye(dim)
        cap = float(np.trace(shifted @ rho0).real)
        mean_g = float(np.trace(model.gamma @ rho0).real)
        gen = model.full_generator()
        gen_sq = linalg.dag(gen) @ gen

        step = propagator(model, h_grid)
        decay_step = linalg.expm(-model.gamma * h_grid)
        m = np.eye(dim, dtype=complex)
        dec = np.eye(dim, dtype=complex)
        overlaps = np.empty(len(ts))
        stds = np.empty(len(ts))
        for k, t in enumerate(ts):
            # mean-term bound of the first family
            val = abs(complex(np.trace(shifted @ (np.exp(1j * e_g * t) * m) @ rho0)))
            assert val <= cap + 1e-4
            # operator Jensen step of the decay term
            lhs = float(np.trace(dec @ rho0).real)
            assert lhs >= math.exp(-mean_g * t) - 1e-4
            raw = m @ rho0 @ linalg.dag(m)
            tr = float(np.trace(raw).real)
            overlaps[k] = min(abs(complex(np.trace(m @ rho0))) / math.sqrt(tr), 1.0)
            second = float(np.trace(gen_sq @ raw).real) / tr
            mean = complex(np.trace(gen @ raw)) / tr
            stds[k] = math.sqrt(max(second - abs(mean) ** 2, 0.0))
            m = step @ m
            dec = decay_step @ dec
        # angle-velocity bound of the second family
        phi = np.arccos(np.clip(overlaps, 0.0, 1.0))
        deriv = np.abs(phi[2:] - phi[:-2]) / (2.0 * h_grid)
        slack = stds[1:-1] - deriv
        assert np.all(slack >= -1e-4), (case, float(slack.min()))
        worst = max(worst, float(-slack.min()))
    print(
        f"[acceptance] C8 derivation chains: PASS "
        f"(20 models, worst derivative-bound violation {max(worst, 0.0):.2e} <= 1e-4)"
    )


def test_criterion_9_energy_time_relation():
    """spread(C) * spread(generator) >= |d<C>/dt| / 2 on 50 random instances."""
    rng = np.random.default_rng(909)
    min_slack = math.inf
    for case in range(50):
        dim = int(rng.integers(2, 5))
        if case % 2:
            model = random_commuting(dim, 70_000 + case, gamma_scale=0.6, h_scale=0.8)
        else:
            h = random_hermitian(dim, rng, 0.8)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            gamma = 0.3 * (g @ g.conj().T) / dim
            model = NonHermitianModel(h, gamma)
        state = (
            random_pure_state(dim, 80_000 + case)
            if case % 3
            else random_density(dim, 80_000 + case)
        )
        obs = random_hermitian(dim, rng)
        t = float(rng.uniform(1e-4, 1.0))
        rep = energy_time_check(model, state, t, obs)
        assert rep.slack >= -1e-12, (case, rep.slack)
        min_slack = min(min_slack, rep.slack)
    print(f"[acceptance] C9 energy-time relation: PASS (50 instances, min slack {min_slack:.3e})")


def test_criterion_10_oracle_equivalence():
    """Integrator vs fine-step product oracle; Simpson estimate coverage."""

    # (a) time-ordered integrator against a dt = 1e-5 midpoint-product oracle
    def make_parts(a, b, w):
        def parts(t):
            h = a * math.cos(w * t) * SX + b * np.diag([1.0, -1.0])
            g = 0.2 * (1.0 + 0.5 * math.sin(0.9 * t)) * np.diag([0.0, 1.0])
            return h.astype(complex), g.astype(complex)

        return parts

    worst_dev = 0.0
    for a, b, w in ((0.4, 0.3, 1.3), (0.6, 0.1, 2.1)):
        parts = make_parts(a, b, w)
        model = NonHermitianModel(*parts(0.0), time_dependence=parts)
        t_final, dt = 0.5, 1e-5
        n = int(round(t_final / dt))
        mids = (np.arange(n) + 0.5) * dt
        hs = np.stack([parts(s)[0] for s in mids])
        gs = np.stack([parts(s)[1] for s in mids])
        oracle = tree_product(expm_2x2(-1j * dt * (hs - 1j * gs)))
        got = propagator(model, t_final)
        dev = float(np.max(np.abs(got - oracle)))
        assert dev <= 1e-6
        worst_dev = max(worst_dev, dev)

    # (b) the attached quadrature estimate bounds the error against a 10x
    # grid, both in the truncation-dominated regime (40 panels) and at the
    # production panel count (400, round-off dominated)
    coverages = []
    for panels in (40, 400):
        rng = np.random.default_rng(515)
        total = covered = 0
        for case in range(120):
            dim = int(rng.integers(2, 5))
            model = random_commuting(dim, 90_000 + case, gamma_scale=0.8, h_scale=1.0)
            rho0 = as_density_matrix(random_pure_state(dim, 91_000 + case))
            t1 = float(rng.uniform(0.0, 0.3))
            t2 = t1 + float(rng.uniform(0.1, 1.0))
            path = _mt_paths(model, rho0, [(t1, t2)], panels)[0]
            coarse, estimate = path.integral, path.quad_err
            fine = _mt_paths(model, rho0, [(t1, t2)], 10 * panels)[0].integral
            total += 1
            if abs(coarse - fine) <= estimate:
                covered += 1
        coverage = covered / total
        assert coverage >= 0.99, f"{panels} panels: coverage {coverage:.1%}"
        coverages.append(coverage)
    print(
        f"[acceptance] C10 oracle equivalence: PASS (integrator dev {worst_dev:.2e} <= 1e-6, "
        f"quadrature estimate coverage {coverages[0]:.1%} @40 / {coverages[1]:.1%} @400 panels)"
    )
