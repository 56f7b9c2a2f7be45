import math

import numpy as np
import pytest
from scipy.optimize import brentq

from nhbounds import (
    NonHermitianModel,
    StateVector,
    commutator_check,
    energy_time_check,
    fid_ml,
    fid_mt,
    generalized_std,
    ground_energy,
    make_refrigerator,
    normalized_overlap,
    propagator,
    pure_density,
    qsl_ml,
    qsl_mt,
    random_commuting,
    random_density,
    random_pure_state,
    tur_ml,
    tur_mt,
)
from nhbounds import linalg
from nhbounds.bounds import _scaled_ratios
from nhbounds.metrics import _observable_stats
from nhbounds.errors import BadParameter, CommutatorViolation, DegenerateObservable
from conftest import SX, SZ, p1_closed, random_hermitian

PLUS = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
PROJ1 = np.diag([0.0, 1.0]).astype(complex)


def rabi_model(omega=1.0):
    return NonHermitianModel(0.5 * omega * SX, np.zeros((2, 2)))


def first_orthogonal_time(model, psi0, hi):
    """Root of the signed survival amplitude Re<psi0|M(t)|psi0>."""
    g = lambda t: float(np.vdot(psi0.amplitudes, propagator(model, t) @ psi0.amplitudes).real)
    return brentq(g, 0.1, hi, xtol=1e-13)


class TestCommutatorCheck:
    def test_diagonal_pair(self):
        norm, ok = commutator_check(np.diag([1.0, 2.0]), np.diag([0.3, 0.4]))
        assert norm == 0.0 and ok

    def test_anticommuting_pair(self):
        norm, ok = commutator_check(SX, SZ)
        assert norm == pytest.approx(2.0)
        assert not ok

    def test_refrigerator_pair(self):
        model = make_refrigerator(1.0, 1.0, 0.6, 1.0, 1.3, 0.9)
        norm, ok = commutator_check(model.h_s, model.jump_rate_operator())
        assert ok and norm <= 1e-14


def test_ground_energy_matches_spectrum():
    rng = np.random.default_rng(41)
    h = random_hermitian(4, rng, 2.0)
    assert ground_energy(h) == pytest.approx(float(np.linalg.eigvalsh(h)[0]), abs=1e-12)


def scaled_ratio_sq(observable, rho_a, rho_b):
    """The ratio of one start and one end state."""
    stats = (_observable_stats(observable, np.asarray(r, dtype=complex)[None]) for r in (rho_a, rho_b))
    return _scaled_ratios(*stats)[0]


class TestScaledRatio:
    """Zero-spread branch of the mean-change-over-total-spread ratio."""

    def test_zero_spread_equal_means(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        ratio_sq, stats = scaled_ratio_sq(PROJ1, rho, rho)
        assert ratio_sq == 0.0
        assert stats["std_start"] == stats["std_end"] == 0.0

    def test_degenerate(self):
        with pytest.raises(DegenerateObservable):
            scaled_ratio_sq(PROJ1, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


class TestMlFidelityBound:
    def test_frozen_dynamics(self):
        model = NonHermitianModel(0.7 * np.eye(2), np.zeros((2, 2)))
        for tau in (0.0, 0.5, 3.0):
            assert fid_ml(model, PLUS, tau).rhs == pytest.approx(1.0, abs=1e-12)

    def test_two_level_value(self, two_level_model):
        got = fid_ml(two_level_model, PLUS, 0.5).rhs
        norm = math.sqrt((1 + math.exp(-0.5)) / 2.0)
        want = (math.exp(-0.125) - 0.25) / norm
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.705714, abs=1e-6)

    def test_floor_below_measured_fidelity(self, two_level_model):
        floor = fid_ml(two_level_model, PLUS, 0.5).rhs
        measured = normalized_overlap(two_level_model, PLUS, 0.0, 0.5)
        assert measured == pytest.approx(0.961991, abs=1e-6)
        assert measured >= floor

    def test_report_form(self, two_level_model):
        rep = fid_ml(two_level_model, PLUS, 0.5)
        assert rep.kind == "fid-ml"
        assert rep.applicable and rep.satisfied
        assert rep.slack > 0.2

    def test_noncommuting_rejected(self):
        model = NonHermitianModel(SZ, 0.5 * (np.eye(2) + SX))
        with pytest.raises(CommutatorViolation):
            fid_ml(model, PLUS, 0.3)

    def test_time_dependent_rejected(self):
        model = NonHermitianModel(
            SZ, np.zeros((2, 2)), time_dependence=lambda t: (SZ, np.zeros((2, 2)))
        )
        with pytest.raises(BadParameter):
            fid_ml(model, PLUS, 0.3)


class TestQslMl:
    def test_two_level_values(self, two_level_model):
        rep = qsl_ml(two_level_model, PLUS, 0.5)
        norm = math.sqrt((1 + math.exp(-0.5)) / 2.0)
        assert rep.lhs == pytest.approx(1.0 + (0.25 - math.exp(-0.125)) / norm, abs=1e-12)
        overlap = normalized_overlap(two_level_model, PLUS, 0.0, 0.5)
        assert rep.rhs == pytest.approx(1.0 - overlap, abs=1e-9)
        assert rep.satisfied and rep.applicable

    def test_zero_time_equality(self, two_level_model):
        rep = qsl_ml(two_level_model, PLUS, 0.0)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-7)

    def test_simple_variant_gated_on_positivity(self, two_level_model):
        rep = qsl_ml(two_level_model, PLUS, 0.5)
        simple = rep.params["simple"]
        assert simple["applicable"]
        assert simple["lhs"] == pytest.approx(0.25 + 1.0 - math.exp(-0.125), abs=1e-12)
        assert simple["lhs"] >= simple["rhs"]
        assert simple["weak_lhs"] >= simple["lhs"] - 1e-12
        late = qsl_ml(two_level_model, PLUS, 5.0)
        assert not late.params["simple"]["applicable"]
        assert ("floor_positive", False) in late.conditions

    def test_geometric_reduction_at_orthogonality(self):
        # Gamma = 0, fully distinguishable endpoints: the weak form reads
        # tau >= 1/(<H> - E_g).  Derotate by the mean energy so the survival
        # amplitude is real and sign-changing for the root finder.
        model = NonHermitianModel(np.diag([0.0, 1.0]).astype(complex), np.zeros((2, 2)))
        g = lambda t: float(
            (np.exp(0.5j * t) * np.vdot(PLUS.amplitudes, propagator(model, t) @ PLUS.amplitudes)).real
        )
        tau = brentq(g, 0.1, 4.0, xtol=1e-13)
        rep = qsl_ml(model, PLUS, tau)
        assert rep.rhs == pytest.approx(1.0, abs=1e-9)  # fully distinguishable
        de = rep.params["mean_h"] - rep.params["ground_energy"]
        assert tau >= 1.0 / de
        assert rep.params["tau_min_geometric"] == pytest.approx(1.0 / de, abs=1e-9)


class TestTurMl:
    def test_identity_observable(self, two_level_model):
        rep = tur_ml(two_level_model, PLUS, 0.5, np.eye(2, dtype=complex))
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)
        assert rep.satisfied

    def test_two_level_values(self, two_level_model):
        rep = tur_ml(two_level_model, PLUS, 0.5, PROJ1)
        norm_sq = (1 + math.exp(-0.5)) / 2.0
        raw = math.exp(-0.125) - 0.25
        assert rep.lhs == pytest.approx(norm_sq / raw**2 - 1.0, abs=1e-12)
        assert rep.lhs == pytest.approx(1.007901, abs=1e-6)
        p1 = p1_closed(0.5)
        ratio_sq = ((p1 - 0.5) / (math.sqrt(p1 * (1 - p1)) + 0.5)) ** 2
        assert rep.rhs == pytest.approx(ratio_sq, abs=1e-12)
        assert rep.rhs == pytest.approx(0.015464, abs=1e-6)
        loose = rep.params["loose"]
        assert loose["lhs"] >= rep.lhs

    def test_slack_vanishes_linearly(self, two_level_model):
        taus = (1e-3, 2e-3, 4e-3)
        slacks = [tur_ml(two_level_model, PLUS, t, PROJ1).slack for t in taus]
        assert all(s >= 0 for s in slacks)
        # halving tau roughly halves the slack
        assert slacks[1] / slacks[0] == pytest.approx(2.0, rel=0.3)
        assert slacks[2] / slacks[1] == pytest.approx(2.0, rel=0.3)

    def test_inapplicable_when_floor_negative(self, two_level_model):
        rep = tur_ml(two_level_model, PLUS, 5.0, PROJ1)
        assert not rep.applicable
        assert "floor_positive" in rep.failed_conditions()


class TestMtFidelityBound:
    def test_constant_std_hermitian(self):
        model = NonHermitianModel(SZ, np.zeros((2, 2)))
        dh = generalized_std(SZ, PLUS)
        for window in ((0.0, 0.4), (0.3, 0.9)):
            got = fid_mt(model, PLUS, *window).rhs
            assert got == pytest.approx(math.cos(dh * (window[1] - window[0])), abs=1e-12)

    def test_rabi_saturation(self):
        model = rabi_model()
        psi0 = StateVector(np.array([1.0, 0.0]))
        for tau in (0.5, 1.5, 3.0):
            floor = fid_mt(model, psi0, 0.0, tau).rhs
            measured = normalized_overlap(model, psi0, 0.0, tau)
            assert measured == pytest.approx(abs(math.cos(0.5 * tau)), abs=1e-12)
            if tau * 0.5 <= math.pi / 2:
                assert floor == pytest.approx(measured, abs=1e-9)

    def test_simpson_vs_fine_grid_oracle(self, two_level_model):
        # closed-form integrand sqrt(1.25 p (1-p)) on a 1e-6 trapezoid grid
        ts = np.arange(0.0, 0.5 + 1e-12, 1e-6)
        p = p1_closed(ts)
        vals = np.sqrt(1.25 * p * (1.0 - p))
        oracle = np.trapezoid(vals, dx=1e-6)
        got = fid_mt(two_level_model, PLUS, 0.0, 0.5).rhs
        assert got == pytest.approx(math.cos(oracle), abs=1e-8)
        rep = fid_mt(two_level_model, PLUS, 0.0, 0.5)
        assert rep.params["integral"] == pytest.approx(oracle, abs=1e-8)
        assert rep.satisfied and rep.applicable
        assert rep.lhs >= rep.rhs


class TestQslMt:
    def test_degenerate_window(self, two_level_model):
        rep = qsl_mt(two_level_model, PLUS, 0.5, 0.5)
        assert rep.lhs == 0.0
        assert rep.rhs == pytest.approx(0.0, abs=1e-7)

    def test_rabi_equality_at_orthogonality(self):
        model = rabi_model()
        psi0 = StateVector(np.array([1.0, 0.0]))
        tau = first_orthogonal_time(model, psi0, 4.0)
        rep = qsl_mt(model, psi0, 0.0, tau)
        assert rep.applicable
        assert rep.lhs == pytest.approx(math.pi / 2.0, abs=1e-9)
        assert rep.rhs == pytest.approx(math.pi / 2.0, abs=1e-9)
        assert abs(rep.slack) <= 1e-6

    def test_two_level_window(self, two_level_model):
        rep = qsl_mt(two_level_model, PLUS, 0.0, 0.5)
        assert rep.satisfied and rep.applicable
        assert rep.slack <= 1e-3  # the bound is tight on this model
        assert rep.params["tau_min"] <= 0.5 + 1e-12
        assert rep.params["quad_err"] <= 1e-10


class TestTurMt:
    def test_identity_observable(self, two_level_model):
        rep = tur_mt(two_level_model, PLUS, 0.0, 0.5, np.eye(2, dtype=complex))
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)

    def test_two_level_holds(self, two_level_model):
        rep = tur_mt(two_level_model, PLUS, 0.0, 0.5, PROJ1)
        assert rep.satisfied and rep.applicable
        et = rep.params["energy_time"]
        assert et["slack"] >= -1e-8

    def test_energy_time_against_analytic_derivative(self, two_level_model):
        # d<P1>/dt = -p(1-p) for the worked model
        t = 0.25
        rep = energy_time_check(two_level_model, PLUS, t, PROJ1)
        p = p1_closed(t)
        assert rep.params["mean_derivative"] == pytest.approx(-p * (1 - p), abs=1e-12)
        assert rep.lhs == pytest.approx(
            math.sqrt(p * (1 - p)) * math.sqrt(1.25 * p * (1 - p)), abs=1e-9
        )
        assert rep.slack >= 0.0

    def test_rabi_projector_equality(self):
        # <P0> = cos^2(t/2): spread(C) * spread(H) equals |d<C>/dt| / 2 exactly
        model = rabi_model()
        psi0 = StateVector(np.array([1.0, 0.0]))
        proj0 = np.diag([1.0, 0.0]).astype(complex)
        rep = energy_time_check(model, psi0, 0.3, proj0)
        assert rep.slack == pytest.approx(0.0, abs=1e-12)

    def test_window_exceeded_flagged(self):
        model = rabi_model(omega=4.0)
        psi0 = StateVector(np.array([1.0, 0.0]))
        rep = tur_mt(model, psi0, 0.0, 1.0, PROJ1)
        assert not rep.applicable
        assert "window_lt_half_pi" in rep.failed_conditions()


class TestDerivationChains:
    """Pointwise intermediate inequalities behind the two bound families."""

    def test_mean_term_bound(self):
        # |<psi(0)|(H - E_g) e^{i E_g t} M(t)|psi(0)>| <= <H>(0) - E_g
        for seed in range(8):
            model = random_commuting(3, 200 + seed, gamma_scale=0.5)
            rho0 = random_density(3, 300 + seed).matrix
            e_g = ground_energy(model.h)
            shifted = model.h - e_g * np.eye(3)
            cap = float(np.trace(shifted @ rho0).real)
            for t in np.linspace(0.0, 2.0, 9):
                m = propagator(model, t) * np.exp(1j * e_g * t)
                val = abs(complex(np.trace(shifted @ m @ rho0)))
                assert val <= cap + 1e-10

    def test_jensen_step(self):
        # Tr[e^(-Gamma t) rho] >= e^(-t Tr[Gamma rho])
        for seed in range(8):
            model = random_commuting(3, 400 + seed, gamma_scale=1.0)
            rho0 = random_density(3, 500 + seed).matrix
            mean_g = float(np.trace(model.gamma @ rho0).real)
            for t in np.linspace(0.0, 3.0, 7):
                lhs = float(np.trace(linalg.expm(-model.gamma * t) @ rho0).real)
                assert lhs >= math.exp(-mean_g * t) - 1e-12

    def test_norm_identity_commuting(self):
        # ||psi(t)||^2 = Tr[e^(-2 Gamma t) rho] when [H, Gamma] = 0
        model = random_commuting(3, 600, gamma_scale=0.7)
        psi0 = random_pure_state(3, 601)
        for t in (0.3, 1.0, 2.0):
            norm_sq = np.linalg.norm(propagator(model, t) @ psi0.amplitudes) ** 2
            want = float(
                np.vdot(psi0.amplitudes, linalg.expm(-2 * model.gamma * t) @ psi0.amplitudes).real
            )
            assert norm_sq == pytest.approx(want, abs=1e-10)

    def test_deviation_vector_norm_identity(self):
        # ||(G - <G>)|psi>|| equals the generalized std
        rng = np.random.default_rng(43)
        for _ in range(6):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            psi = random_pure_state(3, int(rng.integers(0, 1 << 30)))
            mean = complex(np.vdot(psi.amplitudes, g @ psi.amplitudes))
            residual = g @ psi.amplitudes - mean * psi.amplitudes
            assert float(np.linalg.norm(residual)) == pytest.approx(
                generalized_std(g, psi), abs=1e-12
            )

    def test_angle_velocity_bound(self):
        # |d/dt arccos|<psi~(0)|psi~(t)>|| <= std of the generator (fine grid)
        model = random_commuting(2, 700, gamma_scale=0.3, h_scale=0.3)
        psi0 = random_pure_state(2, 701)
        rho0 = pure_density(psi0).matrix
        h = 1e-3
        ts = np.arange(0.0, 0.5 + h / 2, h)
        step = propagator(model, h)
        mats = [np.eye(2, dtype=complex)]
        for _ in range(len(ts) - 1):
            mats.append(step @ mats[-1])
        overlaps, stds = [], []
        gen = model.full_generator()
        gen_sq = linalg.dag(gen) @ gen
        for m in mats:
            raw = m @ rho0 @ linalg.dag(m)
            tr = float(np.trace(raw).real)
            num = abs(complex(np.trace(m @ rho0)))
            overlaps.append(min(num / math.sqrt(tr), 1.0))
            second = float(np.trace(gen_sq @ raw).real) / tr
            mean = complex(np.trace(gen @ raw)) / tr
            stds.append(math.sqrt(max(second - abs(mean) ** 2, 0.0)))
        phi = np.arccos(np.clip(overlaps, 0.0, 1.0))
        deriv = (phi[2:] - phi[:-2]) / (2 * h)
        for k, d in enumerate(deriv, start=1):
            assert abs(d) <= stds[k] + 1e-4


class TestRandomizedBattery:
    def test_small_commuting_battery(self):
        rng = np.random.default_rng(99)
        for case in range(20):
            dim = int(rng.integers(2, 5))
            model = random_commuting(dim, 1000 + case, gamma_scale=0.6, h_scale=0.8)
            state = (
                random_pure_state(dim, 2000 + case)
                if case % 2
                else random_density(dim, 2000 + case)
            )
            obs = random_hermitian(dim, rng)
            tau = float(rng.uniform(0.05, 0.3))
            for rep in (
                qsl_ml(model, state, tau),
                tur_ml(model, state, tau, obs),
                qsl_mt(model, state, 0.0, tau),
                tur_mt(model, state, 0.0, tau, obs),
                fid_ml(model, state, tau),
                fid_mt(model, state, 0.0, tau),
            ):
                if rep.applicable:
                    assert rep.slack >= -1e-8, (case, rep.kind, rep.slack)
