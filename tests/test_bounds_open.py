import math

import numpy as np
import pytest

from nhbounds import (
    ClassicalMarkovModel,
    DensityOperator,
    JumpCountObservable,
    LindbladModel,
    NonHermitianModel,
    StateVector,
    dynamical_activity,
    fid_ml,
    fid_ml_open,
    fid_mt,
    fid_mt_open,
    make_classical,
    make_dephasing,
    make_refrigerator,
    open_overlap,
    pure_density,
    qsl_classical,
    qsl_ml,
    qsl_ml_open,
    qsl_mt,
    qsl_mt_open,
    random_density,
    random_diagonal_jump_lindblad,
    random_pure_state,
    renyi_half,
    tur_classical,
    tur_ml,
    tur_ml_open,
    tur_mt,
    tur_mt_open,
    trajectory_ensemble,
)
from nhbounds import propagation
from nhbounds.errors import CommutatorViolation, ShapeError
from nhbounds.models import classical_initial_density, random_hermitian
from conftest import SX, p1_closed

PLUS = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
PROJ1 = np.diag([0.0, 1.0]).astype(complex)


def two_state_chain():
    return ClassicalMarkovModel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))


class TestActivityAndOverlap:
    def test_dephasing_activity_is_rate(self):
        model = make_dephasing(1.3)
        assert dynamical_activity(model, random_density(2, 1)) == pytest.approx(1.3, abs=1e-12)

    def test_refrigerator_ground_activity(self):
        model = make_refrigerator(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        ground = pure_density(StateVector(np.array([1.0, 0.0, 0.0])))
        n1, n3 = 1.0 / np.expm1(1.0), 1.0 / np.expm1(2.0)
        assert dynamical_activity(model, ground) == pytest.approx(n1 + n3, abs=1e-12)

    def test_open_overlap_dephasing(self):
        model = make_dephasing(1.0)
        for tau in (0.1, 0.5, 1.0, 2.0):
            assert open_overlap(model, PLUS, tau) == pytest.approx(
                math.exp(-tau / 2.0), abs=1e-12
            )


class TestMlOpenFidelity:
    def test_dephasing_equality(self):
        model = make_dephasing(1.0)
        for tau in (0.1, 0.5, 1.0, 2.0):
            floor = fid_ml_open(model, PLUS, tau).rhs
            assert floor == pytest.approx(math.exp(-tau / 2.0), abs=1e-12)
            rep = fid_ml_open(model, PLUS, tau)
            assert abs(rep.slack) <= 1e-10  # equality case

    def test_trivial_when_no_jumps_and_flat_hamiltonian(self):
        model = LindbladModel(0.9 * np.eye(2), ())
        assert fid_ml_open(model, PLUS, 2.0).rhs == pytest.approx(1.0, abs=1e-12)

    def test_refrigerator_ground_start(self):
        gamma = 1.0
        model = make_refrigerator(gamma, 1.0, 1.0, 1.0, 1.0, 1.0)
        ground = StateVector(np.array([1.0, 0.0, 0.0]))
        n1, n3 = 1.0 / np.expm1(1.0), 1.0 / np.expm1(2.0)
        tau = 0.8
        # <H_S>(0) = 0 = ground energy, so only the activity term survives
        want = math.exp(-0.5 * gamma * (n1 + n3) * tau)
        assert fid_ml_open(model, ground, tau).rhs == pytest.approx(want, abs=1e-12)
        rep = fid_ml_open(model, pure_density(ground), tau)
        assert rep.satisfied

    def test_noncommuting_rejected(self):
        model = LindbladModel(SX, (np.diag([0.0, 1.0]).astype(complex),))
        with pytest.raises(CommutatorViolation):
            fid_ml_open(model, PLUS, 0.5)


class TestQslMlOpen:
    def test_zero_time(self):
        rep = qsl_ml_open(make_dephasing(1.0), PLUS, 0.0)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-7)

    def test_dephasing_closed_form(self):
        rep = qsl_ml_open(make_dephasing(1.0), PLUS, 1.0)
        assert rep.lhs == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)
        fid = (1.0 + math.exp(-2.0)) / 2.0
        assert rep.rhs == pytest.approx(1.0 - math.sqrt(fid), abs=1e-9)
        assert rep.satisfied

    def test_classical_chain_reduces_to_renyi_form(self):
        chain = two_state_chain()
        model = make_classical(chain)
        rho0 = classical_initial_density(chain)
        rep = qsl_ml_open(model, rho0, 1.0)
        assert rep.satisfied
        # same content as activity*tau >= D_1/2 after rearrangement
        p1 = chain.propagate(1.0)
        div = renyi_half(chain.p0, p1)
        assert rep.lhs == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)
        assert rep.rhs == pytest.approx(1.0 - math.exp(-div / 2.0), abs=1e-9)


class TestTurMlOpen:
    def test_identity_observable(self):
        rep = tur_ml_open(make_dephasing(1.0), PLUS, 0.7, np.eye(2, dtype=complex))
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)
        assert rep.satisfied

    def test_classical_chain_values(self):
        chain = two_state_chain()
        model = make_classical(chain)
        rho0 = classical_initial_density(chain)
        rep = tur_ml_open(model, rho0, 1.0, PROJ1)
        assert rep.lhs == pytest.approx(math.e - 1.0, abs=1e-12)
        p2 = (1.0 - math.exp(-2.0)) / 2.0
        ratio_sq = (p2 / math.sqrt(p2 * (1 - p2))) ** 2
        assert rep.rhs == pytest.approx(ratio_sq, abs=1e-9)
        assert rep.params["classical_form_lhs"] == pytest.approx(rep.lhs, abs=1e-12)
        assert rep.satisfied

    def test_jump_count_poisson(self):
        gamma, tau = 1.0, 1.0
        model = make_dephasing(gamma)
        rep = tur_ml_open(model, PLUS, tau, JumpCountObservable())
        assert rep.lhs == pytest.approx(math.exp(gamma * tau) - 1.0, abs=1e-12)
        counts = rep.params["jump_count"]
        # Poisson count: mean and variance gamma*tau, exactly
        assert counts["mean"] == pytest.approx(gamma * tau, rel=1e-12)
        assert counts["var"] == pytest.approx(gamma * tau, rel=1e-12)
        assert rep.rhs == pytest.approx(gamma * tau, rel=1e-12)
        assert rep.satisfied

    def test_ml_and_mt_rows_read_equal_exact_moments(self, monkeypatch):
        calls = []
        unravel = propagation._unravel

        def counting(*args, **kwargs):
            calls.append(args[3])
            return unravel(*args, **kwargs)

        # every trajectory sampler runs this kernel
        monkeypatch.setattr(propagation, "_unravel", counting)
        model = make_dephasing(1.0)
        spec = JumpCountObservable()
        ml = tur_ml_open(model, PLUS, 0.5, spec)
        mt = tur_mt_open(model, PLUS, 0.5, spec)
        assert calls == []
        assert ml.rhs == mt.rhs and ml.params["jump_count"] == mt.params["jump_count"]
        assert ml.params["jump_count"] is not mt.params["jump_count"]
        assert mt.params["jump_count"] == {"mean": pytest.approx(0.5, rel=1e-12),
                                           "var": pytest.approx(0.5, rel=1e-12)}

    def test_jump_count_raw_density_matrix(self):
        model = make_dephasing(0.5)
        spec = JumpCountObservable()
        raw = tur_ml_open(model, np.eye(2) / 2, 0.5, spec)
        assert raw == tur_ml_open(model, DensityOperator(np.eye(2) / 2), 0.5, spec)
        with pytest.raises(ShapeError):
            tur_ml_open(model, np.ones(2) / math.sqrt(2.0), 0.5, spec)

    def test_inapplicable_on_positivity_failure(self):
        model = LindbladModel(
            np.diag([0.0, 5.0]).astype(complex), (0.1 * np.diag([1.0, 1.0]).astype(complex),)
        )
        rep = tur_ml_open(model, PLUS, 2.0, PROJ1)
        assert not rep.applicable
        assert "floor_positive" in rep.failed_conditions()


class TestMtOpenFidelity:
    def test_no_jumps_reduces_to_closed_form(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        open_model = LindbladModel(h, ())
        closed = NonHermitianModel(h, np.zeros((2, 2)))
        for tau in (0.3, 0.8):
            got = fid_mt_open(open_model, PLUS, tau).rhs
            want = fid_mt(closed, PLUS, 0.0, tau).rhs
            assert got == pytest.approx(want, abs=1e-10)

    def test_dephasing_equality(self):
        model = make_dephasing(1.0)
        for tau in (0.1, 0.5, 1.0, 2.0):
            floor = fid_mt_open(model, PLUS, tau).rhs
            assert floor == pytest.approx(math.exp(-tau / 2.0), abs=1e-10)
            rep = fid_mt_open(model, PLUS, tau)
            assert abs(rep.slack) <= 1e-10

    def test_two_level_quadrature_oracle(self, two_level_lindblad):
        # the no-jump generator equals the worked closed model, so the
        # integrand has the same closed form
        ts = np.arange(0.0, 0.5 + 1e-12, 1e-6)
        p = p1_closed(ts)
        integral = np.trapezoid(np.sqrt(1.25 * p * (1.0 - p)), dx=1e-6)
        z = (1.0 + math.exp(-0.5)) / 2.0
        want = math.sqrt(z) * math.cos(integral)
        got = fid_mt_open(two_level_lindblad, PLUS, 0.5).rhs
        assert got == pytest.approx(want, abs=1e-8)
        measured = open_overlap(two_level_lindblad, PLUS, 0.5)
        assert got <= measured + 1e-12


class TestQslMtOpen:
    def test_no_jumps_reduces_to_closed(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        open_model = LindbladModel(h, ())
        closed = NonHermitianModel(h, np.zeros((2, 2)))
        for tau in (0.4, 1.0):
            o = qsl_mt_open(open_model, PLUS, tau)
            c = qsl_mt(closed, PLUS, 0.0, tau)
            assert o.applicable
            assert o.lhs == pytest.approx(c.lhs, abs=1e-10)
            assert o.rhs == pytest.approx(c.rhs, abs=1e-8)

    def test_dephasing_domain_condition_fails(self):
        # Fid/Z = cosh(gamma tau) > 1 for tau > 0: flagged, not clamped
        model = make_dephasing(1.0)
        rep = qsl_mt_open(model, PLUS, 0.8)
        assert not rep.applicable
        assert "fid_le_z" in rep.failed_conditions()
        assert math.isnan(rep.rhs)
        assert rep.params["fidelity"] / rep.params["survival_weight"] == pytest.approx(
            math.cosh(0.8), abs=1e-9
        )
        # the pre-monotonicity inequality is an equality at every time
        assert rep.params["underlying_rhs"] == pytest.approx(0.0, abs=1e-6)
        assert rep.lhs == pytest.approx(0.0, abs=1e-6)

    def test_two_level_sweep(self, two_level_lindblad):
        saw_applicable = 0
        for tau in np.linspace(0.1, 1.0, 10):
            rep = qsl_mt_open(two_level_lindblad, PLUS, float(tau))
            if rep.applicable:
                saw_applicable += 1
                assert rep.slack >= -1e-8
        assert saw_applicable >= 2


class TestTurMtOpen:
    def test_identity_observable(self, two_level_lindblad):
        rep = tur_mt_open(two_level_lindblad, PLUS, 0.5, np.eye(2, dtype=complex))
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)
        assert rep.satisfied

    def test_dephasing_jump_count(self):
        gamma, tau = 1.0, 0.8
        model = make_dephasing(gamma)
        rep = tur_mt_open(model, PLUS, tau, JumpCountObservable())
        # Z = e^(-gamma tau) and the integrand vanishes: lhs = e^(gamma tau) - 1
        assert rep.lhs == pytest.approx(math.exp(gamma * tau) - 1.0, abs=1e-6)
        assert rep.rhs == pytest.approx(gamma * tau, rel=1e-12)
        assert rep.satisfied

    def test_two_level_sweep(self, two_level_lindblad):
        for tau in np.linspace(0.1, 1.0, 10):
            rep = tur_mt_open(two_level_lindblad, PLUS, float(tau), PROJ1)
            if rep.applicable:
                assert rep.slack >= -1e-8

    def test_convention_recorded(self, two_level_lindblad):
        rep = tur_mt_open(two_level_lindblad, PLUS, 0.3, PROJ1)
        assert rep.params["observable_convention"] == "lindblad-state"


class TestZeroStdQuadrature:
    """Where the no-jump state is an eigenstate of H_eff the integrand is
    exactly zero, so the reported integral must lie within its quad_err."""

    @staticmethod
    def assert_within_quad_err(model, state, tau):
        for rep in (fid_mt_open(model, state, tau), qsl_mt_open(model, state, tau)):
            integral = rep.params.get("integral", rep.lhs)
            assert 0.0 <= integral <= rep.params["quad_err"], (rep.kind, tau, integral)

    def test_dephasing(self):
        model = make_dephasing(0.817)
        for tau in (0.4, 1.6):
            for state in (PLUS, random_density(2, 1), random_density(2, 2)):
                self.assert_within_quad_err(model, state, tau)

    def test_classical_chain_from_basis_state(self):
        rates = np.array([[0.0, 0.7, 0.3], [0.4, 0.0, 1.1], [0.9, 0.2, 0.0]])
        for k in range(3):
            chain = ClassicalMarkovModel(rates, np.eye(3)[k])
            for tau in (0.4, 1.6):
                self.assert_within_quad_err(
                    make_classical(chain), classical_initial_density(chain), tau
                )


class TestClassicalBounds:
    def test_speed_limit_two_state_values(self):
        chain = two_state_chain()
        rep = qsl_classical(chain, 1.0)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        want = -math.log((1.0 + math.exp(-2.0)) / 2.0)
        assert rep.rhs == pytest.approx(want, abs=1e-10)
        assert rep.satisfied

    def test_tur_two_state_values(self):
        chain = two_state_chain()
        rep = tur_classical(chain, 1.0, [0.0, 1.0])
        assert rep.lhs == pytest.approx(math.e - 1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(math.tanh(1.0), abs=1e-10)
        assert rep.satisfied

    def test_random_chains_hold(self):
        rng = np.random.default_rng(8)
        for case in range(15):
            n = int(rng.integers(2, 7))
            rates = rng.uniform(0.0, 1.5, (n, n))
            p0 = rng.uniform(0.05, 1.0, n)
            chain = ClassicalMarkovModel(rates, p0 / p0.sum())
            tau = float(rng.uniform(0.05, 2.0))
            obs = rng.uniform(-1.0, 1.0, n)
            assert qsl_classical(chain, tau).slack >= -1e-8
            assert tur_classical(chain, tau, obs).slack >= -1e-8


class TestOpenClosedCollapse:
    def test_all_bounds_collapse_when_jumps_vanish(self):
        h = np.diag([0.0, 0.7]).astype(complex)
        open_model = LindbladModel(h, ())
        closed = NonHermitianModel(h, np.zeros((2, 2)))
        state = random_pure_state(2, 77)
        tau = 0.6
        assert fid_ml_open(open_model, state, tau).rhs == pytest.approx(
            fid_ml(closed, state, tau).rhs, abs=1e-10
        )
        assert fid_mt_open(open_model, state, tau).rhs == pytest.approx(
            fid_mt(closed, state, 0.0, tau).rhs, abs=1e-10
        )
        pairs = [
            (qsl_ml_open(open_model, state, tau), qsl_ml(closed, state, tau)),
            (tur_ml_open(open_model, state, tau, PROJ1), tur_ml(closed, state, tau, PROJ1)),
            (qsl_mt_open(open_model, state, tau), qsl_mt(closed, state, 0.0, tau)),
            (tur_mt_open(open_model, state, tau, PROJ1), tur_mt(closed, state, 0.0, tau, PROJ1)),
            (fid_ml_open(open_model, state, tau), fid_ml(closed, state, tau)),
            (fid_mt_open(open_model, state, tau), fid_mt(closed, state, 0.0, tau)),
        ]
        for o, c in pairs:
            assert o.lhs == pytest.approx(c.lhs, abs=1e-10), (o.kind, c.kind)
            assert o.rhs == pytest.approx(c.rhs, abs=1e-8), (o.kind, c.kind)


class TestOpenRandomizedBattery:
    def test_small_diagonal_jump_battery(self):
        rng = np.random.default_rng(55)
        for case in range(15):
            dim = int(rng.integers(2, 5))
            model = random_diagonal_jump_lindblad(dim, 3000 + case, rate_scale=0.5)
            state = (
                random_pure_state(dim, 4000 + case)
                if case % 2
                else random_density(dim, 4000 + case)
            )
            obs = random_hermitian(dim, rng)
            tau = float(rng.uniform(0.02, 0.2))
            for rep in (
                qsl_ml_open(model, state, tau),
                tur_ml_open(model, state, tau, obs),
                qsl_mt_open(model, state, tau),
                tur_mt_open(model, state, tau, obs),
                fid_ml_open(model, state, tau),
                fid_mt_open(model, state, tau),
            ):
                if rep.applicable:
                    assert rep.slack >= -1e-8, (case, rep.kind, rep.slack)
