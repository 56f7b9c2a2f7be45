import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nhbounds import (
    DensityOperator,
    LindbladModel,
    NonHermitianModel,
    StateVector,
    evolve_lindblad,
    fid_mt_open,
    generalized_std,
    liouvillian,
    make_classical,
    make_dephasing,
    make_refrigerator,
    propagator,
    pure_density,
    random_commuting,
    random_density,
    sweep,
)
from nhbounds import linalg
from nhbounds.errors import BadParameter, NonPositiveGamma, NormUnderflow
from nhbounds.models import ClassicalMarkovModel
from nhbounds.propagation import (
    _evolve_lindblad,
    _jump_count_moments,
    _normalized_density,
    _propagators,
)
from nhbounds.states import as_density_matrix
from conftest import SX, SZ, expm_2x2, random_hermitian, timed_model, tree_product


def lindblad_rhs_oracle(model, rho):
    """Direct master-equation right-hand side, independent of the Liouvillian."""
    h = model.h_s
    out = -1j * (h @ rho - rho @ h)
    for l in model.jumps:
        ldl = l.conj().T @ l
        out += l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
    return out


def lindblad_ode_oracle(model, rho0, t):
    """Integrate the master equation with solve_ivp at tight tolerance."""
    d = model.dim

    def rhs(_t, x):
        rho = (x[: d * d] + 1j * x[d * d :]).reshape(d, d)
        drho = lindblad_rhs_oracle(model, rho).reshape(-1)
        return np.concatenate([drho.real, drho.imag])

    x0 = np.concatenate([rho0.reshape(-1).real, rho0.reshape(-1).imag])
    sol = solve_ivp(rhs, (0.0, t), x0, rtol=1e-11, atol=1e-13)
    return (sol.y[: d * d, -1] + 1j * sol.y[d * d :, -1]).reshape(d, d)


class TestModelTypes:
    def test_nonhermitian_arrays_are_read_only_copies(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        g = np.diag([0.0, 0.5]).astype(complex)
        model = NonHermitianModel(h, g)
        for arr in (model.h, model.gamma):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        h[0, 0] = g[0, 0] = 2.0  # the caller's arrays stay writable
        assert model.h[0, 0] == 0.0 and model.gamma[0, 0] == 0.0

    def test_lindblad_arrays_and_operators_are_read_only(self):
        h_s = np.diag([0.0, 1.0]).astype(complex)
        jump = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        model = LindbladModel(h_s, (jump,))
        for arr in (model.h_s, model.jumps[0], model.jump_rate_operator(), liouvillian(model)):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        h_s[0, 0] = jump[0, 0] = 2.0
        assert model.h_s[0, 0] == 0.0 and model.jumps[0][0, 0] == 0.0

    def test_operators_built_once(self, two_level_lindblad):
        model = two_level_lindblad
        assert model.no_jump_model() is model.no_jump_model()
        assert model.jump_rate_operator() is model.jump_rate_operator()
        assert liouvillian(model) is liouvillian(model)

    def test_gamma_must_be_psd(self):
        with pytest.raises(NonPositiveGamma):
            NonHermitianModel(np.eye(2), np.diag([1.0, -0.5]))

    def test_effective_hamiltonian(self):
        model = make_dephasing(1.0)
        assert np.allclose(model.jump_rate_operator(), np.eye(2))
        assert np.allclose(model.effective_hamiltonian(), -0.5j * np.eye(2))

    def test_no_jump_model_equivalence(self, two_level_lindblad):
        nh = two_level_lindblad.no_jump_model()
        assert np.allclose(
            nh.full_generator(), two_level_lindblad.effective_hamiltonian()
        )


class TestEvolveNonHermitian:
    """Pure states evolved by the propagator: psi(t) = M(t) psi0."""

    def test_unitary_limit_preserves_norm(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        model = NonHermitianModel(0.5 * (h + h.conj().T), np.zeros((3, 3)))
        out = propagator(model, 2.5) @ np.array([1.0, 0.0, 0.0])
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_diagonal_closed_form(self, two_level_model, plus_state):
        out = propagator(two_level_model, 0.5) @ plus_state.amplitudes
        want = np.array([1.0, np.exp(-0.5j - 0.25)]) / np.sqrt(2.0)
        assert np.max(np.abs(out - want)) <= 1e-12
        norm = np.linalg.norm(out)
        assert norm == pytest.approx(np.sqrt((1 + np.exp(-0.5)) / 2.0), abs=1e-12)
        assert norm == pytest.approx(0.896251, abs=1e-6)

    def test_norm_underflow(self):
        model = NonHermitianModel(np.zeros((2, 2)), np.diag([40.0, 40.0]))
        with pytest.raises(NormUnderflow):
            StateVector(propagator(model, 1.0) @ np.array([1.0, 0.0]))

    def test_time_dependent_vs_product_oracle(self):
        def parts(t):
            h = 0.4 * math.cos(1.3 * t) * SX + 0.3 * SZ
            g = 0.25 * (1.0 + 0.5 * math.sin(0.7 * t)) * np.diag([0.0, 1.0])
            return h, g.astype(complex)

        model = NonHermitianModel(*parts(0.0), time_dependence=parts)
        t_final = 0.5
        n = 50_000
        dt = t_final / n
        mids = (np.arange(n) + 0.5) * dt
        gens = np.stack([-1j * dt * (parts(s)[0] - 1j * parts(s)[1]) for s in mids])
        oracle = tree_product(expm_2x2(gens))
        got = propagator(model, t_final)
        assert np.max(np.abs(got - oracle)) <= 1e-6


class TestEvolveDensityNonHermitian:
    """M rho0 M^dag, through the normalized state and its trace."""

    def test_unitary_conjugation(self):
        model = NonHermitianModel(SZ, np.zeros((2, 2)))
        rho0 = random_density(2, 3)
        out, tr = _normalized_density(propagator(model, 1.2), rho0.matrix)
        assert tr == pytest.approx(1.0, abs=1e-12)
        u = linalg.expm(-1.2j * SZ)
        assert np.max(np.abs(out - u @ rho0.matrix @ u.conj().T)) <= 1e-12

    def test_pure_state_consistency(self, two_level_model, plus_state):
        psi_t = propagator(two_level_model, 0.7) @ plus_state.amplitudes
        rho_t, tr = _normalized_density(
            propagator(two_level_model, 0.7), pure_density(plus_state).matrix
        )
        outer = np.outer(psi_t, psi_t.conj())
        assert np.max(np.abs(tr * rho_t - outer)) <= 1e-10

    def test_purification_route(self, two_level_model):
        rho0 = random_density(2, 8)
        t = 0.6
        direct, tr = _normalized_density(propagator(two_level_model, t), rho0.matrix)
        # purification sum_l sqrt(w_l) |v_l>|l> on system (x) ancilla
        w, v = np.linalg.eigh(rho0.matrix)
        da = w.size
        psi = (v * np.sqrt(np.clip(w, 0.0, None))).reshape(-1)
        big = NonHermitianModel(
            np.kron(two_level_model.h, np.eye(da)),
            np.kron(two_level_model.gamma, np.eye(da)),
        )
        evolved = (propagator(big, t) @ psi).reshape(2, da)
        traced = evolved @ evolved.conj().T  # partial trace over the ancilla
        assert np.max(np.abs(traced - tr * direct)) <= 1e-9

    def test_norm_monotone_for_commuting_models(self):
        for seed in range(5):
            model = random_commuting(4, seed, gamma_scale=0.8)
            psi0 = StateVector(np.ones(4) / 2.0)
            norms = [
                np.linalg.norm(propagator(model, t) @ psi0.amplitudes)
                for t in np.linspace(0.0, 2.0, 21)[1:]
            ]
            assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


class TestEvolveLindblad:
    def test_all_jumps_zero_is_unitary(self):
        model = LindbladModel(SZ, ())
        rho0 = random_density(2, 5)
        out = evolve_lindblad(model, rho0, 0.8)
        u = linalg.expm(-0.8j * SZ)
        assert np.max(np.abs(out - u @ rho0.matrix @ u.conj().T)) <= 1e-12

    def test_time_sequence_gives_the_stack(self):
        """A 1-D sequence of times gives the read-only stack of the states one
        call per time gives, bit for bit; a 2-D one is rejected."""
        model = make_refrigerator(1.0, 1.0, 1.0, 1.0, 1.05, 0.9)
        rho0 = random_density(3, 6)
        times = [0.25, 0.5, 1.5]
        out = evolve_lindblad(model, rho0, times)
        assert out.shape == (3, 3, 3) and not out.flags.writeable
        for t, rho in zip(times, out):
            assert np.array_equal(rho, evolve_lindblad(model, rho0, t))
        assert evolve_lindblad(model, rho0, np.array(times)).tobytes() == out.tobytes()
        with pytest.raises(BadParameter):
            evolve_lindblad(model, rho0, [times])

    def test_returns_read_only_matrix(self):
        out = evolve_lindblad(make_dephasing(1.0), StateVector(np.ones(2) / np.sqrt(2.0)), 0.5)
        assert isinstance(out, np.ndarray) and not out.flags.writeable
        assert np.array_equal(out, out.conj().T)

    def test_dephasing_closed_form_and_ode_oracle(self):
        gamma = 1.0
        model = make_dephasing(gamma)
        rho0 = DensityOperator(np.array([[0.5, 0.5], [0.5, 0.5]]))
        for t in (0.3, 1.0):
            out = evolve_lindblad(model, rho0, t)
            # coherence decays at rate 2*gamma in this normalization
            assert out[0, 1] == pytest.approx(0.5 * np.exp(-2 * gamma * t), abs=1e-10)
            oracle = lindblad_ode_oracle(model, rho0.matrix, t)
            assert np.max(np.abs(out - oracle)) <= 1e-8

    def test_refrigerator_vs_ode_oracle(self):
        model = make_refrigerator(1.0, 1.0, 0.5, 1.0, 2.0, 0.7)
        amp = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        rho0 = pure_density(StateVector(amp))
        out = evolve_lindblad(model, rho0, 0.4)
        oracle = lindblad_ode_oracle(model, rho0.matrix, 0.4)
        assert np.max(np.abs(out - oracle)) <= 1e-8
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-8)

    def test_classical_embedding_matches_classical_ode(self):
        chain = ClassicalMarkovModel(
            np.array([[0.0, 1.0, 0.2], [0.5, 0.0, 0.9], [0.4, 0.3, 0.0]]),
            np.array([0.6, 0.3, 0.1]),
        )
        model = make_classical(chain)
        rho0 = DensityOperator(np.diag(chain.p0).astype(complex))
        for t in (0.5, 1.5):
            out = evolve_lindblad(model, rho0, t)
            p_t = chain.propagate(t)
            assert np.max(np.abs(np.diagonal(out).real - p_t)) <= 1e-8
            off = out - np.diag(np.diagonal(out))
            assert linalg.max_abs(off) <= 1e-10


def no_jump_state(model, rho0, t):
    """The no-jump conditioned state M rho0 M^dag / Z, M = exp(-i H_eff t):
    the normalized state of ``model.no_jump_model()``."""
    m = propagator(model.no_jump_model(), t)
    return _normalized_density(m, as_density_matrix(rho0))[0]


def survival_weight(model, rho0, t):
    """Z = Tr[M rho0 M^dag], as the open MT rows report it."""
    return fid_mt_open(model, rho0, t).params["survival_weight"]


class TestNoJumpState:
    def test_no_jumps_is_unitary_weight_one(self):
        model = LindbladModel(SZ, ())
        rho0 = random_density(2, 9)
        assert survival_weight(model, rho0, 1.1) == pytest.approx(1.0, abs=1e-12)
        u = linalg.expm(-1.1j * SZ)
        state = no_jump_state(model, rho0, 1.1)
        assert np.max(np.abs(state - u @ rho0.matrix @ u.conj().T)) <= 1e-12

    def test_dephasing_scalar_form(self):
        gamma, t = 1.0, 0.7
        model = make_dephasing(gamma)
        rho0 = random_density(2, 10)
        assert survival_weight(model, rho0, t) == pytest.approx(np.exp(-gamma * t), abs=1e-12)
        assert np.max(np.abs(no_jump_state(model, rho0, t) - rho0.matrix)) <= 1e-12

    def test_weight_equals_branch_norm_for_pure_states(self, two_level_lindblad):
        psi0 = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        t = 0.8
        weight = survival_weight(two_level_lindblad, pure_density(psi0), t)
        branch = linalg.expm(-1j * t * two_level_lindblad.effective_hamiltonian()) @ psi0.amplitudes
        assert weight == pytest.approx(float(np.vdot(branch, branch).real), abs=1e-10)

    def test_refrigerator_vs_expm_oracle(self):
        model = make_refrigerator(0.8, 1.0, 1.0, 1.2, 0.9, 1.1)
        rho0 = random_density(3, 11)
        t = 0.5
        m = linalg.expm(-1j * t * model.effective_hamiltonian())
        raw = m @ rho0.matrix @ m.conj().T
        z = np.trace(raw).real
        assert np.max(np.abs(no_jump_state(model, rho0, t) - raw / z)) <= 1e-10
        assert survival_weight(model, rho0, t) == pytest.approx(z, abs=1e-10)

    def test_weight_underflow(self):
        model = make_dephasing(1.0)
        with pytest.raises(NormUnderflow):
            survival_weight(model, random_density(2, 12), 40.0)

    def test_weight_decreasing(self, two_level_lindblad):
        rho0 = random_density(2, 13)
        weights = [r.params["survival_weight"]
                   for _, r in sweep(two_level_lindblad, rho0, np.linspace(0, 2, 9), ["mt-open"])
                   if r.kind == "fid-mt-open"]
        assert len(weights) == 9
        assert all(b <= a + 1e-12 for a, b in zip(weights, weights[1:]))


class TestNoJumpHeffStd:
    """Generalized std of H_eff in the no-jump conditioned state."""

    @staticmethod
    def heff_std(model, rho0, t):
        return generalized_std(model.effective_hamiltonian(), no_jump_state(model, rho0, t))

    def test_scalar_effective_hamiltonian(self):
        model = make_dephasing(1.0)
        assert self.heff_std(model, random_density(2, 14), 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_constant_times_identity(self):
        model = LindbladModel(2.5 * np.eye(2), ())
        assert self.heff_std(model, random_density(2, 15), 0.3) == pytest.approx(0.0, abs=1e-14)

    def test_two_level_closed_form(self, two_level_lindblad):
        psi0 = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
        got = self.heff_std(two_level_lindblad, pure_density(psi0), 0.0)
        assert got == pytest.approx(np.sqrt(0.3125), abs=1e-12)


def test_liouvillian_action_matches_rhs(two_level_lindblad):
    rho = random_density(2, 16).matrix
    lv = liouvillian(two_level_lindblad)
    got = (lv @ rho.reshape(-1)).reshape(2, 2)
    want = lindblad_rhs_oracle(two_level_lindblad, rho)
    assert np.max(np.abs(got - want)) <= 1e-13


def sequential_span(model, t1, t2, n):
    """Node-by-node oracle: mats[k + 1] = exp(-i dt G(mid_k)) @ mats[k]."""
    times = t1 + (t2 - t1) * np.arange(n + 1) / max(n, 1)
    mats = [propagator(model, t1)]
    dt = (t2 - t1) / max(n, 1)
    step = linalg.expm(-1j * dt * model.full_generator())
    for k in range(n):
        if model.is_time_dependent:
            step = linalg.expm(-1j * dt * model.full_generator(times[k] + 0.5 * dt))
        mats.append(step @ mats[-1])
    return times, np.stack(mats)


def random_decaying_model(dim, seed):
    """Non-normal H - i Gamma: random H and a random PSD Gamma that do not commute."""
    rng = np.random.default_rng(seed)
    g = random_hermitian(dim, rng)
    return NonHermitianModel(random_hermitian(dim, rng), g @ g / dim), rng


def rel_dev(got, want):
    """Largest per-node max-abs deviation relative to the node's max-abs size."""
    return float(np.max(np.max(np.abs(got - want), axis=(-2, -1)) / np.max(np.abs(want), axis=(-2, -1))))


class TestPropagatorSpan:
    """Direct stacked propagators at the nodes of a span against the
    sequential product."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 400, 4000])
    def test_matches_sequential_product(self, n):
        for dim in range(2, 7):
            for seed in range(5):
                model, rng = random_decaying_model(dim, 1000 * dim + seed)
                t1 = float(rng.uniform(0.0, 1.0))
                t2 = t1 + float(rng.uniform(0.1, 2.0))
                times, want = sequential_span(model, t1, t2, n)
                mats = _propagators(model, times)
                assert mats.shape == want.shape
                assert rel_dev(mats, want) <= 1e-11
                if n:
                    assert rel_dev(mats[-1], propagator(model, t2)) <= 1e-11

    def test_time_dependent_running_product(self):
        """The last time sets the step: 0.7 / 2000 splits the gaps 0.1, 0.15
        and 0.45 into 286, 429 and 1286 equal midpoint steps."""

        def parts(t):
            h = 0.4 * math.cos(1.3 * t) * SX + 0.3 * SZ
            g = 0.25 * (1.0 + 0.5 * math.sin(0.7 * t)) * np.diag([0.0, 1.0])
            return h, g.astype(complex)

        model = NonHermitianModel(*parts(0.0), time_dependence=parts)
        times = np.array([0.0, 0.1, 0.25, 0.7])
        mats = _propagators(model, times)
        assert np.array_equal(mats[0], np.eye(2))
        want = np.eye(2, dtype=complex)
        for (s, t), n, m in zip(zip(times, times[1:]), (286, 429, 1286), mats[1:]):
            dt = (t - s) / n
            for k in range(n):
                want = linalg.expm(-1j * dt * model.full_generator(s + (k + 0.5) * dt)) @ want
            assert np.max(np.abs(m - want)) <= 1e-13

    def test_time_dependent_times_must_not_decrease(self):
        """The running product only moves forward, so decreasing times would
        read it at the wrong time (0.19997 for 0.2 here)."""
        with pytest.raises(BadParameter, match="nondecreasing"):
            _propagators(timed_model(), [0.7, 0.2])
        mats = _propagators(timed_model(), [0.2, 0.2, 0.7])
        assert np.array_equal(mats[0], mats[1])

    def test_constant_times_in_any_order(self):
        # the MT quadrature hands window nodes over in no global order
        model = random_commuting(2, 11, gamma_scale=0.6)
        mats = _propagators(model, [0.7, 0.0, 0.2])
        assert np.array_equal(mats, _propagators(model, [0.2, 0.0, 0.7])[::-1])


GRID_H, GRID_GAMMA = SZ, np.diag([0.0, 1.0])


@pytest.mark.parametrize("evaluate", [
    lambda: _propagators(NonHermitianModel(GRID_H, GRID_GAMMA), []),
    lambda: _propagators(NonHermitianModel(GRID_H, GRID_GAMMA,
                                           time_dependence=lambda t: (GRID_H, GRID_GAMMA)), []),
    lambda: _evolve_lindblad(make_dephasing(1.0), np.eye(2) / 2, []),
    lambda: _jump_count_moments(make_dephasing(1.0), np.eye(2) / 2, []),
    lambda: ClassicalMarkovModel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0])).propagate([]),
], ids=["propagators-constant", "propagators-time-dependent", "evolve-lindblad",
        "jump-count-moments", "classical-propagate"])
def test_empty_grid_gives_empty_stack(evaluate):
    assert len(evaluate()) == 0
