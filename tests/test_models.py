import numpy as np
import pytest

from nhbounds import (
    ClassicalMarkovModel,
    DensityOperator,
    StateVector,
    commutator_check,
    evolve_lindblad,
    make_classical,
    make_dephasing,
    make_refrigerator,
    pure_density,
    random_commuting,
    random_diagonal_jump_lindblad,
)
from nhbounds import linalg
from nhbounds.errors import BadParameter, NotDistribution
from nhbounds.models import classical_initial_density


class TestDephasing:
    def test_structure(self):
        model = make_dephasing(1.0)
        assert linalg.max_abs(model.h_s) == 0.0
        assert np.allclose(model.jump_rate_operator(), np.eye(2))
        assert np.allclose(model.effective_hamiltonian(), -0.5j * np.eye(2))

    def test_commutes_trivially(self):
        model = make_dephasing(0.7)
        _, ok = commutator_check(model.h_s, model.jump_rate_operator())
        assert ok

    def test_long_time_coherence_vanishes(self):
        model = make_dephasing(1.0)
        rho0 = DensityOperator(np.array([[0.5, 0.5], [0.5, 0.5]]))
        out = evolve_lindblad(model, rho0, 20.0)
        assert abs(out[0, 1]) <= 1e-8

    def test_bad_parameter(self):
        with pytest.raises(BadParameter):
            make_dephasing(0.0)
        with pytest.raises(BadParameter):
            make_dephasing(-1.0)


class TestRefrigerator:
    def test_rate_values(self):
        # gamma = 1, beta1*omega1 = 1: occupation 1/(e - 1)
        model = make_refrigerator(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        n1 = 1.0 / np.expm1(1.0)
        up = model.jumps[1]  # g -> A
        down = model.jumps[0]  # A -> g
        assert abs(up[1, 0]) ** 2 == pytest.approx(n1, abs=1e-12)
        assert abs(down[0, 1]) ** 2 == pytest.approx(n1 + 1.0, abs=1e-12)
        assert abs(up[1, 0]) ** 2 == pytest.approx(0.581977, abs=1e-6)
        assert abs(down[0, 1]) ** 2 == pytest.approx(1.581977, abs=1e-6)

    def test_detailed_balance(self):
        model = make_refrigerator(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        w_up = abs(model.jumps[1][1, 0]) ** 2
        w_down = abs(model.jumps[0][0, 1]) ** 2
        assert w_up / w_down == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_hamiltonian_levels(self):
        model = make_refrigerator(1.0, 0.8, 0.5, 1.0, 1.0, 1.0)
        assert np.allclose(np.diagonal(model.h_s).real, [0.0, 0.8, 1.3])

    def test_commuting_structure(self):
        model = make_refrigerator(1.0, 1.0, 0.5, 1.2, 0.8, 1.0)
        norm, ok = commutator_check(model.h_s, model.jump_rate_operator())
        assert ok
        assert norm <= 1e-14

    def test_zero_temperature_limit(self):
        model = make_refrigerator(1.0, 1.0, 1.0, 40.0, 40.0, 40.0)
        # upward rates vanish, downward rates approach gamma
        assert abs(model.jumps[1][1, 0]) ** 2 <= 1e-12
        assert abs(model.jumps[0][0, 1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_ground_state_activity(self):
        gamma = 1.0
        model = make_refrigerator(gamma, 1.0, 1.0, 1.0, 1.0, 1.0)
        ground = StateVector(np.array([1.0, 0.0, 0.0]))
        n1 = 1.0 / np.expm1(1.0)
        n3 = 1.0 / np.expm1(2.0)
        got = np.trace(model.jump_rate_operator() @ pure_density(ground).matrix).real
        assert got == pytest.approx(gamma * (n1 + n3), abs=1e-12)

    def test_coherent_start_develops_off_diagonals(self):
        model = make_refrigerator(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        rho0 = pure_density(StateVector(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)))
        out = evolve_lindblad(model, rho0, 0.3)
        off = out - np.diag(np.diagonal(out))
        assert linalg.max_abs(off) > 1e-3

    def test_bad_parameter(self):
        with pytest.raises(BadParameter):
            make_refrigerator(1.0, -1.0, 1.0, 1.0, 1.0, 1.0)


class TestClassicalMarkov:
    def test_two_state_closed_form(self):
        chain = ClassicalMarkovModel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
        for t in (0.3, 1.0, 2.5):
            p = chain.propagate(t)
            assert p[0] == pytest.approx((1 + np.exp(-2 * t)) / 2, abs=1e-12)
            assert p[1] == pytest.approx((1 - np.exp(-2 * t)) / 2, abs=1e-12)

    def test_activity(self):
        chain = ClassicalMarkovModel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
        assert chain.activity() == pytest.approx(1.0)
        model = make_classical(chain)
        rho0 = classical_initial_density(chain).matrix
        assert np.trace(model.jump_rate_operator() @ rho0).real == pytest.approx(1.0)

    def test_generator_columns_sum_to_zero(self):
        rng = np.random.default_rng(31)
        rates = rng.uniform(0, 2, (4, 4))
        chain = ClassicalMarkovModel(rates, np.full(4, 0.25))
        g = chain.generator()
        assert np.allclose(g.sum(axis=0), 0.0, atol=1e-12)

    def test_absorbing_chain_reaches_stationary(self):
        # one-directional: state 1 -> state 2 only
        chain = ClassicalMarkovModel(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
        p = chain.propagate(50.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        assert p[1] == pytest.approx(1.0, abs=1e-10)
        model = make_classical(chain)
        out = evolve_lindblad(model, classical_initial_density(chain), 50.0)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-8)

    def test_embedding_keeps_diagonal(self):
        rng = np.random.default_rng(32)
        chain = ClassicalMarkovModel(rng.uniform(0, 1, (3, 3)), np.array([0.2, 0.5, 0.3]))
        model = make_classical(chain)
        # H_S = 0 and every jump is one positive off-diagonal entry
        assert linalg.max_abs(model.h_s) == 0.0
        for l in model.jumps:
            ((nu, mu),) = np.argwhere(l != 0)
            assert nu != mu and l[nu, mu].real > 0 and l[nu, mu].imag == 0
        rho0 = classical_initial_density(chain)
        for t in (0.2, 0.9, 2.0):
            out = evolve_lindblad(model, rho0, t)
            off = out - np.diag(np.diagonal(out))
            assert linalg.max_abs(off) <= 1e-10

    def test_rejects_bad_inputs(self):
        with pytest.raises(BadParameter):
            ClassicalMarkovModel(np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
        with pytest.raises(NotDistribution):
            ClassicalMarkovModel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.5]))


class TestRandomEnsembles:
    def test_zero_gamma_scale_is_hermitian_model(self):
        model = random_commuting(3, 5, gamma_scale=0.0)
        assert linalg.max_abs(model.gamma) == 0.0

    def test_gamma_psd_by_construction(self):
        for seed in range(10):
            model = random_commuting(4, seed, gamma_scale=2.0)
            assert np.linalg.eigvalsh(model.gamma)[0] >= -1e-12

    def test_commutator_passes(self):
        for seed in range(10):
            model = random_commuting(5, 100 + seed)
            _, ok = commutator_check(model.h, model.gamma)
            assert ok

    def test_byte_identical_for_fixed_seed(self):
        a = random_commuting(4, 77)
        b = random_commuting(4, 77)
        assert a.h.tobytes() == b.h.tobytes()
        assert a.gamma.tobytes() == b.gamma.tobytes()
        c = random_commuting(4, 78)
        assert a.h.tobytes() != c.h.tobytes()

    def test_diagonal_jump_models_commute(self):
        for seed in range(10):
            model = random_diagonal_jump_lindblad(4, seed)
            _, ok = commutator_check(model.h_s, model.jump_rate_operator())
            assert ok
            assert model.n_channels >= 1

    def test_diagonal_jump_deterministic(self):
        a = random_diagonal_jump_lindblad(3, 9)
        b = random_diagonal_jump_lindblad(3, 9)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.jumps, b.jumps))

