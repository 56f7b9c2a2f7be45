"""One ML evaluation, one normalized path and one Lindblad state per time
point: the one-entry memo in ``bounds`` and the work it saves."""

from collections import Counter

import numpy as np
import pytest

from nhbounds import (
    DensityOperator,
    JumpCountObservable,
    LindbladModel,
    StateVector,
    fid_ml,
    fid_ml_open,
    make_dephasing,
    normalized_overlap,
    open_overlap,
    pure_density,
    qsl_ml,
    qsl_mt,
    random_commuting,
    random_density,
    random_diagonal_jump_lindblad,
    random_pure_state,
    tur_ml_open,
    tur_mt_open,
)
from nhbounds import bounds as bnd
from nhbounds import cli, linalg
from nhbounds.states import as_density_matrix

PATH_FIELDS = ("integral", "quad_err", "rho1", "rho2", "tr1", "tr2", "overlap")


def assert_same_path(a, b):
    for name in PATH_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), name
        else:
            assert x == y, name


def count_calls(monkeypatch, *names):
    """Count calls made through the names ``bounds`` imports."""
    counts = Counter()
    for name in names:
        fn = getattr(bnd, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(bnd, name, counted)
    return counts


@pytest.fixture
def closed_case():
    return random_commuting(3, 7, gamma_scale=0.8), random_pure_state(3, 8)


def test_hit_is_bitwise_equal_to_cold_call(closed_case):
    model, psi = closed_case
    rho0 = as_density_matrix(psi)
    cold = bnd._mt_path(model, rho0, 0.1, 0.6, 40)
    assert bnd._mt_path(model, rho0.copy(), 0.1, 0.6, 40) is cold
    bnd._mt_path(model, rho0, 0.0, 0.6, 40)  # evicts the entry
    again = bnd._mt_path(model, rho0, 0.1, 0.6, 40)
    assert again is not cold
    assert_same_path(again, cold)


def test_rows_of_a_time_point_share_one_path(closed_case, monkeypatch):
    model, psi = closed_case
    counts = count_calls(monkeypatch, "propagator_span")
    obs = np.diag([0.0, 0.0, 1.0]).astype(complex)
    bnd.fid_mt(model, psi, 0.0, 0.9)
    bnd.qsl_mt(model, psi, 0.0, 0.9)
    bnd.tur_mt(model, psi, 0.0, 0.9, obs)
    assert counts["propagator_span"] == 1


@pytest.mark.parametrize("change", ["steps", "t1", "t2", "model"])
def test_changed_argument_misses(closed_case, change):
    model, psi = closed_case
    rho0 = as_density_matrix(psi)
    args = {"model": model, "t1": 0.1, "t2": 0.6, "steps": 40}
    first = bnd._mt_path(model, rho0, 0.1, 0.6, 40)
    args[change] = {
        "steps": 80,
        "t1": 0.2,
        "t2": 0.7,
        "model": random_commuting(3, 7, gamma_scale=0.8),  # equal contents, new model
    }[change]
    fresh = bnd._mt_path(args["model"], rho0, args["t1"], args["t2"], args["steps"])
    assert fresh is not first
    if change == "model":
        assert_same_path(fresh, first)
    else:
        assert fresh.integral != first.integral


def test_ml_hit_is_bitwise_equal_to_cold_call(closed_case):
    model, psi = closed_case
    cold = bnd._ml_point(model, psi, 0.6)
    assert bnd._ml_point(model, StateVector(psi.amplitudes.copy()), 0.6) is cold
    bnd._ml_point(model, psi, 0.7)  # evicts the entry
    again = bnd._ml_point(model, psi, 0.6)
    assert again is not cold
    assert np.array_equal(again.rho0, cold.rho0) and np.array_equal(again.m, cold.m)
    assert again.overlap == cold.overlap and again.params == cold.params


@pytest.mark.parametrize("change", ["tau", "model", "state"])
def test_ml_rows_miss_on_a_changed_point(closed_case, change, monkeypatch):
    model, psi = closed_case
    state = StateVector(psi.amplitudes.copy())
    tau = 0.6
    counts = count_calls(monkeypatch, "propagator")
    fid_ml(model, state, tau)
    if change == "tau":
        tau = 0.7
    elif change == "model":
        model = random_commuting(3, 7, gamma_scale=0.8)  # equal contents, new model
    else:
        state.amplitudes[:] = random_pure_state(3, 9).amplitudes
    got = qsl_ml(model, state, tau)
    assert counts["propagator"] == 2
    bnd._ml_point(model, psi, 0.1)  # evicts the entry
    want = qsl_ml(model, StateVector(state.amplitudes.copy()), tau)
    assert got.lhs == want.lhs and got.rhs == want.rhs


@pytest.mark.parametrize("case", range(20))
def test_ml_overlaps_equal_the_reference(case):
    """The ML rows read the shared point; the public overlaps compute it
    straight from ``propagator``, and both agree exactly."""
    rng = np.random.default_rng(4_000 + case)
    dim = int(rng.integers(2, 5))
    state = random_pure_state(dim, rng) if case % 2 else random_density(dim, rng)
    tau = float(rng.uniform(0.0, 2.0))
    closed = random_commuting(dim, 5_000 + case, gamma_scale=1.5)
    assert fid_ml(closed, state, tau).lhs == normalized_overlap(closed, state, 0.0, tau)
    lindblad = random_diagonal_jump_lindblad(dim, 6_000 + case)
    assert fid_ml_open(lindblad, state, tau).lhs == open_overlap(lindblad, state, tau)


@pytest.mark.parametrize("kind", ["vector", "density", "array"])
def test_state_mutated_in_place_misses(closed_case, kind):
    model, psi = closed_case
    other = random_pure_state(3, 9)
    make = {
        "vector": lambda s: StateVector(s.amplitudes.copy()),
        "density": lambda s: DensityOperator(pure_density(s).matrix.copy()),
        "array": lambda s: pure_density(s).matrix.copy(),
    }[kind]
    want = qsl_mt(model, make(other), 0.0, 0.8)
    qsl_mt(model, make(psi), 0.0, 0.5)  # evicts the entry
    state = make(psi)
    before = qsl_mt(model, state, 0.0, 0.8)
    target = make(other)
    if kind == "vector":
        state.amplitudes[:] = target.amplitudes
    elif kind == "density":
        state.matrix[:] = target.matrix
    else:
        state[:] = target
    after = qsl_mt(model, state, 0.0, 0.8)
    assert after.lhs == want.lhs and after.rhs == want.rhs
    assert after.lhs != before.lhs


def test_lindblad_state_shared_by_the_open_rows(monkeypatch):
    model = make_dephasing(0.7)
    psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    counts = count_calls(monkeypatch, "evolve_lindblad", "propagator_span")
    obs = np.diag([0.0, 1.0]).astype(complex)
    bnd.qsl_ml_open(model, psi, 0.6)
    bnd.tur_ml_open(model, psi, 0.6, obs)
    bnd.fid_mt_open(model, psi, 0.6)
    bnd.qsl_mt_open(model, psi, 0.6)
    bnd.tur_mt_open(model, psi, 0.6, obs)
    assert counts == {"evolve_lindblad": 1, "propagator_span": 1}


def decay_model():
    """One jump |0><1| at unit rate: from |1> the count is positive, from |0> zero."""
    return LindbladModel(np.zeros((2, 2)), (np.array([[0.0, 1.0], [0.0, 0.0]]),))


def test_jump_count_state_mutated_between_rows_gets_fresh_moments():
    model = decay_model()
    psi = StateVector(np.array([0.0, 1.0]))
    spec = JumpCountObservable()
    ml = tur_ml_open(model, psi, 1.0, spec)
    psi.amplitudes[:] = [1.0, 0.0]
    mt = tur_mt_open(model, psi, 1.0, spec)
    assert ml.params["jump_count"]["mean"] > 0.5
    assert mt.params["jump_count"]["mean"] == 0.0


def run_check(tmp_path, monkeypatch, argv, names=("propagator_span", "evolve_lindblad")):
    counts = count_calls(monkeypatch, *names)
    code = cli.main(["check", *argv, "--out", str(tmp_path / "out.csv")])
    assert code == 0
    return counts


def test_work_count_open_sweep(tmp_path, monkeypatch):
    """One span and one Lindblad evolution per time point (three spans and
    four evolutions per time point without the sharing)."""
    counts = run_check(tmp_path, monkeypatch, [
        "--model", "builtin:refrigerator?beta2=1.05&beta3=0.9", "--state", "plus",
        "--bounds", "ml-open,mt-open", "--t-final", "1.0", "--steps", "4",
    ])
    assert counts == {"propagator_span": 4, "evolve_lindblad": 4}


def test_work_count_closed_window(tmp_path, monkeypatch):
    """One span per time point and one for the extra window."""
    counts = run_check(tmp_path, monkeypatch, [
        "--model", "builtin:random-commuting?dim=3&seed=4", "--state", "plus",
        "--bounds", "mt", "--t-final", "1.0", "--steps", "2", "--tau1", "0.2", "--tau2", "0.7",
    ])
    assert counts == {"propagator_span": 3}


def test_work_count_closed_ml(tmp_path, monkeypatch):
    """One propagator, one matrix exponential and one commutator check per
    time point (five, four and three without the sharing)."""
    expm_calls = []
    expm = linalg.expm
    monkeypatch.setattr(linalg, "expm", lambda a: expm_calls.append(a) or expm(a))
    counts = run_check(tmp_path, monkeypatch, [
        "--model", "builtin:random-commuting?dim=3&seed=4", "--state", "plus",
        "--bounds", "ml", "--t-final", "1.0", "--steps", "1",
    ], names=("propagator", "commutator_check"))
    assert counts == {"propagator": 1, "commutator_check": 1}
    assert len(expm_calls) == 1


def test_work_count_open_ml(tmp_path, monkeypatch):
    """One commutator check per time point (three without the sharing)."""
    counts = run_check(tmp_path, monkeypatch, [
        "--model", "builtin:refrigerator?beta2=1.05&beta3=0.9", "--state", "plus",
        "--bounds", "ml-open", "--t-final", "1.0", "--steps", "4",
    ], names=("commutator_check",))
    assert counts == {"commutator_check": 4}
