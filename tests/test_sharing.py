"""One evaluation per sweep: ``bounds.sweep`` validates the state and
observable once and calls each group's row builder once, which checks the
model and evaluates one stack per part (MT integrals, Lindblad states,
fidelities, jump-count moments, chain distributions); the ML and MT families
read one stack of propagators at the window ends, and both open groups one
Lindblad stack, one fidelity stack and one stack of open TUR ratios.  A
grid sweep's rows equal those of one-point sweeps bit for bit, and the
public row functions are one-point sweeps."""

import math
from collections import Counter

import numpy as np
import pytest

from nhbounds import (
    ClassicalMarkovModel,
    DensityOperator,
    JumpCountObservable,
    LindbladModel,
    NonHermitianModel,
    StateVector,
    fid_ml,
    fid_ml_open,
    make_dephasing,
    make_refrigerator,
    propagator,
    pure_density,
    qsl_mt,
    random_commuting,
    random_density,
    random_diagonal_jump_lindblad,
    random_pure_state,
    sweep,
    tur_ml_open,
    tur_mt_open,
)
from nhbounds import bounds as bnd
from nhbounds import cli, linalg, metrics, serialize
from nhbounds.errors import BadParameter, SimulationError
from nhbounds.states import as_density_matrix

from conftest import noncommuting_model, timed_model

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


def count_propagators(monkeypatch, counts):
    """Count every ``_propagators`` stack under ``_propagators``, and return
    the list of each stack's member count."""
    members = []
    propagators = bnd._propagators

    def counted(model, times):
        counts["_propagators"] += 1
        members.append(len(times))
        return propagators(model, times)

    monkeypatch.setattr(bnd, "_propagators", counted)
    return members


def sweep_of(model, state, times, observable=None):
    """A sweep's shared evaluation, for calling the row builders directly."""
    rho0 = as_density_matrix(state)
    rho0.setflags(write=False)
    return bnd._Sweep(model, None, rho0, times, observable, None, bnd.DEFAULT_QUAD_STEPS)


def count_fidelities(monkeypatch, counts):
    """Count the stacked fidelity calls under the key ``fidelity``."""
    fidelities = metrics._fidelities
    monkeypatch.setattr(
        metrics, "_fidelities", lambda *a: counts.update(["fidelity"]) or fidelities(*a)
    )


@pytest.fixture
def closed_case():
    return random_commuting(3, 7, gamma_scale=0.8), random_pure_state(3, 8)


def test_rows_of_a_time_point_share_one_path(closed_case, monkeypatch):
    """Each group's builder runs once per sweep, in either group order, and
    gives one list of rows per time point; the closed builders read one
    quadrature for all paths and one propagator stack (one path and one
    propagator per time point before the stacks)."""
    model, psi = closed_case
    times = [0.3, 0.6, 0.9]
    counts = count_calls(monkeypatch, "_mt_paths")
    count_propagators(monkeypatch, counts)
    for group in ("ml", "mt"):
        kind, name, build = bnd.FAMILIES[group]

        def counted(sw, _build=build, _group=group):
            counts[_group] += 1
            rows = _build(sw)
            assert len(rows) == len(times)
            return rows

        monkeypatch.setitem(bnd.FAMILIES, group, (kind, name, counted))
    sweep(model, psi, times, ["mt", "ml"], np.diag([0.0, 0.0, 1.0]).astype(complex))
    assert counts == {"ml": 1, "mt": 1, "_mt_paths": 1, "_propagators": 1}


def test_groups_of_a_sweep_point_share_one_path(closed_case, monkeypatch):
    """Both closed groups of a three-point sweep read one quadrature and one
    propagator stack."""
    model, psi = closed_case
    times = [0.3, 0.6, 0.9]
    counts = count_calls(monkeypatch, "_mt_paths")
    count_propagators(monkeypatch, counts)
    sweep(model, psi, times, ["ml", "mt"], np.diag([0.0, 0.0, 1.0]).astype(complex))
    assert counts == {"_mt_paths": 1, "_propagators": 1}


@pytest.mark.parametrize("group", sorted(bnd.FAMILIES))
def test_empty_grid_gives_no_rows(group):
    """A sweep over no time points gives no rows and runs no builder."""
    psi, obs = StateVector(np.ones(2) / np.sqrt(2.0)), np.diag([0.0, 1.0])
    model, state, obs = {
        "ml": (random_commuting(2, 1), psi, obs), "mt": (random_commuting(2, 1), psi, obs),
        "ml-open": (make_dephasing(1.0), psi, JumpCountObservable()),
        "mt-open": (make_dephasing(1.0), psi, obs),
        "classical": (chain(), None, np.diag([0.0, 1.0, 3.0])),
    }[group]
    assert sweep(model, state, [], [group], obs) == []


def test_public_calls_share_nothing(closed_case, monkeypatch):
    """Each public row evaluates its own sweep, even at equal arguments."""
    model, psi = closed_case
    counts = count_calls(monkeypatch, "_mt_paths")
    first = qsl_mt(model, psi, 0.0, 0.9)
    again = qsl_mt(model, psi, 0.0, 0.9)
    assert counts["_mt_paths"] == 2
    assert again.lhs == first.lhs and again.rhs == first.rhs


@pytest.mark.parametrize("row", ["tur_ml", "tur_mt", "tur_ml_open", "tur_mt_open",
                                 "tur_classical"])
def test_public_tur_rows_need_an_observable(row):
    """``None`` is no observable: the TUR rows raise a named error for it."""
    psi = StateVector(np.array([1.0, 1.0]))
    args = {
        "tur_ml": (random_commuting(2, 1), psi, 0.5),
        "tur_mt": (random_commuting(2, 1), psi, 0.0, 0.5),
        "tur_ml_open": (make_dephasing(1.0), psi, 0.5),
        "tur_mt_open": (make_dephasing(1.0), psi, 0.5),
        "tur_classical": (ClassicalMarkovModel(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                               np.array([1.0, 0.0])), 0.5),
    }[row]
    with pytest.raises(SimulationError):
        getattr(bnd, row)(*args, None)


@pytest.mark.parametrize("change", ["steps", "t1", "t2", "model"])
def test_changed_argument_misses(closed_case, change, monkeypatch):
    """``_mt_paths`` reads every argument: a changed one gives a fresh path.

    More ``steps`` evaluate more nodes, counted as the times handed to the
    integrand; the integral need not change, because the K15 rule is exact
    to round-off on a smooth integrand either way."""
    model, psi = closed_case
    rho0 = as_density_matrix(psi)
    members = []
    path_nodes = bnd._path_nodes
    monkeypatch.setattr(bnd, "_path_nodes", lambda m, r, segments: members.append(
        sum(map(len, segments))) or path_nodes(m, r, segments))
    args = {"model": model, "t1": 0.1, "t2": 0.6, "steps": 40}
    first = bnd._mt_paths(model, rho0, [(0.1, 0.6)], 40)[0]
    first_nodes = sum(members)
    members.clear()
    args[change] = {
        "steps": 80,
        "t1": 0.2,
        "t2": 0.7,
        "model": random_commuting(3, 7, gamma_scale=0.8),  # equal contents, new model
    }[change]
    fresh = bnd._mt_paths(args["model"], rho0, [(args["t1"], args["t2"])], args["steps"])[0]
    assert fresh is not first
    if change == "model":
        assert fresh == first
    elif change == "steps":
        assert sum(members) > first_nodes
    else:
        assert fresh[0] != first[0]


@pytest.mark.parametrize("case", range(20))
def test_ml_overlaps_equal_the_reference(case):
    """The ML rows read the sweep's shared window ends; the reference computes
    the same overlaps straight from ``propagator``, and both agree exactly."""
    rng = np.random.default_rng(4_000 + case)
    dim = int(rng.integers(2, 5))
    state = random_pure_state(dim, rng) if case % 2 else random_density(dim, rng)
    tau = float(rng.uniform(0.0, 2.0))
    rho0 = as_density_matrix(state)
    closed = random_commuting(dim, 5_000 + case, gamma_scale=1.5)
    m = propagator(closed, tau)
    # Tr M rho0 M^dag, of the symmetrized state as the normalized path takes it
    raw = m @ rho0 @ np.conj(np.swapaxes(m, -1, -2))
    tr = np.trace(0.5 * (raw + np.conj(np.swapaxes(raw, -1, -2)))).real
    overlap = abs(complex(np.trace(m @ rho0))) / math.sqrt(np.trace(rho0).real * tr)
    assert fid_ml(closed, state, tau).lhs == overlap
    lindblad = random_diagonal_jump_lindblad(dim, 6_000 + case)
    record = abs(complex(np.trace(propagator(lindblad.no_jump_model(), tau) @ rho0)))
    assert fid_ml_open(lindblad, state, tau).lhs == record


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
    qsl_mt(model, make(psi), 0.0, 0.5)  # another call in between
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
    """Both open builders, called directly on one sweep, read one path stack,
    one Lindblad stack and one fidelity stack per sweep, and the jump-count
    sweep one stack of moments."""
    model = make_dephasing(0.7)
    psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    counts = count_calls(
        monkeypatch, "_evolve_lindblad", "_mt_paths", "_jump_count_moments"
    )
    count_fidelities(monkeypatch, counts)
    for obs in (np.diag([0.0, 1.0]).astype(complex), JumpCountObservable()):
        sw = sweep_of(model, psi, [0.3, 0.6], obs)
        for build in (bnd._ml_open_rows, bnd._mt_open_rows):
            assert len(build(sw)) == 2
    assert counts == {
        "_evolve_lindblad": 2, "_mt_paths": 2, "_jump_count_moments": 1, "fidelity": 2,
    }


def test_open_groups_of_a_sweep_point_share_one_lindblad_state(monkeypatch):
    """Both open groups of a three-point sweep read one path stack, one
    Lindblad stack and one fidelity stack, with a projector and with the
    jump count, and the jump-count sweep one stack of moments."""
    model = make_dephasing(0.7)
    psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    counts = count_calls(
        monkeypatch, "_evolve_lindblad", "_mt_paths", "_jump_count_moments"
    )
    count_fidelities(monkeypatch, counts)
    for obs, moments in ((np.diag([0.0, 1.0]).astype(complex), {}),
                         (JumpCountObservable(), {"_jump_count_moments": 1})):
        counts.clear()
        sweep(model, psi, [0.2, 0.4, 0.6], ["ml-open", "mt-open"], obs)
        assert counts == {"_evolve_lindblad": 1, "_mt_paths": 1, "fidelity": 1, **moments}


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


def run_check(tmp_path, monkeypatch, argv, names=("_mt_paths", "_evolve_lindblad")):
    counts = count_calls(monkeypatch, *names)
    code = cli.main(["check", *argv, "--out", str(tmp_path / "out.csv")])
    assert code == 0
    return counts


REFRIGERATOR = ["--model", "builtin:refrigerator?beta2=1.05&beta3=0.9", "--state", "plus",
                "--bounds", "ml-open,mt-open"]


def test_work_count_open_sweep(tmp_path, monkeypatch):
    """One path stack and one Lindblad stack per sweep of four time points
    (four of each with one per time point; twelve paths and sixteen
    evolutions without any sharing)."""
    counts = run_check(tmp_path, monkeypatch, [*REFRIGERATOR, "--t-final", "1.0", "--steps", "4"])
    assert counts == {"_mt_paths": 1, "_evolve_lindblad": 1}


def test_work_count_open_fidelity(tmp_path, monkeypatch):
    """One fidelity stack per sweep of four time points (four fidelities
    with one per time point, eight without the sharing)."""
    counts = Counter()
    count_fidelities(monkeypatch, counts)
    run_check(tmp_path, monkeypatch, [*REFRIGERATOR, "--t-final", "1.0", "--steps", "4"],
              names=())
    assert counts == {"fidelity": 1}


def test_work_count_jump_count(tmp_path, monkeypatch):
    """One stack of exact jump-count moments per sweep of four time points
    (four with one set per time point, eight without the sharing)."""
    counts = run_check(tmp_path, monkeypatch, [
        *REFRIGERATOR, "--observable", "jump-count", "--t-final", "1.0", "--steps", "4",
    ], names=("_jump_count_moments",))
    assert counts == {"_jump_count_moments": 1}


def test_work_count_classical_chain(tmp_path, monkeypatch):
    """One stacked chain propagation per sweep of four time points (four with
    one per time point, eight without the sharing)."""
    calls = []
    propagate = ClassicalMarkovModel.propagate
    monkeypatch.setattr(
        ClassicalMarkovModel, "propagate", lambda self, t: calls.append(t) or propagate(self, t)
    )
    run_check(tmp_path, monkeypatch, [
        "--model", "builtin:classical?rates=[[0,1,0.5],[2,0,1],[0.3,1,0]]&p0=[0.5,0.3,0.2]",
        "--bounds", "ml-open,mt-open,classical", "--t-final", "1.0", "--steps", "4",
    ], names=())
    assert calls == [[0.25, 0.5, 0.75, 1.0]]


def test_work_count_closed_window(tmp_path, monkeypatch):
    """One quadrature for the grid's paths and the extra window together (one
    for the grid and one for the window in two sweeps before the window
    joined the grid's sweep, one path per time point and one for the window
    before the stacks)."""
    counts = run_check(tmp_path, monkeypatch, [
        "--model", "builtin:random-commuting?dim=3&seed=4", "--state", "plus",
        "--bounds", "mt", "--t-final", "1.0", "--steps", "2", "--tau1", "0.2", "--tau2", "0.7",
    ])
    assert counts == {"_mt_paths": 1}


def test_work_count_closed_ml(tmp_path, monkeypatch):
    """One propagator stack, one matrix exponential and one commutator check
    per sweep of four time points (four, four and one with one exponential
    per time point; twenty, sixteen and twelve without any sharing)."""
    expm_calls = []
    expm = linalg.expm
    monkeypatch.setattr(linalg, "expm", lambda a: expm_calls.append(a) or expm(a))
    counts = run_check(tmp_path, monkeypatch, [
        "--model", "builtin:random-commuting?dim=3&seed=4", "--state", "plus",
        "--bounds", "ml", "--t-final", "1.0", "--steps", "4",
    ], names=("_propagators", "commutator_check"))
    assert counts == {"_propagators": 1, "commutator_check": 1}
    assert len(expm_calls) == 1


@pytest.mark.parametrize("argv, members", [
    (["--model", "builtin:random-commuting?dim=3&seed=4", "--state", "plus", "--bounds", "ml,mt",
      "--t-final", "1.0", "--steps", "2", "--tau1", "0.2", "--tau2", "0.7"], 5),
    ([*REFRIGERATOR, "--t-final", "1.0", "--steps", "16"], 17),
], ids=["closed-window", "open-sweep"])
def test_one_propagator_stack_per_sweep(tmp_path, monkeypatch, argv, members):
    """A sweep of a normal constant generator takes one propagator stack, over
    the distinct ends of its windows: t = 0, the grid times and the window
    ends.  (Two stacks, of 2 and 6 members for the closed sweep and of 16
    and 32 for the open one, before both families read the shared ends.)"""
    counts = Counter()
    stacks = count_propagators(monkeypatch, counts)
    run_check(tmp_path, monkeypatch, argv, names=())
    assert counts == {"_propagators": 1}
    assert stacks == [members]


def spy_expm(monkeypatch):
    """Record the member count and matrix size of every ``linalg.expm`` call."""
    shapes = []
    expm = linalg.expm
    monkeypatch.setattr(linalg, "expm", lambda a: shapes.append(np.shape(a)) or expm(a))
    return shapes


def test_expm_calls_do_not_grow_with_the_grid(tmp_path, monkeypatch):
    """A refrigerator sweep makes two exponential calls at 4 and at 16 time
    points: the propagators at the window ends, which both families read,
    and the Lindblad states.  Its quadrature takes the spectral integrand,
    which needs none."""
    shapes = spy_expm(monkeypatch)
    counts = []
    for steps in ("4", "16"):
        shapes.clear()
        run_check(tmp_path, monkeypatch, [*REFRIGERATOR, "--t-final", "1.0", "--steps", steps],
                  names=())
        counts.append(len(shapes))
    assert counts == [2, 2]


def test_stack_budget_bounds_every_exponential(tmp_path, monkeypatch):
    """256-point, 400-node checks split their stacks so that no
    ``linalg.expm`` call holds more than ``_STACK_BUDGET`` matrix entries:
    one on the refrigerator, whose MT nodes take the spectral integrand,
    and one on a non-normal dim-3 model, whose nodes all take propagators."""
    model_file = tmp_path / "nonnormal.json"
    serialize.save_model(model_file, noncommuting_model(3, 3))
    shapes = spy_expm(monkeypatch)
    runs = []
    for argv in (REFRIGERATOR, ["--model", str(model_file), "--state", "plus", "--bounds", "mt"]):
        shapes.clear()
        run_check(tmp_path, monkeypatch, [
            *argv, "--t-final", "2", "--steps", "256", "--quad-panels", "400",
        ], names=())
        runs.append([math.prod(shape) for shape in shapes])
    entries = [e for run in runs for e in run]
    assert max(entries) <= linalg._STACK_BUDGET
    assert sum(entries) > 10 * linalg._STACK_BUDGET  # the budget did split the stacks
    assert all(sum(run) > linalg._STACK_BUDGET for run in runs)  # in each check


def test_work_count_open_ml(tmp_path, monkeypatch):
    """One commutator check and one ground energy per sweep (one of each per
    time point without the per-sweep terms, three without any sharing)."""
    counts = run_check(tmp_path, monkeypatch, [
        "--model", "builtin:refrigerator?beta2=1.05&beta3=0.9", "--state", "plus",
        "--bounds", "ml-open", "--t-final", "1.0", "--steps", "4",
    ], names=("commutator_check", "ground_energy"))
    assert counts == {"commutator_check": 1, "ground_energy": 1}


@pytest.mark.parametrize("argv, parsed", [
    (["--model", "builtin:refrigerator?beta2=1.05&beta3=0.9", "--state", "maxmixed",
      "--bounds", "ml-open,mt-open"], 1),
    (["--model", "builtin:refrigerator?beta2=1.05&beta3=0.9", "--state", "plus",
      "--bounds", "ml-open,mt-open", "--observable", "jump-count"], 0),
    (["--model", "builtin:random-commuting?dim=3&seed=4", "--state", "plus",
      "--bounds", "ml,mt"], 0),
])
def test_states_validated_once_at_the_boundary(tmp_path, monkeypatch, argv, parsed):
    """Only the CLI parse builds a DensityOperator (one for ``maxmixed``, none
    for ``plus``); the rows pass the states they compute on as arrays."""
    built = []
    post_init = DensityOperator.__post_init__
    monkeypatch.setattr(
        DensityOperator, "__post_init__", lambda self: built.append(self) or post_init(self)
    )
    run_check(tmp_path, monkeypatch, [*argv, "--t-final", "1.0", "--steps", "8"], names=())
    assert len(built) == parsed


def fridge():
    return make_refrigerator(1.0, 1.0, 1.0, 1.0, 1.05, 0.9)


def chain():
    return ClassicalMarkovModel(np.array([[0.0, 1.0, 0.5], [2.0, 0.0, 1.0], [0.3, 1.0, 0.0]]),
                                np.array([0.5, 0.3, 0.2]))


def rows_by_kind(pairs):
    return {report.kind: report for _, report in pairs}


GRID_CASES = {
    # model, state, groups, observable, times
    "time-dependent": (timed_model, random_pure_state(2, 12), ["mt"], np.diag([0.0, 1.0]),
                       [0.25, 0.5, 0.75, 1.0]),
    # the window to 0.0025 resolves the decay pulse at once, the others bisect
    "strong-decay": (lambda: NonHermitianModel(np.zeros((2, 2)), np.diag([0.0, 400.0])),
                     StateVector(np.ones(2) / np.sqrt(2.0)), ["mt"], np.diag([0.0, 1.0]),
                     [0.0025, 0.005, 0.0075, 0.01]),
    "closed": (lambda: random_commuting(3, 7, gamma_scale=0.8), random_density(3, 8),
               ["ml", "mt"], np.diag([0.0, 0.0, 1.0]), [0.3, 0.6, 0.9]),
    "refrigerator": (fridge, StateVector(np.ones(3) / np.sqrt(3.0)), ["ml-open", "mt-open"],
                     np.diag([0.0, 0.0, 1.0]), [0.3, 0.6, 0.9]),
    "jump-count": (fridge, random_density(3, 9), ["ml-open", "mt-open"], JumpCountObservable(),
                   [0.3, 0.6, 0.9]),
    "classical": (chain, DensityOperator(np.diag([0.5, 0.3, 0.2]).astype(complex)),
                  ["classical", "ml-open", "mt-open"], np.diag([0.0, 1.0, 3.0]), [0.3, 0.6, 0.9]),
}


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_rows_equal_one_point_sweeps(case, monkeypatch):
    """Every row of a grid sweep is, by ``repr``, the row a one-point sweep
    at its time gives: the stacks treat each time as if it were alone.  A
    time-dependent model keeps each path's own midpoint step length."""
    make, state, groups, obs, times = GRID_CASES[case]
    bisected = {}
    refine = bnd._Window.refine

    def spy(self, f):
        refine(self, f)
        bisected[self.t2] = bisected.get(self.t2, False) or bool(self.a.size)

    monkeypatch.setattr(bnd._Window, "refine", spy)
    model = make()
    grid = sweep(model, state, times, groups, obs)
    if case == "strong-decay":
        assert [bisected[t] for t in times] == [False, True, True, True]
    one_point = [pair for t in times for pair in sweep(model, state, [t], groups, obs)]
    assert len(grid) == len(one_point) > len(times)
    for (t, report), (t1, single) in zip(grid, one_point):
        assert t == t1 and repr(report) == repr(single)


WINDOW_CASES = {
    "normal": (lambda: random_commuting(3, 7, gamma_scale=0.8), random_pure_state(3, 8),
               np.diag([0.0, 0.0, 1.0])),
    "non-normal": (lambda: noncommuting_model(3, 13), random_pure_state(3, 14),
                   np.diag([0.0, 0.0, 1.0])),
    "time-dependent": (timed_model, random_pure_state(2, 12), np.diag([0.0, 1.0])),
}


@pytest.mark.parametrize("tau2", [0.7, 1.6])
@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_window_rows_equal_a_window_alone(case, tau2):
    """The rows of a window [0.2, tau2], inside the grid's span (t_final = 1)
    or beyond it, are by ``repr`` those of a sweep of the window alone, and
    the grid rows before them those of a sweep without the window: the
    window joins the grid's quadrature but keeps its own intervals, nodes
    and running products."""
    make, state, obs = WINDOW_CASES[case]
    model, times = make(), [0.25, 0.5, 0.75, 1.0]
    both = sweep(model, state, times, ["mt"], obs, window=(0.2, tau2))
    alone = sweep(model, state, [], ["mt"], obs, window=(0.2, tau2))
    grid = sweep(model, state, times, ["mt"], obs)
    assert [t for t, _ in alone] == [tau2] * 4
    assert [(t, repr(r)) for t, r in both] == [(t, repr(r)) for t, r in grid + alone]


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_window_on_grid_times_equals_the_window_alone(case, monkeypatch):
    """A window [0.25, 0.75] whose ends are grid times gives, by ``repr``, the
    rows of a sweep of the window alone, after those of the grid alone.  A
    constant generator's end stack holds each distinct time once (t = 0 and
    the four grid times); a time-dependent one takes one product per
    window."""
    make, state, obs = WINDOW_CASES[case]
    model, times = make(), [0.25, 0.5, 0.75, 1.0]
    stacks = count_propagators(monkeypatch, Counter())
    both = sweep(model, state, times, ["mt"], obs, window=(0.25, 0.75))
    if case == "time-dependent":
        assert stacks[:5] == [2] * 5
    else:
        assert stacks[0] == 5
    alone = sweep(model, state, [], ["mt"], obs, window=(0.25, 0.75))
    grid = sweep(model, state, times, ["mt"], obs)
    assert [(t, repr(r)) for t, r in both] == [(t, repr(r)) for t, r in grid + alone]


@pytest.mark.parametrize("window", [(0.7, 0.2), (-0.1, 0.5)], ids=["reversed", "negative"])
def test_bad_window_raises_before_any_propagator(window, monkeypatch):
    """A reversed or negative window is rejected before any propagator or
    exponential is built: a time-dependent running product over an unsorted
    pair would read the wrong product without an error."""
    counts = Counter()
    count_propagators(monkeypatch, counts)
    shapes = spy_expm(monkeypatch)
    with pytest.raises(BadParameter, match="need 0 <= t1 <= t2"):
        sweep(timed_model(), random_pure_state(2, 12), [0.5, 1.0], ["mt"], window=window)
    assert not counts and shapes == []


@pytest.mark.parametrize("case", ["closed-window", "refrigerator-projector",
                                  "refrigerator-jump-count", "classical"])
def test_public_rows_equal_sweep_rows(case):
    """Each public row function is the matching row of a one-point sweep,
    bit for bit (``repr`` compares every float exactly, NaN included), and
    the ``qsl-ml-simple`` and ``energy-time`` rows repeat the params their
    parent rows carry."""
    tau = 0.9
    if case == "closed-window":
        model, psi = random_commuting(3, 7, gamma_scale=0.8), random_pure_state(3, 8)
        obs, tau1, steps = np.diag([0.0, 0.0, 1.0]).astype(complex), 0.2, 40
        swept = rows_by_kind(sweep(model, psi, [tau], ["ml"], obs))
        swept.update(rows_by_kind(sweep(model, psi, [], ["mt"], obs, window=(tau1, tau),
                                         steps=steps)))
        public = [bnd.fid_ml(model, psi, tau), bnd.qsl_ml(model, psi, tau),
                  bnd.tur_ml(model, psi, tau, obs), bnd.fid_mt(model, psi, tau1, tau, steps),
                  bnd.qsl_mt(model, psi, tau1, tau, steps),
                  bnd.tur_mt(model, psi, tau1, tau, obs, steps)]
    elif case == "classical":
        values = np.array([0.0, 1.0, 3.0])
        model = chain()
        swept = rows_by_kind(sweep(model, None, [tau], ["classical"], np.diag(values)))
        public = [bnd.qsl_classical(model, tau), bnd.tur_classical(model, tau, values)]
    else:
        model, psi = fridge(), StateVector(np.ones(3) / np.sqrt(3.0))
        obs = (JumpCountObservable() if case.endswith("jump-count")
               else np.diag([0.0, 0.0, 1.0]).astype(complex))
        swept = rows_by_kind(sweep(model, psi, [tau], ["ml-open", "mt-open"], obs))
        public = [bnd.fid_ml_open(model, psi, tau), bnd.qsl_ml_open(model, psi, tau),
                  bnd.tur_ml_open(model, psi, tau, obs), bnd.fid_mt_open(model, psi, tau),
                  bnd.qsl_mt_open(model, psi, tau), bnd.tur_mt_open(model, psi, tau, obs)]
    for report in public:
        assert repr(report) == repr(swept[report.kind])
    assert len(swept) == len(public) + 2 * (case == "closed-window")  # the sub-rows
    if case == "closed-window":
        simple, row = swept["qsl-ml"].params["simple"], swept["qsl-ml-simple"]
        assert (row.lhs, row.rhs, row.applicable) == (
            simple["lhs"], simple["rhs"], simple["applicable"])
        et, row = swept["tur-mt"].params["energy_time"], swept["energy-time"]
        assert (row.lhs, row.rhs, row.slack) == (et["lhs"], et["rhs"], et["slack"])


def test_sweep_rows_in_csv_order():
    """Time by time, group by group, the sub-rows after their parents, and
    the classical chain embedded for the open groups."""
    kinds = [(t, r.kind) for t, r in sweep(
        chain(), DensityOperator(np.diag([0.5, 0.3, 0.2]).astype(complex)), [0.5, 1.0],
        ["classical", "ml-open"], np.diag([0.0, 1.0, 3.0]).astype(complex),
    )]
    per_point = ["qsl-classical", "tur-classical", "fid-ml-open", "qsl-ml-open", "tur-ml-open"]
    assert kinds == [(t, k) for t in (0.5, 1.0) for k in per_point]
    closed = [r.kind for _, r in sweep(random_commuting(2, 1), StateVector(np.ones(2)), [0.5],
                                       ["mt", "ml"], np.eye(2))]
    assert closed == ["fid-mt", "qsl-mt", "tur-mt", "energy-time",
                      "fid-ml", "qsl-ml", "qsl-ml-simple", "tur-ml"]


@pytest.mark.parametrize("model, groups, options, message", [
    ("closed", ["ml", "bogus"], {}, "unknown bound group 'bogus'"),
    ("closed", ["mt", "ml", "mt"], {}, "bound group 'mt' is given more than once"),
    ("closed", ["ml-open"], {}, "'ml-open' needs a lindblad or classical model"),
    ("lindblad", ["mt"], {}, "'mt' needs a nonhermitian model"),
    ("lindblad", ["classical"], {}, "'classical' needs a classical model"),
    ("chain", ["ml"], {}, "'ml' needs a nonhermitian model"),
    ("closed", ["ml"], {"window": (0.1, 0.5)}, "applies to the mt group"),
    ("lindblad", ["mt-open"], {"window": (0.1, 0.5)}, "applies to the mt group"),
])
def test_sweep_rejects_groups_the_model_cannot_serve(model, groups, options, message):
    """Checked before the state is read, so any state will do."""
    model = {"closed": random_commuting(2, 1), "lindblad": make_dephasing(1.0),
             "chain": chain()}[model]
    with pytest.raises(BadParameter, match=message):
        sweep(model, None, [0.5], groups, **options)
