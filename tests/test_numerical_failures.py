"""Numerical failures end as a report value or a SimulationError, never a traceback.

Three strong-decay inputs, each at the API and through ``nhbounds check``;
stiff MT quadratures that the adaptive rule resolves, and its bisection cap;
malformed model, state, observable and seed inputs, which exit 2 with an
error line; plus two fuzz tests that run the CLI in-process, one over closed
and Lindblad models with decay scales up to 1e3, one over model JSON with a
field replaced by a value of the wrong type.
"""

import csv
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhbounds import (
    ClassicalMarkovModel,
    DensityOperator,
    LindbladModel,
    NonHermitianModel,
    StateVector,
    cli,
    evolve_lindblad,
    fid_ml,
    fid_mt,
    make_dephasing,
    observable_stats,
    qsl_ml,
    qsl_mt,
    random_commuting,
    random_density,
    random_diagonal_jump_lindblad,
    serialize,
    sweep,
    tur_ml,
    tur_ml_open,
)
from nhbounds import bounds as bnd
from nhbounds.errors import NormUnderflow, QuadratureDiverged

PLUS = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
PROJ1 = np.diag([0.0, 1.0]).astype(complex)
STRONG_GAMMA = np.diag([0.0, 400.0]).astype(complex)
# nearly all weight on the fast-decaying level: the trace underflows by t = 2
DECAYING = StateVector(np.array([1e-200, 1.0]))


def flat_decay_model():
    return NonHermitianModel(np.zeros((2, 2)), STRONG_GAMMA)


def strong_jump_model():
    return LindbladModel(np.zeros((2, 2)), (28.3 * PROJ1,))


def run_check(tmp_path, model, bounds, initial=None, state=None):
    model_file = tmp_path / "model.json"
    serialize.save_model(model_file, model, initial)
    out = tmp_path / "out.csv"
    argv = ["check", "--model", str(model_file), "--bounds", bounds,
            "--t-final", "2.0", "--steps", "1", "--out", str(out)]
    if state is not None:
        argv += ["--state", state]
    return cli.main(argv), out


def row(out, kind):
    with open(out, newline="") as fh:
        return next(r for r in csv.DictReader(fh) if r["bound"] == kind)


class TestNormUnderflow:
    """Gamma = diag(0, 400) from [1e-200, 1]: the evolved trace underflows."""

    @pytest.mark.parametrize("report", [fid_ml, qsl_ml])
    def test_ml_reports_raise(self, report):
        with pytest.raises(NormUnderflow):
            report(flat_decay_model(), DECAYING, 2.0)

    @pytest.mark.parametrize("report", [fid_mt, qsl_mt])
    def test_mt_reports_raise(self, report):
        with pytest.raises(NormUnderflow):
            report(flat_decay_model(), DECAYING, 0.0, 2.0)

    def test_cli_exits_two(self, tmp_path, capsys):
        code, _ = run_check(tmp_path, flat_decay_model(), "ml,mt", initial=DECAYING)
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err


class TestVanishingFloor:
    """A floor near exp(-400) has an underflowing square: the lhs reads +inf."""

    def test_tur_ml(self):
        rep = tur_ml(flat_decay_model(), PLUS, 2.0, PROJ1)
        assert rep.applicable
        assert rep.lhs == math.inf and rep.params["loose"]["lhs"] == math.inf

    def test_tur_ml_cli(self, tmp_path):
        code, out = run_check(tmp_path, flat_decay_model(), "ml", state="plus")
        assert code == 0
        assert float(row(out, "tur-ml")["lhs"]) == math.inf

    def test_tur_ml_open(self):
        rep = tur_ml_open(strong_jump_model(), PLUS, 2.0, PROJ1)
        assert rep.applicable
        assert rep.lhs == math.inf and rep.params["classical_form_lhs"] == math.inf

    def test_tur_ml_open_cli(self, tmp_path):
        code, out = run_check(tmp_path, strong_jump_model(), "ml-open", state="plus")
        assert code == 0
        assert float(row(out, "tur-ml-open")["lhs"]) == math.inf


class TestStiffQuadrature:
    """MT rows that read false violations under a uniform 400-panel Simpson
    rule: the integrand is a pulse far narrower than the window."""

    def test_strong_decay_saturates_qsl_mt(self, tmp_path):
        """From plus, Gamma = diag(0, 400) turns the state by exactly pi/4."""
        code, out = run_check(tmp_path, flat_decay_model(), "mt", state="plus")
        assert code == 0
        r = row(out, "qsl-mt")
        assert abs(float(r["lhs"]) - math.pi / 4) <= 1e-12
        assert float(r["quad_err"]) <= 1e-9

    def test_random_commuting_from_basis_state(self, tmp_path):
        out = tmp_path / "out.csv"
        code = cli.main([
            "check", "--model",
            "builtin:random-commuting?dim=2&seed=42996&gamma_scale=591.1635607469101",
            "--state", "basis:0", "--bounds", "ml,mt", "--t-final", "1.418916075061167",
            "--steps", "2", "--out", str(out),
        ])
        assert code == 0

    def test_diagonal_jump_lindblad_from_plus(self, tmp_path):
        model_file = tmp_path / "model.json"
        serialize.save_model(model_file,
                             random_diagonal_jump_lindblad(2, 14789, 308.01304698535495))
        code = cli.main([
            "check", "--model", str(model_file), "--state", "plus",
            "--bounds", "ml-open,mt-open", "--t-final", "3.4736643358784414",
            "--steps", "2", "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 0

    def test_bisection_cap_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bnd, "_MAX_SPLITS", 3)
        code, out = run_check(tmp_path, flat_decay_model(), "mt", state="plus")
        err = capsys.readouterr().err
        assert code == 2
        assert "quadrature diverged" in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("failure", ["bisection-cap", "underflow-at-the-last-time"])
def test_grid_failure_exits_two(tmp_path, monkeypatch, capsys, failure):
    """A failure at one time of a stacked grid is still a named error: the
    bisection cap names a window of the grid, and a trace that underflows at
    the last time alone still exits 2."""
    model = flat_decay_model()
    if failure == "bisection-cap":
        monkeypatch.setattr(bnd, "_MAX_SPLITS", 1)  # the windows to 0.0075 and 0.01 need 2
        times, state, initial, error = [0.0025, 0.005, 0.0075, 0.01], PLUS, None, QuadratureDiverged
    else:
        times, state, initial, error = [0.025, 0.05], DECAYING, DECAYING, NormUnderflow
        sweep(model, state, times[:1], ["mt"])  # the first time alone is fine
    with pytest.raises(error) as info:
        sweep(model, state, times, ["mt"])
    if failure == "bisection-cap":
        window = re.search(r"over \[0\.0, ([^\]]+)\]", str(info.value))
        assert float(window.group(1)) in times[2:]
    model_file = tmp_path / "model.json"
    serialize.save_model(model_file, model, initial)
    out = tmp_path / "out.csv"
    argv = ["check", "--model", str(model_file), "--bounds", "mt", "--t-final", repr(times[-1]),
            "--steps", str(len(times)), "--out", str(out)]
    code = cli.main(argv + (["--state", "plus"] if initial is None else []))
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "Traceback" not in err
    assert ("quadrature diverged" if initial is None else "underflowed") in err
    assert not out.exists()


class TestCenteredVariance:
    """A spread of 1.9e-7 on a population of 1 - 3.5e-14.

    The one-pass variance <C^2> - <C>^2 lost its digits there and broke a
    saturated TUR: slack -1.26e11 at lhs 2.85e13 in earlier versions.
    """

    def test_nearly_pure_population(self):
        model = random_diagonal_jump_lindblad(2, 2, 10**1.4510592121707866)
        rho = evolve_lindblad(model, DensityOperator(np.diag([1.0, 0.0])), 1.451)
        p0, p1 = rho[0, 0].real, rho[1, 1].real
        assert np.count_nonzero(rho - np.diag(np.diag(rho))) == 0 and p0 < 1e-13
        stats = observable_stats(PROJ1, DensityOperator(rho))
        assert stats.std**2 == pytest.approx(p0 * p1 / (p0 + p1) ** 2, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("scale", [1.0, 0.3, -7.1])
    def test_identity_multiple_has_zero_spread(self, scale):
        assert observable_stats(scale * np.eye(3), random_density(3, 2)).std == 0.0

    def test_saturated_open_turs(self, tmp_path):
        model_file = tmp_path / "model.json"
        serialize.save_model(model_file,
                             random_diagonal_jump_lindblad(2, 2, 10**1.4510592121707866))
        out = tmp_path / "out.csv"
        # still exits 1: qsl-mt-open's arccos amplification, and these rows'
        # round-off slack read against the absolute SLACK_TOL at a 2.8e13 value
        cli.main(["check", "--model", str(model_file), "--state", "basis:0",
                  "--bounds", "ml-open,mt-open", "--t-final", "1.451", "--steps", "2",
                  "--out", str(out)])
        with open(out, newline="") as fh:
            rows = [r for r in csv.DictReader(fh)
                    if r["t"] == "1.451" and r["bound"] in ("tur-ml-open", "tur-mt-open")]
        assert len(rows) == 2
        for r in rows:
            # lhs = rhs in theory: they agree to round-off of a 2.8e13 value
            lhs, slack = float(r["lhs"]), float(r["slack"])
            assert lhs == pytest.approx(2.8468e13, rel=1e-4)
            assert abs(slack) <= 1e-12 * lhs


def run_cli(argv, capsys):
    """``(exit code, stderr)`` of one in-process CLI run."""
    code = cli.main(argv)
    return code, capsys.readouterr().err


class TestMalformedInput:
    """Inputs that once escaped as AttributeError/IndexError tracebacks (exit 1)."""

    def check_argv(self, tmp_path, model, *extra):
        return ["check", "--model", model, "--bounds", "ml-open", "--t-final", "0.5",
                "--steps", "1", *extra, "--out", str(tmp_path / "out.csv")]

    @pytest.mark.parametrize("field, value", [("jumps", None), ("dim", None), ("dim", [2])])
    def test_model_field_of_wrong_type(self, tmp_path, capsys, field, value):
        # these escaped as TypeError tracebacks (exit 1) in earlier versions
        data = serialize.model_to_dict(make_dephasing(1.0))
        data[field] = value
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(data))
        code, err = run_cli(self.check_argv(tmp_path, str(model_file), "--state", "plus"), capsys)
        assert code == 2
        assert f"model JSON '{field}' must be" in err

    @pytest.mark.parametrize("kind, field, value", [
        ("nonhermitian", "H", {"a": 1}),
        ("lindblad", "jumps", [{"a": 1}]),
        ("classical", "rates", {"a": 1}),
        ("lindblad", "initial", {"type": "mixed", "data": {"a": 1}}),
        ("classical", "initial", {"type": "mixed", "data": {"a": 1}}),
    ])
    def test_object_where_numbers_belong(self, tmp_path, capsys, kind, field, value):
        # these escaped as TypeError tracebacks (exit 1) in earlier versions
        data = valid_model_dict(kind)
        data[field] = value
        code = run_model_json(tmp_path, kind, data)
        assert code == 2
        assert "must hold numbers" in capsys.readouterr().err

    def test_state_object_where_numbers_belong(self, tmp_path, capsys):
        # a TypeError traceback (exit 1) in earlier versions
        argv = self.check_argv(tmp_path, "builtin:dephasing",
                               "--state", '{"type":"pure","data":{"x":1}}')
        code, err = run_cli(argv, capsys)
        assert code == 2
        assert "vector JSON must hold numbers" in err

    @pytest.mark.parametrize("text", ["null", "[]", '"x"'])
    def test_model_file_not_an_object(self, tmp_path, capsys, text):
        model_file = tmp_path / "model.json"
        model_file.write_text(text)
        code, err = run_cli(self.check_argv(tmp_path, str(model_file)), capsys)
        assert code == 2
        assert "model JSON must be an object" in err and "Traceback" not in err

    def test_state_file_null(self, tmp_path, capsys):
        state_file = tmp_path / "state.json"
        state_file.write_text("null")
        argv = self.check_argv(tmp_path, "builtin:dephasing", "--state", str(state_file))
        code, err = run_cli(argv, capsys)
        assert code == 2
        assert "state JSON must be an object" in err

    @pytest.mark.parametrize("spec", [("--state", "basis:5"), ("--state", "basis:-1"),
                                      ("--observable", "proj:5"), ("--observable", "proj:-1")])
    def test_level_outside_model(self, tmp_path, capsys, spec):
        extra = spec if spec[0] == "--state" else ("--state", "plus", *spec)
        code, err = run_cli(self.check_argv(tmp_path, "builtin:dephasing", *extra), capsys)
        assert code == 2
        assert "level must lie in [0, 2)" in err

    @pytest.mark.parametrize("command", ["trajectory", "check"])
    @pytest.mark.parametrize("seed, expected", [(-1, 2), (2**64, 2), (2**64 - 1, 0)])
    def test_seed_is_a_64_bit_key(self, tmp_path, capsys, command, seed, expected):
        model = "builtin:refrigerator?beta2=1.05&beta3=0.9"
        if command == "trajectory":
            argv = ["trajectory", "--model", model, "--state", "plus", "--t-final", "0.5",
                    "--n-traj", "20", "--out", str(tmp_path / "out.csv")]
        else:
            argv = self.check_argv(tmp_path, model, "--state", "plus",
                                   "--observable", "jump-count")
        code, err = run_cli(argv + ["--seed", str(seed)], capsys)
        assert code == expected
        if expected == 2:
            assert "seed must lie in [0, 2**64)" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command, flag", [
        ("check", "--t-final"), ("check", "--tau1"), ("check", "--tau2"),
        ("trajectory", "--t-final"),
    ])
    def test_non_finite_time_names_its_flag(self, tmp_path, capsys, command, flag, value):
        model = "builtin:random-commuting?dim=2&seed=3"
        if command == "trajectory":
            argv = ["trajectory", "--model", "builtin:dephasing", "--state", "plus",
                    "--t-final", "0.5", "--n-traj", "10", "--out", str(tmp_path / "out.csv")]
        else:
            argv = ["check", "--model", model, "--state", "plus", "--bounds", "mt",
                    "--t-final", "0.5", "--steps", "1", "--tau1", "0.1", "--tau2", "0.3",
                    "--out", str(tmp_path / "out.csv")]
        argv[argv.index(flag) + 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            code, err = run_cli(argv, capsys)
        assert code == 2
        assert f"{flag} must be finite" in err


@settings(max_examples=60, deadline=None, derandomize=True)
# the trace at a quadrature node underflows to 0 (ZeroDivisionError in earlier versions)
@example(lindblad=False, dim=2, seed=378, log_decay=2.786558207555677,
         t_final=2.786558207555677, state="basis:0")
@given(
    lindblad=st.booleans(),
    dim=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
    log_decay=st.floats(min_value=-3.0, max_value=3.0),
    t_final=st.floats(min_value=1e-3, max_value=4.0),
    state=st.sampled_from(["plus", "maxmixed", "basis:0", "basis:1"]),
)
def test_check_exits_cleanly(lindblad, dim, seed, log_decay, t_final, state):
    decay = 10.0**log_decay
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if lindblad:
            model_file = tmp / "model.json"
            serialize.save_model(model_file, random_diagonal_jump_lindblad(dim, seed, decay))
            model, bounds = str(model_file), "ml-open,mt-open"
        else:
            model = f"builtin:random-commuting?dim={dim}&seed={seed}&gamma_scale={decay!r}"
            bounds = "ml,mt"
        code = cli.main(["check", "--model", model, "--state", state, "--bounds", bounds,
                         "--t-final", repr(t_final), "--steps", "2",
                         "--out", str(tmp / "out.csv")])
    assert code in (0, 1, 2)


def valid_model_dict(kind: str) -> dict:
    """A valid model JSON object of ``kind``, with an initial state."""
    if kind == "nonhermitian":
        return serialize.model_to_dict(random_commuting(2, 3), PLUS)
    if kind == "lindblad":
        return serialize.model_to_dict(make_dephasing(1.0), DensityOperator(np.eye(2) / 2.0))
    chain = ClassicalMarkovModel(np.array([[0.0, 1.0], [2.0, 0.0]]), np.array([0.25, 0.75]))
    return serialize.model_to_dict(chain)


MODEL_BOUNDS = {"nonhermitian": "ml,mt", "lindblad": "ml-open,mt-open",
                "classical": "classical,ml-open"}


def run_model_json(tmp_path, kind: str, data: dict) -> int:
    """Exit code of a one-point ``check`` of the ``kind`` bound groups on a
    model JSON file holding ``data``."""
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(data))
    return cli.main(["check", "--model", str(model_file), "--bounds", MODEL_BOUNDS[kind],
                     "--t-final", "0.5", "--steps", "1", "--out", str(tmp_path / "out.csv")])


FIELDS = {
    "nonhermitian": ("kind", "dim", "H", "Gamma", "initial", "initial.type", "initial.data"),
    "lindblad": ("kind", "dim", "H_S", "jumps", "jumps.0", "initial", "initial.type",
                 "initial.data"),
    "classical": ("kind", "dim", "rates", "initial", "initial.type", "initial.data"),
}
# null, bool, string, object or nested-list values in place of a field
WRONG_TYPES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
    st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2.0, 2.0) | st.text(max_size=2),
        lambda inner: st.lists(inner, max_size=3),
        max_leaves=12,
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True)
# the inputs that escaped as TypeError tracebacks (exit 1) in earlier versions
@example(target=("nonhermitian", "H"), value={"a": 1})
@example(target=("lindblad", "jumps"), value=[{"a": 1}])
@example(target=("classical", "rates"), value={"a": 1})
@example(target=("lindblad", "initial"), value={"type": "mixed", "data": {"a": 1}})
@example(target=("classical", "initial"), value={"type": "mixed", "data": {"a": 1}})
@example(target=("lindblad", "jumps"), value=None)
@example(target=("nonhermitian", "dim"), value=None)
@given(
    target=st.sampled_from([(kind, f) for kind, fields in FIELDS.items() for f in fields]),
    value=WRONG_TYPES,
)
def test_model_json_exits_cleanly(target, value):
    kind, field = target
    data = valid_model_dict(kind)
    if field == "jumps.0":
        data["jumps"][0] = value
    elif field.startswith("initial."):
        data["initial"][field.split(".", 1)[1]] = value
    else:
        data[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        code = run_model_json(Path(tmp), kind, data)
    assert code in (0, 1, 2)
