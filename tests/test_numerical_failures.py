"""Numerical failures end as a report value or a SimulationError, never a traceback.

Three strong-decay inputs, each at the API and through ``nhbounds check``;
malformed model, state, observable and seed inputs, which exit 2 with an
error line; plus a fuzz test that runs the CLI in-process over closed and
Lindblad models with decay scales up to 1e3.
"""

import csv
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhbounds import (
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
    random_density,
    random_diagonal_jump_lindblad,
    serialize,
    tur_ml,
    tur_ml_open,
)
from nhbounds.errors import NormUnderflow

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
