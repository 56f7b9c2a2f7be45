import csv
import io
import json
import numpy as np
import pytest

from nhbounds import cli, serialize
from nhbounds.models import (
    ClassicalMarkovModel,
    make_dephasing,
    make_refrigerator,
    random_commuting,
)
from nhbounds.propagation import LindbladModel, NonHermitianModel, trajectory_ensemble
from nhbounds.states import DensityOperator, StateVector


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSerialization:
    def test_nonhermitian_round_trip(self):
        model = random_commuting(3, 5)
        d = serialize.model_to_dict(model)
        back, _ = serialize.model_from_dict(d)
        assert np.array_equal(back.h, model.h)
        assert np.array_equal(back.gamma, model.gamma)
        assert serialize.model_to_dict(back) == d  # idempotent

    def test_lindblad_round_trip_with_state(self):
        model = make_refrigerator(1.0, 1.0, 0.5, 1.0, 1.1, 0.9)
        psi = StateVector(np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0))
        d = serialize.model_to_dict(model, psi)
        back, init = serialize.model_from_dict(d)
        assert isinstance(back, LindbladModel)
        assert all(np.array_equal(a, b) for a, b in zip(back.jumps, model.jumps))
        assert np.array_equal(init.amplitudes, psi.amplitudes)
        assert serialize.model_to_dict(back, init) == d

    def test_classical_round_trip(self):
        chain = ClassicalMarkovModel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]))
        d = serialize.model_to_dict(chain)
        back, _ = serialize.model_from_dict(d)
        assert np.array_equal(back.rates, chain.rates)
        assert np.array_equal(back.p0, chain.p0)
        assert serialize.model_to_dict(back) == d

    def test_mixed_state_round_trip(self):
        rho = DensityOperator(np.array([[0.7, 0.1j], [-0.1j, 0.3]]))
        spec = serialize.state_to_json(rho)
        back = serialize.state_from_json(spec, 2)
        assert np.allclose(back.matrix, rho.matrix)

    def test_time_dependent_rejected(self):
        model = NonHermitianModel(
            np.eye(2), np.zeros((2, 2)), time_dependence=lambda t: (np.eye(2), np.zeros((2, 2)))
        )
        from nhbounds.errors import BadParameter

        with pytest.raises(BadParameter):
            serialize.model_to_dict(model)


class TestModelsCommand:
    def test_emit_dephasing(self, tmp_path):
        out = tmp_path / "dephasing.json"
        assert cli.main(["models", "dephasing", "--gamma", "1.5", "--emit", str(out)]) == 0
        model, _ = serialize.load_model(out)
        assert np.allclose(model.jump_rate_operator(), 1.5 * np.eye(2))

    def test_emit_classical(self, tmp_path):
        out = tmp_path / "chain.json"
        code = cli.main(
            [
                "models", "classical",
                "--rates", "[[0,1],[1,0]]",
                "--p0", "[1,0]",
                "--emit", str(out),
            ]
        )
        assert code == 0
        chain, _ = serialize.load_model(out)
        assert chain.activity() == pytest.approx(1.0)

    def test_emit_random_commuting(self, tmp_path):
        out = tmp_path / "rc.json"
        assert cli.main(
            ["models", "random-commuting", "--dim", "3", "--seed", "4", "--emit", str(out)]
        ) == 0
        model, _ = serialize.load_model(out)
        ref = random_commuting(3, 4)
        assert np.allclose(model.h, ref.h)


    @pytest.mark.parametrize("name, flags, query", [
        ("dephasing", ["--gamma", "0.3"], "gamma=0.3"),
        ("refrigerator", ["--omega2", "0.5", "--beta3", "0.9"], "omega2=0.5&beta3=0.9"),
        ("classical", ["--rates", "[[0,1],[2,0]]", "--p0", "[0.25,0.75]"],
         "rates=[[0,1],[2,0]]&p0=[0.25,0.75]"),
        ("random-commuting", ["--dim", "3", "--seed", "4", "--gamma-scale", "0.5"],
         "dim=3&seed=4&gamma-scale=0.5"),
    ])
    def test_emit_matches_the_builtin_spec(self, tmp_path, name, flags, query):
        out = tmp_path / "model.json"
        assert cli.main(["models", name, *flags, "--emit", str(out)]) == 0
        model, _ = cli._parse_builtin(f"builtin:{name}?{query}")
        assert json.loads(out.read_text()) == serialize.model_to_dict(model)

    @pytest.mark.parametrize("argv", [
        ["check", "--model", "builtin:classical?rates=[[0,1],[1,0]]", "--bounds", "classical",
         "--t-final", "1.0", "--steps", "1", "--out"],
        ["check", "--model", "builtin:classical?p0=[1,0]", "--bounds", "classical",
         "--t-final", "1.0", "--steps", "1", "--out"],
        ["models", "classical", "--rates", "[[0,1],[1,0]]", "--emit"],
    ])
    def test_classical_without_rates_or_p0_names_them(self, tmp_path, capsys, argv):
        # the check path printed only "error: 'p0'" (a KeyError) in earlier versions
        assert cli.main([*argv, str(tmp_path / "out")]) == 2
        assert "classical model needs rates and p0" in capsys.readouterr().err

    @pytest.mark.parametrize("query", ["gamma=[1]", "gamma=null", 'gamma={"a":1}'])
    def test_builtin_parameter_not_a_number(self, tmp_path, capsys, query):
        # a TypeError traceback (exit 1) in earlier versions
        argv = ["check", "--model", f"builtin:dephasing?{query}", "--state", "plus",
                "--bounds", "ml-open", "--t-final", "1.0", "--steps", "1",
                "--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 2
        assert "builtin parameter 'gamma' must be a number" in capsys.readouterr().err


    @pytest.mark.parametrize("spec, message", [
        ("dephasing?gama=2", "builtin model 'dephasing' takes no parameter 'gama'"),
        ("refrigerator?beta2=1.05&beta4=0.9", "takes no parameter 'beta4'"),
        ("classical?rates=[[0,1],[1,0]]&p0=[1,0]&p1=[0,1]", "takes no parameter 'p1'"),
        ("random-commuting?dim=2.7&seed=1", "parameter 'dim' must be an integer, got 2.7"),
        ("random-commuting?dim=2&seed=1.5", "parameter 'seed' must be an integer, got 1.5"),
        ("random-commuting?dim=true", "parameter 'dim' must be an integer, got True"),
        ("random-commuting?seed=false", "parameter 'seed' must be an integer, got False"),
        ("random-commuting?dim=Infinity", "parameter 'dim' must be an integer, got inf"),
        ("dephasing?gamma=true", "parameter 'gamma' must be a number, got True"),
        ("refrigerator?omega1=true", "parameter 'omega1' must be a number, got True"),
        ("random-commuting?h_scale=false", "parameter 'h_scale' must be a number, got False"),
    ])
    def test_builtin_spec_rejects_unknown_and_non_integral_parameters(
            self, tmp_path, capsys, spec, message):
        # a misspelled key once read as its default, int() truncated 2.7 to 2,
        # and float() read true as 1.0
        bounds = "classical" if spec.startswith("classical") else (
            "ml" if spec.startswith("random-commuting") else "ml-open")
        argv = ["check", "--model", f"builtin:{spec}", "--state", "plus", "--bounds", bounds,
                "--t-final", "1.0", "--steps", "1", "--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_builtin_spec_takes_integral_floats(self):
        model, _ = cli._parse_builtin("builtin:random-commuting?dim=3.0&seed=4.0")
        want, _ = cli._parse_builtin("builtin:random-commuting?dim=3&seed=4")
        assert serialize.model_to_dict(model) == serialize.model_to_dict(want)


class TestCheckCommand:
    def test_dephasing_open_sweep(self, tmp_path):
        out = tmp_path / "dephasing.csv"
        code = cli.main(
            [
                "check",
                "--model", "builtin:dephasing?gamma=1.0",
                "--state", "plus",
                "--bounds", "ml-open,mt-open",
                "--t-final", "2.0",
                "--steps", "8",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out)
        assert {r["bound"] for r in rows} == {
            "fid-ml-open", "qsl-ml-open", "tur-ml-open",
            "fid-mt-open", "qsl-mt-open", "tur-mt-open",
        }
        for r in rows:
            if r["applicable"] == "true":
                assert float(r["slack"]) >= -1e-8
            # the mean-based floor is tight for dephasing
            if r["bound"] in ("fid-ml-open", "fid-mt-open"):
                assert abs(float(r["slack"])) <= 1e-10
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["all_applicable_hold"]

    def test_refrigerator_sweep_conditions_pass(self, tmp_path):
        out = tmp_path / "fridge.csv"
        code = cli.main(
            [
                "check",
                "--model", "builtin:refrigerator?gamma=1.0&omega1=1.0&omega2=1.0&beta1=1.0&beta2=1.0&beta3=1.0",
                "--state", "plus",
                "--bounds", "ml-open,mt-open",
                "--t-final", "1.0",
                "--steps", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out)
        ml_rows = [r for r in rows if r["bound"].endswith("ml-open")]
        assert ml_rows
        for r in ml_rows:
            assert "commuting_hs_jumps" not in r["cond_failures"]

    def test_closed_sweep_with_window(self, tmp_path):
        out = tmp_path / "closed.csv"
        model_file = tmp_path / "model.json"
        serialize.save_model(model_file, random_commuting(2, 11, gamma_scale=0.3))
        code = cli.main(
            [
                "check",
                "--model", str(model_file),
                "--state", "plus",
                "--bounds", "ml,mt",
                "--t-final", "0.5",
                "--steps", "4",
                "--tau1", "0.1",
                "--tau2", "0.3",
                "--observable", "proj:1",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out)
        kinds = {r["bound"] for r in rows}
        assert "qsl-ml-simple" in kinds and "energy-time" in kinds
        # window rows appended at t = tau2
        mt_ts = [float(r["t"]) for r in rows if r["bound"] == "qsl-mt"]
        assert 0.3 in mt_ts

    def test_short_window_emits_energy_time(self, tmp_path):
        # the energy-time derivative is exact, so any window end has its row
        out = tmp_path / "short.csv"
        code = cli.main(
            [
                "check",
                "--model", "builtin:random-commuting?dim=2&seed=11&gamma_scale=0.3",
                "--state", "plus",
                "--bounds", "mt",
                "--t-final", "0.5",
                "--steps", "1",
                "--tau1", "0.0",
                "--tau2", "5e-5",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = [r for r in read_rows(out) if r["bound"] == "energy-time"]
        assert sorted(float(r["t"]) for r in rows) == [5e-5, 0.5]

    def test_fd_step_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                [
                    "check",
                    "--model", "builtin:random-commuting?dim=2&seed=11",
                    "--state", "plus",
                    "--bounds", "mt",
                    "--t-final", "0.5",
                    "--steps", "1",
                    "--fd-step", "1e-4",
                    "--out", str(tmp_path / "x.csv"),
                ]
            )
        assert exc.value.code == 2

    def test_n_traj_is_rejected(self, tmp_path):
        # jump-count rows are exact: check samples no trajectories
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--model", "builtin:dephasing?gamma=1.0", "--state", "plus",
                      "--bounds", "ml-open", "--observable", "jump-count", "--t-final", "0.5",
                      "--steps", "1", "--n-traj", "10", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_vacuous_rows_exit_zero(self, tmp_path):
        # large energy gap: the positivity condition fails at these times
        out = tmp_path / "vacuous.csv"
        model_file = tmp_path / "model.json"
        serialize.save_model(
            model_file,
            NonHermitianModel(np.diag([0.0, 50.0]).astype(complex), np.zeros((2, 2))),
        )
        code = cli.main(
            [
                "check",
                "--model", str(model_file),
                "--state", "plus",
                "--bounds", "ml",
                "--t-final", "1.0",
                "--steps", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = [r for r in read_rows(out) if r["bound"] == "tur-ml"]
        assert rows and all(r["applicable"] == "false" for r in rows)
        assert all("floor_positive" in r["cond_failures"] for r in rows)

    def test_classical_group(self, tmp_path):
        out = tmp_path / "classical.csv"
        code = cli.main(
            [
                "check",
                "--model", "builtin:classical?rates=[[0,1],[1,0]]&p0=[1,0]",
                "--bounds", "classical,ml-open",
                "--t-final", "1.0",
                "--steps", "2",
                "--observable", "proj:1",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out)
        kinds = {r["bound"] for r in rows}
        assert {"qsl-classical", "tur-classical", "qsl-ml-open"} <= kinds

    def test_deterministic_output(self, tmp_path):
        args = [
            "check",
            "--model", "builtin:dephasing?gamma=1.0",
            "--state", "plus",
            "--bounds", "ml-open",
            "--t-final", "1.0",
            "--steps", "3",
            "--observable", "jump-count",
            "--seed", "7",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_config_exits_two(self, tmp_path, capsys):
        code = cli.main(
            [
                "check",
                "--model", "builtin:dephasing?gamma=1.0",
                "--state", "plus",
                "--bounds", "ml",     # closed bounds on a lindblad model
                "--t-final", "1.0",
                "--steps", "2",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("window", [[], ["--tau1", "0", "--tau2", "1"]])
    def test_repeated_group_exits_two(self, tmp_path, capsys, window):
        out = tmp_path / "x.csv"
        code = cli.main(
            [
                "check",
                "--model", "builtin:random-commuting?dim=2&seed=1",
                "--state", "plus",
                "--bounds", "ml,mt,ml",
                "--t-final", "1",
                "--steps", "1",
                *window,
                "--out", str(out),
            ]
        )
        assert code == 2
        assert "'ml' is given more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model, bounds", [
        ("builtin:random-commuting?dim=2&seed=1", "ml"),
        ("builtin:dephasing?gamma=1.0", "ml-open,mt-open"),
    ])
    def test_window_without_mt_exits_two(self, tmp_path, capsys, model, bounds):
        """A --tau1/--tau2 window belongs to the mt group; without it the
        window would be ignored, so the run stops and names the flags."""
        out = tmp_path / "x.csv"
        code = cli.main([
            "check", "--model", model, "--state", "plus", "--bounds", bounds,
            "--t-final", "1", "--steps", "1", "--tau1", "0.1", "--tau2", "0.3",
            "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--tau1/--tau2" in err and "--bounds" in err
        assert not out.exists()

    def test_unknown_model_file_exits_two(self, tmp_path, capsys):
        code = cli.main(
            [
                "check",
                "--model", str(tmp_path / "missing.json"),
                "--t-final", "1.0",
                "--steps", "2",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTrajectoryCommand:
    def test_dephasing_run(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = cli.main(
            [
                "trajectory",
                "--model", "builtin:dephasing?gamma=1.0",
                "--state", "plus",
                "--t-final", "1.0",
                "--n-traj", "300",
                "--seed", "9",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 300
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["mean_jump_count"] == pytest.approx(1.0, abs=0.25)
        assert summary["max_abs_deviation_from_lindblad"] <= 0.1
        assert summary["n_steps"] == 1 and "dt" not in summary

    @pytest.mark.parametrize("command", ["trajectory", "check"])
    def test_dt_max_is_rejected(self, tmp_path, command):
        # the sampler is exact in time: there is no step size to cap
        args = [
            command,
            "--model", "builtin:dephasing?gamma=1.0",
            "--state", "plus",
            "--t-final", "0.5",
            "--dt-max", "1e-3",
            "--out", str(tmp_path / "x.csv"),
        ]
        if command == "check":
            args += ["--steps", "1", "--bounds", "ml-open", "--observable", "jump-count"]
        else:
            args += ["--n-traj", "10"]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2

    def test_csv_bytes(self, tmp_path):
        # one "index,count" line per trajectory, byte for byte what the csv
        # module writes, \r\n terminators included
        out = tmp_path / "traj.csv"
        args = [
            "trajectory",
            "--model", "builtin:dephasing?gamma=1.5",
            "--state", "plus",
            "--t-final", "0.7",
            "--n-traj", "40",
            "--seed", "6",
            "--out", str(out),
        ]
        assert cli.main(args) == 0
        plus = StateVector(np.ones(2) / np.sqrt(2.0))
        counts = trajectory_ensemble(make_dephasing(1.5), plus, 0.7, 40, 6).jump_counts
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["traj", "jumps"])
        writer.writerows(enumerate(counts.tolist()))
        assert out.read_bytes() == expected.getvalue().encode()

    def test_deterministic(self, tmp_path):
        args = [
            "trajectory",
            "--model", "builtin:dephasing?gamma=1.0",
            "--state", "plus",
            "--t-final", "0.5",
            "--n-traj", "100",
            "--seed", "3",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestParser:
    def test_built_once_per_process(self):
        assert cli._parser() is cli._parser()

    def test_reuse_carries_no_state_between_calls(self, tmp_path):
        base = ["check", "--model", "builtin:dephasing?gamma=1.0", "--state", "plus",
                "--bounds", "ml-open", "--t-final", "0.5", "--steps", "1"]
        out = tmp_path / "out.csv"
        assert cli.main(base + ["--seed", "5", "--out", str(out)]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(base + ["--no-such-flag"])
        assert exc.value.code == 2
        assert cli.main(base + ["--out", str(out)]) == 0
        assert json.loads(out.with_suffix(".summary.json").read_text())["seed"] == 0
