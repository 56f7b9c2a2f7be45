"""Batch front end: bound sweeps, trajectory experiments, model emission.

Subcommands:

* ``check``: evaluate bound families on a time grid, write one CSV row per
  (t, bound kind) plus a JSON summary.  Exit status 0 iff every applicable
  row satisfies its inequality within tolerance, 1 on a violation, and 2 on
  a configuration error or a numerical ``SimulationError``.
* ``trajectory``: run a quantum-jump ensemble, write per-trajectory jump
  counts plus a summary comparing the ensemble mean state against the
  Lindblad solution and the sampled mean jump count against its exact
  value (as a z-score).
* ``models``: construct a built-in model and emit its JSON description.

Outputs are deterministic for a fixed configuration and master seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import serialize
from .errors import BadParameter, SimulationError
from .models import (
    ClassicalMarkovModel,
    classical_initial_density,
    make_classical,
    make_dephasing,
    make_refrigerator,
    random_commuting,
)
from .propagation import (
    LindbladModel,
    _require_key,
    evolve_lindblad,
    jump_count_moments,
    trajectory_ensemble,
)
from .states import DensityOperator, StateVector

CSV_COLUMNS = ["t", "bound", "lhs", "rhs", "slack", "applicable", "cond_failures", "quad_err"]


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


# the parameters of each builtin model, keyed as the ``models`` flags are
_BUILTIN_KEYS = {
    "dephasing": ("gamma",),
    "refrigerator": ("gamma", "omega1", "omega2", "beta1", "beta2", "beta3"),
    "classical": ("rates", "p0"),
    "random-commuting": ("dim", "seed", "gamma_scale", "h_scale"),
}


def _builtin(name: str, params: dict):
    """The builtin model ``name``, its parameters keyed and defaulted as the
    ``models`` flags are."""

    def num(key: str, default=1.0, kind=float):
        value = params.get(key, default)
        if kind is int and not (type(value) is int
                                or isinstance(value, float) and value.is_integer()):
            raise BadParameter(f"builtin parameter {key!r} must be an integer, got {value!r}")
        if type(value) is bool:
            raise BadParameter(f"builtin parameter {key!r} must be a number, got {value!r}")
        try:
            return kind(value)
        except TypeError:
            raise BadParameter(f"builtin parameter {key!r} must be a number") from None

    if name == "dephasing":
        return make_dephasing(num("gamma"))
    if name == "refrigerator":
        return make_refrigerator(*map(num, _BUILTIN_KEYS["refrigerator"]))
    if name == "classical":
        if params.get("rates") is None or params.get("p0") is None:
            raise BadParameter("classical model needs rates and p0")
        return ClassicalMarkovModel(
            serialize._floats(params["rates"], "rates"), serialize._floats(params["p0"], "p0")
        )
    if name == "random-commuting":
        return random_commuting(
            num("dim", 2, int), num("seed", 0, int),
            gamma_scale=num("gamma_scale"), h_scale=num("h_scale"),
        )
    raise SimulationError(f"unknown builtin model {name!r}")


def _parse_builtin(spec: str):
    """``builtin:name?key=value&key=value`` -> (model, None); a key the model
    does not take is a ``BadParameter``."""
    body = spec.split(":", 1)[1]
    name, _, query = body.partition("?")
    params: dict = {}
    if query:
        for item in query.split("&"):
            key, _, value = item.partition("=")
            params[key.replace("-", "_")] = _parse_scalar(value)
    unknown = sorted(set(params) - set(_BUILTIN_KEYS.get(name, params)))
    if unknown:
        raise BadParameter(f"builtin model {name!r} takes no parameter {unknown[0]!r} "
                           f"(it takes {', '.join(_BUILTIN_KEYS[name])})")
    return _builtin(name, params), None


def _load_model(spec: str):
    if spec.startswith("builtin:"):
        return _parse_builtin(spec)
    return serialize.load_model(spec)


def _parse_state(spec: str | None, model, initial):
    dim = model.n_states if isinstance(model, ClassicalMarkovModel) else model.dim
    if spec is None:
        if initial is not None:
            return initial
        if isinstance(model, ClassicalMarkovModel):
            return classical_initial_density(model)
        raise SimulationError("no initial state: pass --state or put one in the model JSON")
    if spec == "plus":
        return StateVector(np.ones(dim, dtype=complex) / math.sqrt(dim))
    if spec == "maxmixed":
        return DensityOperator(np.eye(dim, dtype=complex) / dim)
    if spec.startswith("basis:"):
        amp = np.zeros(dim, dtype=complex)
        amp[_level(spec, dim)] = 1.0
        return StateVector(amp)
    if spec.startswith("{"):
        return serialize.state_from_json(json.loads(spec), dim)
    return serialize.state_from_json(json.loads(Path(spec).read_text()), dim)


def _level(spec: str, dim: int) -> int:
    """The level K of a ``name:K`` spec, checked to lie in [0, dim)."""
    k = int(spec.split(":", 1)[1])
    if not 0 <= k < dim:
        raise BadParameter(f"{spec!r}: level must lie in [0, {dim})")
    return k


def _parse_observable(spec: str | None, dim: int):
    if spec is None or spec == "proj:last":
        spec = f"proj:{dim - 1}"
    if spec.startswith("proj:"):
        k = _level(spec, dim)
        out = np.zeros((dim, dim), dtype=complex)
        out[k, k] = 1.0
        return out
    if spec.startswith("diag:"):
        vals = [float(x) for x in spec.split(":", 1)[1].split(",")]
        if len(vals) != dim:
            raise SimulationError(f"diag observable needs {dim} entries")
        return np.diag(vals).astype(complex)
    if spec == "jump-count":
        return bnd.JumpCountObservable()
    raise SimulationError(f"unknown observable spec {spec!r}")


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _report_row(t: float, report: bnd.BoundReport) -> dict:
    return {
        "t": _fmt(float(t)),
        "bound": report.kind,
        "lhs": _fmt(float(report.lhs)),
        "rhs": _fmt(float(report.rhs)),
        "slack": _fmt(float(report.slack)),
        "applicable": _fmt(report.applicable),
        "cond_failures": ";".join(report.failed_conditions()),
        "quad_err": _fmt(float(report.params["quad_err"])) if "quad_err" in report.params else "",
    }


def _require_finite(args, *flags: str) -> None:
    """Reject a non-finite value of any of the float ``flags`` that was given."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and not math.isfinite(value):
            raise BadParameter(f"{flag} must be finite, got {value!r}")


def _run_check(args) -> int:
    _require_finite(args, "--t-final", "--tau1", "--tau2")
    _require_key("seed", args.seed)
    model, initial = _load_model(args.model)
    state = _parse_state(args.state, model, initial)
    groups = [g.strip() for g in args.bounds.split(",") if g.strip()]

    n = int(args.steps)
    if n < 1 or args.t_final <= 0:
        raise SimulationError("need --t-final > 0 and --steps >= 1")
    times = [args.t_final * (k + 1) / n for k in range(n)]
    if times[0] <= 0:  # t_final / n underflowed to 0
        raise SimulationError("time grid must be strictly positive")
    window = None
    if args.tau1 is not None or args.tau2 is not None:
        if "mt" not in groups:
            raise BadParameter("--tau1/--tau2 set a window of the mt group; add mt to --bounds")
        if args.tau1 is None or args.tau2 is None or not 0 <= args.tau1 < args.tau2:
            raise SimulationError("--tau1/--tau2 must satisfy 0 <= tau1 < tau2")
        window = (args.tau1, args.tau2)

    observable = _parse_observable(args.observable, state.dim)
    reports = bnd.sweep(model, state, times, groups, observable, window=window,
                        steps=args.quad_panels)
    rows = [_report_row(t, r) for t, r in reports]

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    violations = [
        r for r in rows
        if r["applicable"] == "true" and float(r["slack"]) < -bnd.SLACK_TOL
    ]
    per_kind: dict[str, dict] = {}
    for r in rows:
        entry = per_kind.setdefault(
            r["bound"], {"rows": 0, "applicable": 0, "min_slack": None}
        )
        entry["rows"] += 1
        if r["applicable"] == "true":
            entry["applicable"] += 1
            s = float(r["slack"])
            if entry["min_slack"] is None or s < entry["min_slack"]:
                entry["min_slack"] = s
    summary = {
        "model": args.model,
        "bounds": groups,
        "t_final": args.t_final,
        "steps": n,
        "quad_panels": args.quad_panels,
        "seed": args.seed,
        "rows": len(rows),
        "violations": violations,
        "per_bound": per_kind,
        "slack_tolerance": bnd.SLACK_TOL,
        "all_applicable_hold": not violations,
    }
    summary_path = out.with_suffix(".summary.json")
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True, default=str))
    print(f"wrote {len(rows)} rows to {out}; summary in {summary_path}")
    return 0 if not violations else 1


def _run_trajectory(args) -> int:
    _require_finite(args, "--t-final")
    model, initial = _load_model(args.model)
    if isinstance(model, ClassicalMarkovModel):
        chain = model
        model = make_classical(chain)
        state = _parse_state(args.state, chain, initial or classical_initial_density(chain))
    elif isinstance(model, LindbladModel):
        state = _parse_state(args.state, model, initial)
    else:
        raise SimulationError("trajectory needs a lindblad or classical model")
    if args.n_traj < 1:
        raise SimulationError("--n-traj must be at least 1")
    if args.t_final <= 0:
        raise SimulationError("--t-final must be positive")

    ens = trajectory_ensemble(model, state, args.t_final, args.n_traj, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        # the bytes csv.writer makes, \r\n terminators included, in one join
        rows = (f"{i},{n}\r\n" for i, n in enumerate(ens.jump_counts.tolist()))
        fh.write("traj,jumps\r\n" + "".join(rows))

    exact = evolve_lindblad(model, state, args.t_final)
    dev = np.abs(ens.mean_states[0] - exact)
    se = np.sqrt(ens.stderr_real[0] ** 2 + ens.stderr_imag[0] ** 2)
    exact_mean, exact_var = jump_count_moments(model, state, args.t_final)
    gap, count_se = ens.mean_jump_count() - exact_mean, ens.jump_count_stderr()
    summary = {
        "n_trajectories": ens.n_trajectories,
        "t_final": args.t_final,
        "seed": args.seed,
        "n_steps": ens.n_steps,
        "mean_jump_count": ens.mean_jump_count(),
        "jump_count_std": ens.jump_count_std(),
        "jump_count_stderr": ens.jump_count_stderr(),
        "max_abs_deviation_from_lindblad": float(dev.max()),
        "max_entry_stderr": float(se.max()),
        "exact_mean_jump_count": exact_mean,
        "exact_jump_count_var": exact_var,
        # null when the sampled counts have no spread but miss the exact mean
        "jump_count_z": gap / count_se if count_se > 0 else (0.0 if gap == 0 else None),
    }
    out.with_suffix(".summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(f"wrote {ens.n_trajectories} trajectories to {out}")
    return 0


def _run_models(args) -> int:
    params = dict(vars(args))
    for key in ("rates", "p0"):
        if params[key] is not None:
            params[key] = json.loads(params[key])
    serialize.save_model(args.emit, _builtin(args.name, params))
    print(f"wrote {args.name} model to {args.emit}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nhbounds",
        description="Evaluate speed limits and uncertainty relations for "
        "non-Hermitian and continuously measured quantum dynamics.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    chk = sub.add_parser("check", help="run a bound sweep over a time grid")
    chk.add_argument("--model", required=True, help="model JSON path or builtin:name?k=v")
    chk.add_argument("--state", default=None, help="plus | maxmixed | basis:K | JSON")
    chk.add_argument("--bounds", default="ml,mt", help="comma list: " + ",".join(bnd.FAMILIES))
    chk.add_argument("--t-final", type=float, required=True)
    chk.add_argument("--steps", type=int, required=True)
    chk.add_argument("--tau1", type=float, default=None)
    chk.add_argument("--tau2", type=float, default=None)
    chk.add_argument("--observable", default=None, help="proj:K | diag:a,b,... | jump-count")
    chk.add_argument("--quad-panels", type=int, default=bnd.DEFAULT_QUAD_STEPS,
                     help="minimum MT quadrature nodes, rounded up to whole 15-node "
                     "G7/K15 intervals that adaptive bisection then refines")
    chk.add_argument("--seed", type=int, default=0,
                     help="in [0, 2**64); unused by the exact rows, echoed in the summary")
    chk.add_argument("--out", required=True)
    chk.set_defaults(func=_run_check)

    trj = sub.add_parser("trajectory", help="sample a quantum-jump ensemble")
    trj.add_argument("--model", required=True)
    trj.add_argument("--state", default=None)
    trj.add_argument("--t-final", type=float, required=True)
    trj.add_argument("--n-traj", type=int, required=True)
    trj.add_argument("--seed", type=int, default=0)
    trj.add_argument("--out", required=True)
    trj.set_defaults(func=_run_trajectory)

    mdl = sub.add_parser("models", help="emit a built-in model as JSON")
    mdl.add_argument("name", choices=["dephasing", "refrigerator", "classical", "random-commuting"])
    mdl.add_argument("--gamma", type=float, default=1.0)
    mdl.add_argument("--omega1", type=float, default=1.0)
    mdl.add_argument("--omega2", type=float, default=1.0)
    mdl.add_argument("--beta1", type=float, default=1.0)
    mdl.add_argument("--beta2", type=float, default=1.0)
    mdl.add_argument("--beta3", type=float, default=1.0)
    mdl.add_argument("--rates", default=None, help="JSON rate matrix (classical)")
    mdl.add_argument("--p0", default=None, help="JSON initial distribution (classical)")
    mdl.add_argument("--dim", type=int, default=2)
    mdl.add_argument("--seed", type=int, default=0)
    mdl.add_argument("--gamma-scale", type=float, default=1.0)
    mdl.add_argument("--h-scale", type=float, default=1.0)
    mdl.add_argument("--emit", required=True)
    mdl.set_defaults(func=_run_models)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused for the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
