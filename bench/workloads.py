"""Seeded workload generators.

Each generator turns a workload seed into a list of :class:`Op` objects: the
full ``nhbounds`` argv, any model or state JSON the op reads, and what its
output check needs to know.  Inputs are built here with numpy only, following
the JSON schema in the README, so the program under test sees nothing but the
generated files and arguments.

Op kinds cycle in a fixed order and only continuous parameters are drawn from
the seed.  Any prefix of an op list therefore has the same mix of kinds, so a
run that stops at a time limit measures the same mix on every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Row kinds each bound group writes per time point (README, "CLI").
GROUP_ROWS = {
    "ml": ("fid-ml", "qsl-ml", "qsl-ml-simple", "tur-ml"),
    "mt": ("fid-mt", "qsl-mt", "tur-mt", "energy-time"),
    "ml-open": ("fid-ml-open", "qsl-ml-open", "tur-ml-open"),
    "mt-open": ("fid-mt-open", "qsl-mt-open", "tur-mt-open"),
    "classical": ("qsl-classical", "tur-classical"),
}


@dataclass
class Op:
    """One in-process ``nhbounds.cli.main(argv)`` call and its expectations."""

    kind: str
    argv: list[str]
    out: Path
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    trace_pass: int     # ops in one traced (and one untraced) pass: whole rounds of kinds
    warmup: int         # untimed ops first: one of each model kind pays first-call costs


def _f(x: float) -> str:
    return repr(float(x))


def _cplx(z) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_json(m: np.ndarray) -> list:
    return [[_cplx(z) for z in row] for row in m]


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _pure_state(dim: int, rng: np.random.Generator) -> dict:
    amp = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amp /= np.linalg.norm(amp)
    return {"type": "pure", "data": [_cplx(z) for z in amp]}


def _mixed_state(dim: int, rng: np.random.Generator) -> dict:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho = _hermitize(rho / np.trace(rho).real)
    return {"type": "mixed", "data": _matrix_json(rho)}


def _write_json(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _grid(t_final: float, steps: int) -> list[float]:
    return [t_final * (k + 1) / steps for k in range(steps)]


def check_expect(groups: list[str], t_final: float, steps: int, window=None) -> dict:
    rows = [(t, kind) for t in _grid(t_final, steps) for g in groups for kind in GROUP_ROWS[g]]
    if window is not None and "mt" in groups:
        rows += [(window[1], kind) for kind in GROUP_ROWS["mt"]]
    return {"rows": sorted(rows)}


def _check_argv(model: str, groups: list[str], t_final: float, steps: int, out: Path,
                extra: list[str]) -> list[str]:
    return ["check", "--model", model, "--bounds", ",".join(groups),
            "--t-final", _f(t_final), "--steps", str(steps), *extra, "--out", str(out)]


# ---------------------------------------------------------------------------
# closed-battery: many small ml,mt sweeps on commuting non-Hermitian models


def closed_battery(seed: int, work: Path, n_ops: int = 100) -> Workload:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for i in range(n_ops):
        dim = 2 + (i // 2) % 5
        gamma_scale = rng.uniform(0.2, 2.0)
        h_scale = rng.uniform(0.5, 2.0)
        t_final = rng.uniform(0.4, 1.2)
        tau1 = rng.uniform(0.0, 0.4) * t_final
        tau2 = tau1 + rng.uniform(0.2, 0.6) * t_final
        proj = int(rng.integers(dim))
        out = work / f"op{i}.csv"
        if i % 2 == 0:
            model = (f"builtin:random-commuting?dim={dim}&seed={int(rng.integers(2**31))}"
                     f"&gamma_scale={_f(gamma_scale)}&h_scale={_f(h_scale)}")
            state = ["--state", "plus" if i % 4 == 0 else f"basis:{int(rng.integers(dim))}"]
        else:
            v = _unitary(dim, rng)
            h = _hermitize((v * rng.uniform(-h_scale, h_scale, dim)) @ v.conj().T)
            g = _hermitize((v * rng.uniform(0.0, gamma_scale, dim)) @ v.conj().T)
            initial = _pure_state(dim, rng) if i % 4 == 1 else _mixed_state(dim, rng)
            model = _write_json(work / f"model{i}.json", {
                "kind": "nonhermitian", "dim": dim, "H": _matrix_json(h),
                "Gamma": _matrix_json(g), "initial": initial})
            state = []
        extra = [*state, "--tau1", _f(tau1), "--tau2", _f(tau2), "--observable", f"proj:{proj}"]
        groups = ["ml", "mt"]
        ops.append(Op("check", _check_argv(model, groups, t_final, 2, out, extra), out,
                      check_expect(groups, t_final, 2, (tau1, tau2))))
    return Workload(ops, trace_pass=20, warmup=2)


# ---------------------------------------------------------------------------
# open-sweep: dense ml-open,mt-open grids on Lindblad and classical models


def _random_lindblad(dim: int, rng: np.random.Generator) -> dict:
    """Diagonal H_S with jumps that keep sum L^dag L diagonal (commuting)."""
    h_s = np.diag(rng.uniform(0.0, 1.0, dim)).astype(complex)
    jumps = []
    for _ in range(int(rng.integers(1, dim + 1))):
        if rng.random() < 0.5:
            nu, mu = rng.choice(dim, size=2, replace=False)
            l = np.zeros((dim, dim), dtype=complex)
            l[nu, mu] = np.sqrt(rng.uniform(0.1, 1.0))
        else:
            l = np.diag(rng.uniform(-1.0, 1.0, dim)).astype(complex)
        jumps.append(_matrix_json(l))
    return {"kind": "lindblad", "dim": dim, "H_S": _matrix_json(h_s), "jumps": jumps}


def _refrigerator_spec(rng: np.random.Generator, gamma: float) -> str:
    betas = rng.uniform(0.8, 1.2, 3)
    return (f"builtin:refrigerator?gamma={_f(gamma)}&omega1=1.0&omega2=1.0"
            f"&beta1={_f(betas[0])}&beta2={_f(betas[1])}&beta3={_f(betas[2])}")


def open_sweep(seed: int, work: Path, n_ops: int = 40, steps: int = 16) -> Workload:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for i in range(n_ops):
        kind = ("dephasing", "refrigerator", "lindblad-json", "classical")[i % 4]
        mixed = (i // 4) % 2 == 0
        t_final = rng.uniform(0.8, 1.6)
        groups = ["ml-open", "mt-open"]
        out = work / f"op{i}.csv"
        state_of = _mixed_state if mixed else _pure_state
        extra: list[str] = []
        if kind == "dephasing":
            model = f"builtin:dephasing?gamma={_f(rng.uniform(0.3, 1.5))}"
            extra = ["--state", json.dumps(state_of(2, rng))]
        elif kind == "refrigerator":
            model = _refrigerator_spec(rng, rng.uniform(0.5, 1.5))
            extra = ["--state", json.dumps(state_of(3, rng))]
        elif kind == "lindblad-json":
            dim = int(rng.integers(2, 5))
            spec = _random_lindblad(dim, rng)
            spec["initial"] = state_of(dim, rng)
            model = _write_json(work / f"model{i}.json", spec)
        else:
            rates = rng.uniform(0.2, 1.2, (3, 3))
            np.fill_diagonal(rates, 0.0)
            if mixed:
                p0 = rng.dirichlet(np.ones(3))
            else:
                p0 = np.eye(3)[int(rng.integers(3))]
            model = (f"builtin:classical?rates={json.dumps(rates.tolist())}"
                     f"&p0={json.dumps(p0.tolist())}").replace(" ", "")
            groups.append("classical")
        ops.append(Op("check", _check_argv(model, groups, t_final, steps, out, extra), out,
                      check_expect(groups, t_final, steps)))
    return Workload(ops, trace_pass=8, warmup=4)


# ---------------------------------------------------------------------------
# jump-ensemble: quantum-jump ensembles and the jump-count TURs


def jump_ensemble(seed: int, work: Path, n_ops: int = 42) -> Workload:
    """Rounds of three ops, at the ensemble sizes the repo's callers use.

    A dephasing ensemble of 10,000 trajectories (ROADMAP item 1; five chunks
    of ``trajectory_ensemble``), a refrigerator ensemble of 2,000 (the CLI's
    ``--n-traj`` default) and a jump-count check on the refrigerator at that
    same default, which draws one ensemble each for ``tur-ml-open`` and
    ``tur-mt-open``.  The Euler sampler's steps grow with rate * tau, so tau
    is short: the two ensembles take about 0.4 s, the check about 1.6 s.  The
    check's gamma * tau stays near 0.32: the sampled ``tur-mt-open`` row nears
    saturation as tau shrinks, and at 0.12 Monte Carlo noise alone drove its
    slack below zero.
    """
    rng = np.random.default_rng([seed, 3])
    ops = []
    for i in range(n_ops):
        kind = ("traj-dephasing", "traj-refrigerator", "check-jump-count")[i % 3]
        mixed = (i // 3) % 2 == 1
        gamma = rng.uniform(0.8, 1.6)
        # gamma * tau sets the steps per trajectory
        scaled = rng.uniform(0.14, 0.16) if kind != "check-jump-count" else rng.uniform(0.30, 0.34)
        tau = scaled / gamma
        out = work / f"op{i}.csv"
        traj_seed = str(int(rng.integers(2**31)))
        if kind == "traj-dephasing":
            state = _mixed_state(2, rng) if mixed else _pure_state(2, rng)
            n_traj = 10000
            argv = ["trajectory", "--model", f"builtin:dephasing?gamma={_f(gamma)}",
                    "--state", json.dumps(state), "--t-final", _f(tau),
                    "--n-traj", str(n_traj), "--seed", traj_seed, "--out", str(out)]
            ops.append(Op(kind, argv, out, {"n_traj": n_traj, "poisson_mean": gamma * tau}))
        elif kind == "traj-refrigerator":
            state = _mixed_state(3, rng) if mixed else _pure_state(3, rng)
            n_traj = 2000
            argv = ["trajectory", "--model", _refrigerator_spec(rng, gamma),
                    "--state", json.dumps(state), "--t-final", _f(tau),
                    "--n-traj", str(n_traj), "--seed", traj_seed, "--out", str(out)]
            ops.append(Op(kind, argv, out, {"n_traj": n_traj, "lindblad_check": True}))
        else:
            groups = ["ml-open", "mt-open"]
            extra = ["--state", "plus", "--observable", "jump-count", "--seed", traj_seed]
            argv = _check_argv(_refrigerator_spec(rng, gamma), groups, tau, 1, out, extra)
            ops.append(Op("check", argv, out, check_expect(groups, tau, 1)))
    return Workload(ops, trace_pass=6, warmup=3)


GENERATORS = {
    "closed-battery": closed_battery,
    "open-sweep": open_sweep,
    "jump-ensemble": jump_ensemble,
}


def build(name: str, seed: int, work: Path) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](seed, work)
