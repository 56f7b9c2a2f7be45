#!/usr/bin/env python3
"""Quantum-jump unraveling demo: ensemble average versus the Lindblad state.

Runs a seeded dephasing ensemble, prints the entrywise deviation of the
trajectory mean from the exact Lindblad solution in units of the Monte
Carlo standard error, and the jump-count statistics against the Poisson
rate gamma * t.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nhbounds import (  # noqa: E402
    StateVector,
    evolve_lindblad,
    make_dephasing,
    pure_density,
    trajectory_ensemble,
)


def run(args) -> int:
    model = make_dephasing(args.gamma)
    plus = StateVector(np.array([1.0, 1.0]) / np.sqrt(2.0))
    times = [args.t_final * k / 4 for k in range(1, 5)]
    ens = trajectory_ensemble(
        model, plus, args.t_final, args.n_traj, args.seed, sample_times=times
    )
    print(f"dephasing gamma={args.gamma}, {args.n_traj} trajectories, seed={args.seed}")
    print(f"{'t':>6} {'max |dev|':>12} {'max dev/SE':>12}")
    worst = 0.0
    for k, t in enumerate(times):
        exact = evolve_lindblad(model, pure_density(plus), t).matrix
        dev_re = np.abs(ens.mean_states[k].real - exact.real)
        dev_im = np.abs(ens.mean_states[k].imag - exact.imag)
        sigmas = []
        for dev, se in ((dev_re, ens.stderr_real[k]), (dev_im, ens.stderr_imag[k])):
            mask = se > 0
            if mask.any():
                sigmas.append(float((dev[mask] / se[mask]).max()))
        s = max(sigmas) if sigmas else 0.0
        worst = max(worst, s)
        print(f"{t:6.2f} {max(dev_re.max(), dev_im.max()):12.3e} {s:12.2f}")
    mean = ens.mean_jump_count()
    se = ens.jump_count_stderr()
    pull = abs(mean - args.gamma * args.t_final) / se if se else 0.0
    print(f"jump count: {mean:.4f} +- {se:.4f} vs gamma*t = "
          f"{args.gamma * args.t_final:g}  ({pull:.2f} sigma)")
    return 0 if worst <= 5.0 and pull <= 3.0 else 1


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--t-final", type=float, default=1.0)
    ap.add_argument("--n-traj", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sys.exit(run(args))
