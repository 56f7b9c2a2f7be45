#!/usr/bin/env python3
"""Bound sweep for the three-level autonomous refrigerator.

The jump operators only connect energy eigenstates, so the commuting
precondition of the mean-based bounds holds; starting from a coherent
superposition the dynamics still develops off-diagonal structure that a
classical chain cannot, and all four open-system bounds stay satisfied.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nhbounds import (  # noqa: E402
    StateVector,
    evolve_lindblad,
    make_refrigerator,
    pure_density,
    sweep,
)


def run(args) -> int:
    model = make_refrigerator(
        args.gamma, args.omega1, args.omega2, args.beta1, args.beta2, args.beta3
    )
    psi0 = StateVector(np.ones(3, dtype=complex) / np.sqrt(3.0))
    obs = np.diag([0.0, 0.0, 1.0]).astype(complex)  # top-level occupation
    print("three-level refrigerator, coherent (equal-weight) start")
    print(f"{'t':>6} {'coherence':>10} {'qsl-ml':>10} {'tur-ml':>10} {'qsl-mt':>10} {'tur-mt':>10}")
    times = [args.t_final * k / args.steps for k in range(1, args.steps + 1)]
    rows = {}
    for t, r in sweep(model, psi0, times, ["ml-open", "mt-open"], obs):
        rows[t, r.kind] = r
    worst, holds = np.inf, True
    for t, rho_t in zip(times, evolve_lindblad(model, pure_density(psi0), times)):
        coh = np.max(np.abs(rho_t - np.diag(np.diagonal(rho_t))))
        cells = []
        for kind in ("qsl-ml-open", "tur-ml-open", "qsl-mt-open", "tur-mt-open"):
            r = rows[t, kind]
            if r.applicable:
                worst = min(worst, r.slack)
                holds = holds and r.satisfied
                cells.append(f"{r.slack:+.3e}")
            else:
                cells.append("   vacuous")
        print(f"{t:6.2f} {coh:10.4f} " + " ".join(f"{c:>10}" for c in cells))
    print(f"minimum applicable slack: {worst:+.3e}")
    return 0 if holds else 1

if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--omega1", type=float, default=1.0)
    ap.add_argument("--omega2", type=float, default=1.0)
    ap.add_argument("--beta1", type=float, default=1.0)
    ap.add_argument("--beta2", type=float, default=1.0)
    ap.add_argument("--beta3", type=float, default=1.0)
    ap.add_argument("--t-final", type=float, default=1.5)
    ap.add_argument("--steps", type=int, default=6)
    args = ap.parse_args()
    sys.exit(run(args))
