#!/usr/bin/env python3
"""Sweep every open-system bound for the qubit dephasing model.

For dephasing the mean-based and deviation-based fidelity floors are both
exactly the record-state overlap e^(-gamma t / 2), so the fid-* rows are
equalities; the speed limits and uncertainty relations hold with positive
slack.  Writes a CSV next to this script unless --out is given.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nhbounds import StateVector, make_dephasing, sweep  # noqa: E402
from nhbounds.cli import main as cli_main  # noqa: E402


def run(gamma: float, t_final: float, steps: int, out: str) -> int:
    model = make_dephasing(gamma)
    plus = StateVector(np.array([1.0, 1.0]) / math.sqrt(2.0))
    proj = np.diag([0.0, 1.0]).astype(complex)
    print(f"dephasing gamma={gamma}, |+> start; hbar = 1")
    print(f"{'t':>6} {'overlap':>10} {'ml floor':>10} {'mt floor':>10} "
          f"{'qsl-ml':>9} {'qsl-mt':>9} {'tur-ml':>9} {'tur-mt':>9}")
    times = [t_final * k / steps for k in range(1, steps + 1)]
    rows = {}
    for t, r in sweep(model, plus, times, ["ml-open", "mt-open"], proj):
        rows[t, r.kind] = r

    def tag(r):
        return f"{r.slack:+.2e}" if r.applicable else "   vacuous"

    for t in times:
        f_ml, f_mt = rows[t, "fid-ml-open"], rows[t, "fid-mt-open"]
        kinds = ("qsl-ml-open", "qsl-mt-open", "tur-ml-open", "tur-mt-open")
        print(f"{t:6.2f} {f_ml.lhs:10.6f} {f_ml.rhs:10.6f} {f_mt.rhs:10.6f} "
              + " ".join(tag(rows[t, kind]) for kind in kinds))
    return cli_main([
        "check", "--model", f"builtin:dephasing?gamma={gamma}", "--state", "plus",
        "--bounds", "ml-open,mt-open", "--t-final", str(t_final),
        "--steps", str(steps), "--out", out,
    ])


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--t-final", type=float, default=2.0)
    ap.add_argument("--steps", type=int, default=8)
    ap.add_argument("--out", default=str(Path(__file__).parent / "dephasing_sweep.csv"))
    args = ap.parse_args()
    sys.exit(run(args.gamma, args.t_final, args.steps, args.out))
