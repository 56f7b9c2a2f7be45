"""Output checks that do not depend on how the program computes its numbers.

A check returns ``None`` when the op's output is right, else a one-line
reason.  ``check`` ops must hold every applicable bound; ``trajectory`` ops
are compared against exact statistics.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

SLACK_TOL = 1e-8            # the CLI's documented violation tolerance
JUMP_MEAN_SIGMAS = 5.0      # dephasing jump count vs the exact Poisson mean
LINDBLAD_SIGMAS = 5.0       # trajectory mean state vs the exact Lindblad state
FIRST_ORDER_BIAS = 1e-3     # documented first-order bias allowance of the sampler

# Rows of the deviation-based (MT) bounds: each carries the quadrature's error
# estimate, and a sweep must not drop it, or its accuracy would go unchecked.
QUAD_ERR_KINDS = frozenset({"fid-mt", "qsl-mt", "tur-mt", "fid-mt-open", "qsl-mt-open",
                            "tur-mt-open"})


def _summary(out: Path) -> dict:
    return json.loads(out.with_suffix(".summary.json").read_text())


def _rows(out: Path) -> list[dict]:
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(out: Path, expect: dict) -> tuple[str | None, list[float]]:
    """Check a ``check`` op; also return the quad_err values of its MT rows."""
    if not _summary(out).get("all_applicable_hold"):
        return "summary reports a violated bound", []
    rows = _rows(out)
    got = sorted((float(r["t"]), r["bound"]) for r in rows)
    want = expect["rows"]
    if len(got) != len(want) or any(
        g[1] != w[1] or not math.isclose(g[0], w[0], rel_tol=1e-12, abs_tol=1e-15)
        for g, w in zip(got, want)
    ):
        return f"row set differs: got {len(got)} rows, expected {len(want)}", []
    quad_errs = []
    for r in rows:
        if r["bound"] in QUAD_ERR_KINDS:
            q = float(r["quad_err"] or "nan")
            if not (math.isfinite(q) and q >= 0.0):
                return f"{r['bound']} at t={r['t']} has quad_err {r['quad_err']!r}", quad_errs
            quad_errs.append(q)
        if r["applicable"] != "true":
            continue
        vals = [float(r[k]) for k in ("lhs", "rhs", "slack")]
        if not all(math.isfinite(v) for v in vals):
            return f"non-finite applicable row {r['bound']} at t={r['t']}", quad_errs
        if vals[2] < -SLACK_TOL:
            return f"{r['bound']} violated at t={r['t']}: slack {vals[2]!r}", quad_errs
    return None, quad_errs


def check_trajectory(out: Path, expect: dict) -> str | None:
    rows = _rows(out)
    n = expect["n_traj"]
    if [int(r["traj"]) for r in rows] != list(range(n)):
        return f"expected trajectory rows 0..{n - 1}, got {len(rows)} rows"
    counts = [int(r["jumps"]) for r in rows]
    if min(counts) < 0:
        return "negative jump count"
    if "poisson_mean" in expect:
        mu = expect["poisson_mean"]
        mean = sum(counts) / n
        se = math.sqrt(mu / n)
        if abs(mean - mu) > JUMP_MEAN_SIGMAS * se:
            return f"mean jump count {mean:.4f} is {abs(mean - mu) / se:.1f} SE from {mu:.4f}"
    if expect.get("lindblad_check"):
        s = _summary(out)
        dev, se = s["max_abs_deviation_from_lindblad"], s["max_entry_stderr"]
        if not dev <= LINDBLAD_SIGMAS * se + FIRST_ORDER_BIAS:
            return f"mean state deviates from Lindblad by {dev:.3e} (stderr {se:.3e})"
    return None
