#!/usr/bin/env python3
"""Collect and judge result sets of ``bench/run.py``.

    # alternate parent and change runs, same seed within a pair
    python3 bench/compare.py pairs --parent ../parent --change . --out results/

    # judge two result sets (JSON lines written by ``run.py --out``)
    python3 bench/compare.py judge results/parent.jsonl results/change.jsonl

    # run-to-run spread of one result set against the bounds
    python3 bench/compare.py spread results/change.jsonl

Both sides of ``pairs`` run this directory's ``run.py``, so the benchmark
code and settings are identical; only the checkout it runs in differs.

``judge`` applies, per workload and end-to-end metric of BENCHMARK.json:

* gain: at least 10 pairs, the change wins at least 9 in 10 of them (ties
  count for neither side), and the medians differ by more than the parent's
  interquartile range, in the metric's better direction;
* regression: the change's median is worse than the parent's by more than
  the metric's bound;
* unresolved: either side's spread (interquartile range over median) is wider
  than the bound, unless every change run reads better than every parent run.

The accuracy guards ``quad_err_gmean`` and ``quad_err_max`` are exact for a
given seed and code, so they are judged seed by seed instead: a regression is
any seed whose change/parent ratio exceeds 1 + the bound of
``quad_err_gmean``.  A value that is not a finite number (say, no MT rows left
to average) reads as a regression.

A gain does not count when more ops failed than at the parent.  The exit
status is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
SEED0 = 1           # pairs run seeds 1, 2, ...
ACCURACY = ("quad_err_gmean", "quad_err_max")


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def load(path: str) -> dict[str, dict[int, dict]]:
    """workload -> seed -> end-to-end record (trace runs are skipped)."""
    out: dict[str, dict[int, dict]] = defaultdict(dict)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == 0:
                out[rec["workload"]][rec["seed"]] = rec
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rel_spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def values(recs: dict[int, dict], metric: str, seeds) -> list[float]:
    return [recs[s]["metrics"][metric]["value"] for s in seeds]


def judge_metric(par: list[float], chg: list[float], better: str, bound: float) -> tuple[str, int]:
    if not all(map(math.isfinite, chg)):
        return "REGRESSION: not finite", 0
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
    p1, pm, p3 = quartiles(par)
    cm = statistics.median(chg)
    improvement = sign * (cm - pm)
    if (len(par) >= MIN_PAIRS and wins >= WIN_SHARE * len(par)
            and improvement > p3 - p1):
        return "gain", wins
    if max(rel_spread(par), rel_spread(chg)) > bound:
        if min(sign * c for c in chg) > max(sign * p for p in par):
            return "better in every run", wins
        return "unresolved", wins
    if -improvement > bound * abs(pm):
        return "REGRESSION", wins
    return "no regression", wins


def judge_accuracy(par: list[float], chg: list[float], bound: float) -> tuple[str, int]:
    """Seed by seed: the change may not be worse than its parent by more than the bound."""
    ratios = [c / p if p > 0 else (1.0 if c == 0 else math.inf) for p, c in zip(par, chg)]
    ok = sum(math.isfinite(r) and r <= 1.0 + bound for r in ratios)
    if ok < len(ratios):
        worst = max(r if math.isfinite(r) else math.inf for r in ratios)
        return f"REGRESSION: {len(ratios) - ok} seeds worse, worst ratio {worst:.3g}", ok
    return f"no regression: worst ratio {max(ratios, default=1.0):.3g}", ok


def cmd_judge(args) -> int:
    spec = load_spec()
    parent, change = load(args.parent), load(args.change)
    regressed = False
    for wl in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[wl]) & set(change[wl]))
        failed_p = sum(parent[wl][s]["failed"] for s in seeds)
        failed_c = sum(change[wl][s]["failed"] for s in seeds)
        print(f"\n{wl}: {len(seeds)} pairs; failed ops parent {failed_p}, change {failed_c}")
        print(f"  {'metric':<14} {'parent median [q1, q3]':<40} {'change median [q1, q3]':<40}"
              f" {'wins':>6}  verdict")
        quad_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == ACCURACY[0])
        extra = [{"name": ACCURACY[1], "unit": "1", "better": "lower", "bound": quad_bound}]
        for m in spec["end_to_end"] + extra:
            name = m["name"]
            par, chg = values(parent[wl], name, seeds), values(change[wl], name, seeds)
            if name in ACCURACY:
                verdict, wins = judge_accuracy(par, chg, m["bound"])
            else:
                verdict, wins = judge_metric(par, chg, m["better"], m["bound"])
            if verdict == "gain" and failed_c > failed_p:
                verdict = "gain void: more ops failed"
            regressed |= verdict.startswith("REGRESSION")
            pq, cq = quartiles(par), quartiles(chg)
            print(f"  {name:<14} {pq[1]:<11.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(58)
                  + f"{cq[1]:<11.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(41)
                  + f"{wins:>3}/{len(seeds):<3} {verdict} ({m['unit']}, {m['better']} is better,"
                  f" bound {m['bound']})")
    return 1 if regressed else 0


def cmd_spread(args) -> int:
    spec = load_spec()
    res = load(args.results)
    worst = 0.0
    for wl in sorted(res):
        seeds = sorted(res[wl])
        print(f"\n{wl}: {len(seeds)} runs")
        for m in spec["end_to_end"]:
            vals = values(res[wl], m["name"], seeds)
            q1, q2, q3 = quartiles(vals)
            s = rel_spread(vals)
            worst = max(worst, s / m["bound"])
            flag = "ok" if s < m["bound"] / 3 else "WITHIN BOUND" if s <= m["bound"] else "TOO WIDE"
            print(f"  {m['name']:<14} median {q2:<12.5g} spread {s:7.4f}  bound {m['bound']:<5}"
                  f" {flag}")
    print(f"\nworst spread/bound: {worst:.3f}")
    return 0 if worst <= 1.0 else 1


def cmd_pairs(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = load_spec()
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for i in range(args.pairs):
        seed = SEED0 + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for wl in (w["name"] for w in spec["workloads"]):
            for side in order:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0",
                       "--out", str((out / f"{side}.jsonl").resolve())]
                print(f"pair {i + 1}/{args.pairs} {wl} seed {seed}: {side}", flush=True)
                subprocess.run(cmd, cwd=sides[side], check=True, stdout=subprocess.DEVNULL,
                               timeout=600)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    j = sub.add_parser("judge", help="compare a change's result set with its parent's")
    j.add_argument("parent")
    j.add_argument("change")
    j.set_defaults(func=cmd_judge)
    s = sub.add_parser("spread", help="run-to-run spread of one result set")
    s.add_argument("results")
    s.set_defaults(func=cmd_spread)
    r = sub.add_parser("pairs", help="alternate parent and change runs")
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--out", required=True, help="directory for parent.jsonl and change.jsonl")
    r.add_argument("--pairs", type=int, default=MIN_PAIRS)
    r.set_defaults(func=cmd_pairs)
    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
