#!/usr/bin/env python3
"""nhbounds benchmark: three closed-loop workloads of in-process CLI calls.

Run from the root of a checkout (the directory that holds ``src/nhbounds``)::

    python3 bench/run.py --workload closed-battery --seed 0 --seconds 30 --trace 0

One client runs one op at a time: an op is one ``nhbounds.cli.main(argv)``
call, a ``check`` sweep or a ``trajectory`` ensemble, whose output is then
checked.  The seed builds every argv, model JSON and state before timing
starts.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes over a fixed set of ops and reports
per-layer metrics and the tracing overhead.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
full record with every metric, run details and provenance, which ``--out``
also appends to a JSON-lines file for ``bench/compare.py``.
"""

import os

# One BLAS thread: the benchmark is a single client, and the matrices are tiny.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_sweep, check_trajectory  # noqa: E402
from spans import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import GENERATORS, Op, build, check_expect  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 9       # fresh-process set-ups per run, spread over it; setup_s is their median
MIN_OPS = 40            # op_tail_ms needs at least 40 ops in a run
HARD_CAP_S = 140.0      # the timed loop never runs longer than this
TAIL_BEYOND = 10        # op_tail_ms: the percentile with 10 ops beyond it

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "failed_ops_frac": "1", "peak_rss_mb": "MB", "quad_err_gmean": "1", "quad_err_max": "1",
}
E2E_REPORTED = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "quad_err_gmean")


def die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    if not (SRC / "nhbounds" / "__init__.py").is_file():
        die(f"no src/nhbounds under {ROOT}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import nhbounds
    import nhbounds.cli

    if SRC.resolve() not in Path(nhbounds.__file__).resolve().parents:
        die(f"imported nhbounds from {nhbounds.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# op runner


@dataclass
class OpResult:
    seconds: float
    reason: str | None          # None when the op succeeded and its output checked out
    quad_errs: list = field(default_factory=list)


class Runner:
    """Runs ops one at a time and counts every failure against attempts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = defaultdict(int)
        self.examples: dict[str, str] = {}  # first failure of each kind, with its traceback
        self.tracer = None

    def run(self, op, op_id: int = -1) -> OpResult:
        import nhbounds.cli

        if self.tracer is not None:
            self.tracer.op_id = op_id
        self.attempted += 1
        # an op that exits 0 without writing must not pass on an earlier run's files
        for path in (op.out, op.out.with_suffix(".summary.json")):
            path.unlink(missing_ok=True)
        err = io.StringIO()
        reason = tb = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = nhbounds.cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects its argv this way
            rc = exc.code
        except Exception as exc:  # the op's failure, counted below; the run goes on
            rc = None
            reason = f"raised {type(exc).__name__}: {exc}"
            tb = traceback.format_exc()
        seconds = time.perf_counter() - t0
        quad_errs = []
        if reason is None and rc != 0:
            first = (err.getvalue().strip().splitlines() or [""])[0]
            reason = f"exit {rc}: {first}"
        if reason is None:
            try:
                if op.kind == "check":
                    reason, quad_errs = check_sweep(op.out, op.expect)
                else:
                    reason = check_trajectory(op.out, op.expect)
            except (OSError, ValueError, KeyError) as exc:
                reason = f"output check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            key = reason.split(":")[0]
            self.reasons[key] += 1
            self.examples.setdefault(key, tb or reason)
        return OpResult(seconds, reason, quad_errs)


def selftest(work: Path) -> dict:
    """Feed the runner ops that fail in each way it must count.

    The strong-decay input (Gamma = diag(0, 400), state [1e-200, 1], t = 2)
    makes the normalized-state division underflow; it must end as a counted
    op, not a crashed run.  The other two cases fail by exit status and by
    output check whatever the program's numerics.  Last, a sweep's output
    with one MT row's ``quad_err`` blanked must fail its check.
    """
    work.mkdir(parents=True, exist_ok=True)
    decay = work / "strong_decay.json"
    decay.write_text(json.dumps({
        "kind": "nonhermitian", "dim": 2,
        "H": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        "Gamma": [[[0, 0], [0, 0]], [[0, 0], [400, 0]]],
        "initial": {"type": "pure", "data": [[1e-200, 0], [1, 0]]},
    }))
    small = ["--model", "builtin:random-commuting?dim=2&seed=1", "--state", "plus"]

    def make(model, bounds, name, expect):
        out = work / f"{name}.csv"
        return Op("check", ["check", *model, "--bounds", bounds, "--t-final", "2.0",
                            "--steps", "1", "--out", str(out)], out, expect)

    cases = {
        "strong_decay": make(["--model", str(decay)], "ml,mt", "decay",
                             check_expect(["ml", "mt"], 2.0, 1)),
        "bad_config": make(small, "no-such-group", "config", check_expect(["ml"], 2.0, 1)),
        "wrong_output": make(small, "ml", "wrong", {"rows": []}),
    }
    runner = Runner()
    out = {}
    for name, op in cases.items():
        before = runner.failed
        res = runner.run(op)
        counted = runner.failed - before
        if counted != (res.reason is not None):
            raise RuntimeError(f"self-test {name}: failure counted {counted}, reason {res.reason!r}")
        if name != "strong_decay" and res.reason is None:
            raise RuntimeError(f"self-test {name}: a failing op was counted as a success")
        out[name] = res.reason or "ok"
    if runner.attempted != len(cases):
        raise RuntimeError("self-test: attempted count does not match the ops run")
    # an MT row whose quad_err is blank fails the check, whatever else it holds
    blank = make(small, "mt", "blank", check_expect(["mt"], 2.0, 1))
    res = runner.run(blank)
    if res.reason is not None:  # the op itself failed; the runs will count that
        out["blank_quad_err"] = f"not tried: {res.reason}"
        return out
    with open(blank.out, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][rows[0].index("quad_err")] = ""
    with open(blank.out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    reason, _ = check_sweep(blank.out, blank.expect)
    if reason is None or "quad_err" not in reason:
        raise RuntimeError(f"self-test blank_quad_err: the check gave {reason!r}")
    out["blank_quad_err"] = reason
    return out


# ---------------------------------------------------------------------------
# set-up


def measure_setup(workload: str, seed: int, work: Path) -> float:
    """Wall time of a fresh process from spawn until its first op could run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed), "--workdir", str(work)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        t1 = time.perf_counter()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if line != "ready" or proc.returncode != 0:
        die(f"set-up process failed (exit {proc.returncode})")
    shutil.rmtree(work, ignore_errors=True)
    return t1 - t0


def setup_only(workload: str, seed: int, work: Path) -> None:
    import_program()
    build(workload, seed, work)
    print("ready", flush=True)


# ---------------------------------------------------------------------------
# measurement


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with 10 ops beyond it."""
    s = sorted(latencies)
    k = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def run_e2e(wl, runner: Runner, seconds: float, setup_once) -> tuple[dict, dict]:
    for op in wl.ops[: wl.warmup]:
        runner.run(op)
    warm_attempts = runner.attempted
    lat = []
    setup = []
    quad_errs = {}  # op index -> its rows' quad_err; each distinct op counts once
    ok = 0
    # run every distinct op once, so quad_err_gmean and the mix of kinds do
    # not depend on how many ops fit in the time
    min_ops = max(MIN_OPS, len(wl.ops))
    start = time.perf_counter()
    setup_spent = 0.0  # set-up samples are taken between ops, off the loop's clock
    i = 0
    while True:
        elapsed = time.perf_counter() - start - setup_spent
        if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
            t0 = time.perf_counter()
            setup.append(setup_once(len(setup)))
            setup_spent += time.perf_counter() - t0
            continue
        if (elapsed >= seconds and len(lat) >= min_ops) or elapsed >= HARD_CAP_S:
            break
        res = runner.run(wl.ops[i % len(wl.ops)], i)
        quad_errs.setdefault(i % len(wl.ops), res.quad_errs)
        i += 1
        lat.append(res.seconds)
        ok += res.reason is None
    while len(setup) < SETUP_REPEATS:  # only when --seconds exceeds the hard cap
        setup.append(setup_once(len(setup)))
    rows = [e for errs in quad_errs.values() for e in errs]
    # a row may integrate exactly (quad_err 0); the geometric mean is over the rest
    errs = [e for e in rows if e > 0.0]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "ops_per_s": ok / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(setup),
        "quad_err_gmean": math.exp(statistics.fmean(map(math.log, errs))) if errs else math.nan,
        "quad_err_max": max(rows, default=math.nan),
    }
    details = {
        "timed_ops": len(lat),
        "warmup_ops": warm_attempts,
        "distinct_ops": len(wl.ops),
        "distinct_ops_timed": len(quad_errs),
        "quad_err_rows": len(rows),
        "quad_err_zero_rows": len(rows) - len(errs),
        "setup_samples_s": setup,
        "tail_percentile": tail_pct,
        "tail_ops_beyond": TAIL_BEYOND,
        "tail_reported": len(lat) >= MIN_OPS,
        "loop_wall_s": time.perf_counter() - start,
    }
    return metrics, details


def run_traced(wl, runner: Runner, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()
    runner.tracer = tracer
    pass_ops = wl.ops[: wl.trace_pass]
    for op in pass_ops[: wl.warmup]:
        runner.run(op)
    plain, traced = [], []
    time_samples = defaultdict(list)
    counts_seen = []
    start = time.perf_counter()
    pair_s = 0.0
    # start another untraced + traced pair only if it should end within the time
    while not plain or time.perf_counter() - start + pair_s <= seconds:
        t0 = time.perf_counter()
        plain.append(sum(runner.run(op, k).seconds for k, op in enumerate(pass_ops)))
        tracer.reset()
        tracer.install()
        try:
            traced.append(sum(runner.run(op, k).seconds for k, op in enumerate(pass_ops)))
        finally:
            tracer.uninstall()
        times, counts = tracer.layer_metrics(len(pass_ops))
        for name, value in times.items():
            time_samples[name].append(value)
        counts_seen.append(counts)
        pair_s = time.perf_counter() - t0
    metrics = {name: statistics.median(v) for name, v in time_samples.items()}
    metrics.update(counts_seen[0])
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    details = {
        "pass_ops": len(pass_ops),
        "passes": len(traced),
        "counts_repeat": all(c == counts_seen[0] for c in counts_seen),
        "pass_s_untraced": plain,
        "pass_s_traced": traced,
    }
    return metrics, details


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    files = sorted((SRC / "nhbounds").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        lines += data.count(b"\n")
        digest.update(f.name.encode() + b"\0" + data)
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_nhbounds_lines": lines,
        "seed": seed,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(GENERATORS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the full record to this JSON-lines file")
    p.add_argument("--selftest", action="store_true", help="only run the runner self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_only:
        setup_only(args.workload, args.seed, Path(args.workdir))
        return 0
    if not args.selftest and args.workload is None:
        p.error("--workload is required")

    import_program()
    work = WORK / f"{args.workload or 'selftest'}-{args.seed}-{os.getpid()}"
    try:
        if args.selftest:
            print(json.dumps(selftest(work / "selftest"), indent=2))
            return 0
        wl = build(args.workload, args.seed, work / "ops")
        checks = selftest(work / "selftest")
        runner = Runner()
        if args.trace:
            metrics, details = run_traced(wl, runner, args.seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, details = run_e2e(
                wl, runner, args.seconds,
                lambda k: measure_setup(args.workload, args.seed, work / f"setup{k}"))
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["failed_ops_frac"] = runner.failed / runner.attempted
            units = UNITS
        details["failures"] = dict(runner.reasons)
        details["failure_examples"] = runner.examples
        details["selftest"] = checks
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
            "attempted": runner.attempted,
            "failed": runner.failed,
            "details": details,
            "provenance": provenance(args.seed),
        }
        line = json.dumps(record)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(line + "\n")
        reported = metrics if args.trace else {k: metrics[k] for k in E2E_REPORTED}
        print(line)
        print(json.dumps({
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


if __name__ == "__main__":
    sys.exit(main())
