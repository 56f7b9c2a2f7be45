"""The random-input corpus as a ratchet.

1,500 ``check`` inputs drawn from ``default_rng(1)`` run in-process through
``cli.main``.  ``data/corpus_exits.json`` records the inputs that exit 1
(a reported violation) and those that exit 2 (no verdict), with the error
class of each, and the row kinds that read as violated.  An input may move
to a better exit, and the test prints every move, but no input may join
the exit-1 or exit-2 set, change its error class, or violate a new row kind.

The corpus is never re-seeded, resized or filtered.  A change that moves
inputs rewrites the recorded sets and names the moves.
"""

import json
from pathlib import Path

import numpy as np

from nhbounds import cli, random_diagonal_jump_lindblad, serialize

DATA = Path(__file__).parent / "data" / "corpus_exits.json"
SIZE = 1500
STATES = ("plus", "maxmixed", "basis:0", "basis:1")


def corpus_argvs(workdir: Path):
    """``(index, argv)`` of each corpus input, its model and outputs under
    ``workdir``.  Per input, in this draw order: a Lindblad model with
    probability 1/2 (else a closed one), dim, seed, decay scale, final time
    and start state."""
    rng = np.random.default_rng(1)
    for i in range(SIZE):
        lindblad = rng.random() < 0.5
        dim = int(rng.integers(2, 4))
        seed = int(rng.integers(0, 2**16))
        decay = float(10 ** rng.uniform(-3, 3.3))
        t_final = float(rng.uniform(1e-3, 4))
        state = STATES[int(rng.integers(0, 4))]
        if lindblad:
            path = workdir / f"model{i}.json"
            serialize.save_model(path, random_diagonal_jump_lindblad(dim, seed, decay))
            model, groups = str(path), "ml-open,mt-open"
        else:
            model = f"builtin:random-commuting?dim={dim}&seed={seed}&gamma_scale={decay!r}"
            groups = "ml,mt"
        yield i, ["check", "--model", model, "--state", state, "--bounds", groups,
                  "--t-final", repr(t_final), "--steps", "2", "--out", str(workdir / f"out{i}.csv")]


def run_corpus(workdir: Path, monkeypatch):
    """Each input's exit code, the error class a sweep raised (or None) and
    the kinds of its violated rows."""
    raised = []
    sweep = cli.bnd.sweep

    def spy(*args, **kwargs):
        try:
            return sweep(*args, **kwargs)
        except Exception as exc:
            raised.append(type(exc).__name__)
            raise

    monkeypatch.setattr(cli.bnd, "sweep", spy)
    out = {}
    for i, argv in corpus_argvs(workdir):
        raised.clear()
        code = cli.main(argv)
        kinds = set()
        if code == 1:
            summary = json.loads((workdir / f"out{i}.summary.json").read_text())
            kinds = {row["bound"] for row in summary["violations"]}
        out[i] = (code, raised[0] if raised else None, kinds)
    return out


def test_corpus_exits_do_not_worsen(tmp_path, monkeypatch, capsys):
    recorded = json.loads(DATA.read_text())
    exit_1 = set(recorded["exit_1"])
    exit_2 = {i: name for name, indices in recorded["exit_2"].items() for i in indices}
    allowed_kinds = set(recorded["violation_kinds"])
    assert recorded["size"] == SIZE

    results = run_corpus(tmp_path, monkeypatch)
    worse, moves = [], []
    for i, (code, error, kinds) in results.items():
        was = 1 if i in exit_1 else 2 if i in exit_2 else 0
        if code == 1 and i not in exit_1:
            worse.append(f"input {i}: exit {was} -> 1 ({sorted(kinds)})")
        elif code == 2 and (i not in exit_2 or exit_2[i] != error):
            worse.append(f"input {i}: exit {was} ({exit_2.get(i)}) -> 2 ({error})")
        elif code not in (0, 1, 2):
            worse.append(f"input {i}: exit {code}")
        elif code != was:
            moves.append(f"input {i}: exit {was} -> {code}")
        if kinds - allowed_kinds:
            worse.append(f"input {i}: violated new row kinds {sorted(kinds - allowed_kinds)}")
    with capsys.disabled():
        for line in moves:
            print(f"corpus move: {line}")
    assert not worse, "\n".join(worse)
