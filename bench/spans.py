"""Layer spans recorded from outside the program.

:class:`Tracer` wraps every public module-level function of the traced
``nhbounds`` modules and rebinds each name that refers to it in every loaded
``nhbounds`` module, because ``bounds`` and ``cli`` import functions with
``from .propagation import ...``.  Private helpers are not wrapped, so their
time counts in the self time of the public function that called them;
``states`` is not wrapped at all and counts in its callers' self time.

Spans (layer, function, start, end, parent, op id, counts) stay in memory
until :meth:`Tracer.layer_metrics` reduces them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "serialize", "models", "bounds", "propagation", "linalg", "metrics")

# Bound kinds whose rows integrate the generalized std (one quadrature each).
MT_KINDS = {"fid-mt", "qsl-mt", "tur-mt", "fid-mt-open", "qsl-mt-open", "tur-mt-open"}
JUMP_KINDS = {"tur-ml-open", "tur-mt-open"}

PER_LAYER_UNITS = {
    "bounds.calls": "count", "bounds.rows": "count", "bounds.busy_s": "s", "bounds.self_s": "s",
    "propagation.span_calls": "count", "propagation.span_nodes": "count",
    "propagation.span_busy_s": "s", "propagation.nodes_per_mt_row": "nodes/row",
    "propagation.lindblad_calls": "count", "propagation.lindblad_busy_s": "s",
    "propagation.liouvillian_per_op": "count/op", "propagation.nojump_calls": "count",
    "propagation.ensemble_calls": "count", "propagation.ensemble_busy_s": "s",
    "propagation.traj": "count", "propagation.traj_steps": "count",
    "propagation.traj_jumps": "count", "propagation.steps_per_jump": "steps/jump",
    "propagation.ensembles_per_jump_row": "count/row", "propagation.self_s": "s",
    "linalg.expm_calls": "count", "linalg.expm_busy_s": "s", "linalg.self_s": "s",
    "metrics.fidelity_calls": "count", "metrics.busy_s": "s", "metrics.self_s": "s",
    "cli.calls": "count", "cli.self_s": "s", "serialize.load_calls": "count",
    "serialize.busy_s": "s", "models.calls": "count", "models.busy_s": "s",
    "trace.overhead_frac": "1",
}


def _counts(layer: str, func: str, args: tuple, result) -> dict | None:
    """Work counts read from the arguments and return value of one call."""
    if layer != "propagation" and layer != "bounds":
        return None
    if func == "propagator_span":
        return {"nodes": len(result[0])}
    if func == "trajectory_ensemble":
        return {
            "traj": int(result.n_trajectories),
            "steps": int(result.n_trajectories) * int(result.n_steps),
            "jumps": int(result.jump_counts.sum()),
        }
    kind = getattr(result, "kind", None)
    if layer == "bounds" and isinstance(kind, str):
        jump_count = any(type(a).__name__ == "JumpCountObservable" for a in args)
        return {"kind": kind, "jump_count": jump_count}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op_id = -1

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            counts = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                counts = _counts(layer, name, args, result)
                return result
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (layer, name, t0, t1, parent, self.op_id, counts)

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"nhbounds.{layer}"]
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nhbounds" or mod_name.startswith("nhbounds.")):
                continue
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, hit[1])

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._saved):
            setattr(mod, name, value)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()

    def layer_metrics(self, n_ops: int) -> tuple[dict, dict]:
        """Reduce the spans to (times in seconds, exact counts)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        self_s = defaultdict(float)
        busy_s = defaultdict(float)
        entries = defaultdict(int)
        fn_calls = defaultdict(int)
        fn_time = defaultdict(float)
        c = defaultdict(int)
        for i, (layer, name, t0, t1, parent, _, info) in enumerate(spans):
            dur = t1 - t0
            self_s[layer] += dur - child_time[i]
            fn_calls[layer, name] += 1
            fn_time[layer, name] += dur
            parent_layer = spans[parent][0] if parent >= 0 else None
            if parent_layer != layer:
                entries[layer] += 1
                busy_s[layer] += dur
            if not info:
                continue
            if name == "propagator_span":
                c["span_nodes"] += info["nodes"]
            elif name == "trajectory_ensemble":
                for key in ("traj", "steps", "jumps"):
                    c["traj_" + key] += info[key]
                if parent_layer == "bounds":
                    c["bounds_ensembles"] += 1
            elif layer == "bounds" and parent_layer != "bounds":
                c["rows"] += 1
                c["mt_rows"] += info["kind"] in MT_KINDS
                c["jump_rows"] += info["jump_count"] and info["kind"] in JUMP_KINDS

        def ratio(num, den):
            return num / den if den else 0.0

        counts = {
            "bounds.calls": entries["bounds"],
            "bounds.rows": c["rows"],
            "propagation.span_calls": fn_calls["propagation", "propagator_span"],
            "propagation.span_nodes": c["span_nodes"],
            "propagation.nodes_per_mt_row": ratio(c["span_nodes"], c["mt_rows"]),
            "propagation.lindblad_calls": fn_calls["propagation", "evolve_lindblad"],
            "propagation.liouvillian_per_op": ratio(fn_calls["propagation", "liouvillian"], n_ops),
            "propagation.nojump_calls": fn_calls["propagation", "no_jump_state"],
            "propagation.ensemble_calls": fn_calls["propagation", "trajectory_ensemble"],
            "propagation.traj": c["traj_traj"],
            "propagation.traj_steps": c["traj_steps"],
            "propagation.traj_jumps": c["traj_jumps"],
            "propagation.steps_per_jump": ratio(c["traj_steps"], c["traj_jumps"]),
            "propagation.ensembles_per_jump_row": ratio(c["bounds_ensembles"], c["jump_rows"]),
            "linalg.expm_calls": fn_calls["linalg", "expm"],
            "metrics.fidelity_calls": fn_calls["metrics", "fidelity"],
            "cli.calls": fn_calls["cli", "main"],
            "serialize.load_calls": fn_calls["serialize", "load_model"],
            "models.calls": entries["models"],
        }
        times = {
            "bounds.busy_s": busy_s["bounds"],
            "bounds.self_s": self_s["bounds"],
            "propagation.span_busy_s": fn_time["propagation", "propagator_span"],
            "propagation.lindblad_busy_s": fn_time["propagation", "evolve_lindblad"],
            "propagation.ensemble_busy_s": fn_time["propagation", "trajectory_ensemble"],
            "propagation.self_s": self_s["propagation"],
            "linalg.expm_busy_s": fn_time["linalg", "expm"],
            "linalg.self_s": self_s["linalg"],
            "metrics.busy_s": busy_s["metrics"],
            "metrics.self_s": self_s["metrics"],
            "cli.self_s": self_s["cli"],
            "serialize.busy_s": busy_s["serialize"],
            "models.busy_s": busy_s["models"],
        }
        return times, counts
