"""JSON model schema: complex numbers as [re, im] pairs, matrices row-major.

Schema::

    {"kind": "nonhermitian" | "lindblad" | "classical",
     "dim": n,
     "H" / "H_S": [[[re, im], ...], ...],      # nonhermitian / lindblad
     "Gamma": [[[re, im], ...], ...],          # nonhermitian
     "jumps": [matrix, ...],                   # lindblad
     "rates": [[w, ...], ...],                 # classical, real
     "initial": {"type": "pure" | "mixed", "data": ...}}     # optional

Pure initial data is a vector of [re, im] pairs; mixed data is either a
complex matrix or, for classical models, a plain probability vector.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import BadParameter, ShapeError
from .models import ClassicalMarkovModel
from .propagation import LindbladModel, NonHermitianModel
from .states import DensityOperator, StateVector


def complex_to_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_to_json(m) -> list:
    arr = np.asarray(m, dtype=complex)
    return [[complex_to_json(z) for z in row] for row in arr]


def _floats(data, what: str) -> np.ndarray:
    """``data`` as a float array; a JSON object (or an out-of-range integer)
    where numbers belong raises :class:`BadParameter`."""
    try:
        return np.asarray(data, dtype=float)
    except (TypeError, OverflowError) as exc:
        raise BadParameter(f"{what} must hold numbers: {exc}") from None


def matrix_from_json(data, dim: int | None = None) -> np.ndarray:
    arr = _floats(data, "matrix JSON")
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError("matrix JSON must be square with [re, im] entries")
    if dim is not None and arr.shape[0] != dim:
        raise ShapeError(f"matrix dim {arr.shape[0]} differs from declared {dim}")
    return arr[..., 0] + 1j * arr[..., 1]


def vector_from_json(data, dim: int | None = None) -> np.ndarray:
    arr = _floats(data, "vector JSON")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ShapeError("vector JSON must be a list of [re, im] pairs")
    if dim is not None and arr.shape[0] != dim:
        raise ShapeError(f"vector dim {arr.shape[0]} differs from declared {dim}")
    return arr[:, 0] + 1j * arr[:, 1]


def state_to_json(state) -> dict:
    if isinstance(state, StateVector):
        return {"type": "pure", "data": [complex_to_json(z) for z in state.amplitudes]}
    if isinstance(state, DensityOperator):
        return {"type": "mixed", "data": matrix_to_json(state.matrix)}
    raise BadParameter(f"cannot serialize state of type {type(state).__name__}")


def state_from_json(spec: dict, dim: int):
    if not isinstance(spec, dict):
        raise BadParameter("state JSON must be an object")
    kind = spec.get("type")
    if kind == "pure":
        return StateVector(vector_from_json(spec["data"], dim))
    if kind == "mixed":
        data = _floats(spec["data"], "state JSON 'data'")
        if data.ndim == 1:
            if data.size != dim:
                raise ShapeError("probability vector length differs from dim")
            return DensityOperator(np.diag(data).astype(complex))
        return DensityOperator(matrix_from_json(data, dim))
    raise BadParameter(f"unknown initial state type {kind!r}")


def model_to_dict(model, initial=None) -> dict:
    if isinstance(model, NonHermitianModel):
        if model.is_time_dependent:
            raise BadParameter("time-dependent models are not serializable")
        out = {
            "kind": "nonhermitian",
            "dim": model.dim,
            "H": matrix_to_json(model.h),
            "Gamma": matrix_to_json(model.gamma),
        }
    elif isinstance(model, LindbladModel):
        out = {
            "kind": "lindblad",
            "dim": model.dim,
            "H_S": matrix_to_json(model.h_s),
            "jumps": [matrix_to_json(l) for l in model.jumps],
        }
    elif isinstance(model, ClassicalMarkovModel):
        out = {
            "kind": "classical",
            "dim": model.n_states,
            "rates": [[float(x) for x in row] for row in model.rates],
        }
        if initial is None:
            out["initial"] = {"type": "mixed", "data": [float(p) for p in model.p0]}
    else:
        raise BadParameter(f"cannot serialize model of type {type(model).__name__}")
    if initial is not None:
        out["initial"] = state_to_json(initial)
    return out


def model_from_dict(d: dict):
    """Rebuild (model, initial_state_or_None) from the JSON dict."""
    if not isinstance(d, dict):
        raise BadParameter("model JSON must be an object")
    kind = d.get("kind")
    dim = d.get("dim", 0)
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise BadParameter(f"model JSON 'dim' must be an integer, got {dim!r}")
    if kind == "nonhermitian":
        model = NonHermitianModel(
            matrix_from_json(d["H"], dim), matrix_from_json(d["Gamma"], dim)
        )
    elif kind == "lindblad":
        jumps = d.get("jumps", [])
        if not isinstance(jumps, list):
            raise BadParameter("model JSON 'jumps' must be a list of matrices")
        jumps = tuple(matrix_from_json(j, dim) for j in jumps)
        model = LindbladModel(matrix_from_json(d["H_S"], dim), jumps)
    elif kind == "classical":
        rates = _floats(d["rates"], "model JSON 'rates'")
        init = d.get("initial")
        if not isinstance(init, dict) or init.get("type") != "mixed":
            raise BadParameter("classical models need an initial distribution")
        p0 = _floats(init["data"], "state JSON 'data'")
        if p0.ndim == 2:
            p0 = np.diagonal(matrix_from_json(p0, dim)).real
        return ClassicalMarkovModel(rates, p0), None
    else:
        raise BadParameter(f"unknown model kind {kind!r}")
    initial = None
    if "initial" in d and d["initial"] is not None:
        initial = state_from_json(d["initial"], dim)
    return model, initial


def save_model(path, model, initial=None) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model, initial), indent=2, sort_keys=True))


def load_model(path):
    return model_from_dict(json.loads(Path(path).read_text()))
