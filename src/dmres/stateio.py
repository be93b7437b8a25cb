"""File formats: state files, exported documents and run manifests.

A state file is JSON with dims, kind and [re, im] entry pairs.  Floats
are written with 17 significant digits, which round-trips IEEE doubles
exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InvalidStateError, StateFormatError
from .linalg import DensityMatrix, Ket


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _pairs(arr: np.ndarray):
    if arr.ndim == 1:
        return [[format_float(z.real), format_float(z.imag)] for z in arr]
    return [[[format_float(z.real), format_float(z.imag)] for z in row] for row in arr]


def encode_json(obj) -> str:
    """JSON dump with preformatted float strings emitted as raw numbers."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {encode_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(encode_json(v) for v in obj) + "]"
    if isinstance(obj, str) and _is_number_token(obj):
        return obj
    return json.dumps(obj)


def _is_number_token(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def state_document(state: Ket | DensityMatrix) -> str:
    if isinstance(state, Ket):
        kind, data = "ket", _pairs(state.amplitudes)
    else:
        kind, data = "density", _pairs(state.entries)
    doc = {"dims": list(state.dims), "kind": kind, "data": data}
    return encode_json(doc) + "\n"


def write_state(path: str | Path, state: Ket | DensityMatrix) -> None:
    Path(path).write_text(state_document(state))


def _manifest_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"cannot encode {type(obj)}")


def write_manifest(out_dir: str | Path, payload: dict) -> None:
    """Write ``manifest.json`` into ``out_dir``: keys sorted, one-space indent."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, indent=1, default=_manifest_default)
    (out / "manifest.json").write_text(text + "\n")


def _complex_array(data, depth: int) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != depth + 1 or arr.shape[-1] != 2:
        raise StateFormatError(f"data has shape {arr.shape}, expected [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def read_state(path: str | Path, check_positive: bool = True) -> Ket | DensityMatrix:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StateFormatError(f"cannot parse state file {path}: {exc}") from exc
    try:
        dims = tuple(int(d) for d in doc["dims"])
        kind = doc["kind"]
        data = doc["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise StateFormatError(f"state file {path} is missing required fields: {exc}") from exc
    try:
        if kind == "ket":
            return Ket.create(_complex_array(data, 1), dims)
        if kind == "density":
            return DensityMatrix.create(_complex_array(data, 2), dims, check_positive=check_positive)
    except InvalidStateError as exc:
        raise StateFormatError(f"state file {path} holds an invalid state: {exc}") from exc
    raise StateFormatError(f"unknown state kind {kind!r} in {path}")
