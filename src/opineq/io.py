"""JSON fixture formats.

Matrices: { "n": int, "re": [[...]], "im": [[...]] } with "im" omitted for
real matrices. Maps: { "weights": [...], "operators": [matrix, ...] }, the
Kraus form sum_j w_j K_j* X K_j. All floats are emitted losslessly
(round-trip exact), so fixtures reproduce bit-identical matrices.
"""
from __future__ import annotations

import json
import sys
from typing import Optional

import numpy as np

from .maps import KrausMap

JSON_INDENT = 2


def matrix_to_json(a: np.ndarray) -> dict:
    """Square matrices carry "n"; rectangular blocks (isometries) carry
    "rows"/"cols" instead."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if a.shape[0] == a.shape[1]:
        out = {"n": int(a.shape[0])}
    else:
        out = {"rows": int(a.shape[0]), "cols": int(a.shape[1])}
    out["re"] = [[float(v) for v in row] for row in a.real]
    if np.iscomplexobj(a) and np.any(a.imag != 0):
        out["im"] = [[float(v) for v in row] for row in a.imag]
    return out


def matrix_from_json(obj: dict) -> np.ndarray:
    if "n" in obj:
        shape = (int(obj["n"]), int(obj["n"]))
    else:
        shape = (int(obj["rows"]), int(obj["cols"]))
    re = np.asarray(obj["re"], dtype=float)
    if re.shape != shape:
        raise ValueError(f"re block has shape {re.shape}, expected {shape}")
    if "im" in obj:
        im = np.asarray(obj["im"], dtype=float)
        if im.shape != shape:
            raise ValueError(f"im block has shape {im.shape}, expected {shape}")
        return re + 1j * im
    return re


def map_to_json(phi: KrausMap) -> dict:
    return {"weights": [float(w) for w in phi.weights],
            "operators": [matrix_to_json(k) for k in phi.ops]}


def map_from_json(obj: dict) -> KrausMap:
    try:
        return KrausMap([matrix_from_json(k) for k in obj["operators"]], obj["weights"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed map record: {exc!r}") from None


def dump_json(record: dict, path: Optional[str] = None) -> str:
    """Serialize a record; write to `path` ('-' or None means stdout-ready
    string only). A NaN or infinite float is not JSON: ValueError."""
    text = json.dumps(record, indent=JSON_INDENT, sort_keys=False, allow_nan=False)
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def load_json(path: str) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


__all__ = ["matrix_to_json", "matrix_from_json", "map_to_json",
           "map_from_json", "dump_json", "load_json"]
