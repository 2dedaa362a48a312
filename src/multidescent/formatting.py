"""Deterministic number and JSON rendering shared by the CSV writer and CLI.

Numbers are rendered with at least 12 significant digits, fixed-point for
moderate magnitudes (``1.000000000000``) and scientific otherwise
(``1.000000000000e-05``), so that output is byte-stable across runs and
round-trips through ``float`` without precision loss.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["format_number", "to_json"]


def format_number(x: float) -> str:
    """Render a float with 12-digit precision, choosing fixed or scientific form."""
    v = float(x)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return _float_cells((v,))[0]


def _float_cells(values) -> list[str]:
    """The 12-digit rule of each float, "" for NaN and inf: the CSV cells
    of many numbers in one pass, and :func:`format_number`'s one case."""
    return [f"{v:.12f}" if 0.1 <= abs(v) < 1e15 else "0.000000000000" if v == 0.0
            else f"{v:.12e}" if math.isfinite(v) else "" for v in values]


def _emit(obj, parts: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        parts.append(format_number(v) if math.isfinite(v) else "null")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (dict, list, tuple, np.ndarray)):
        # One rule for every container: its items between brackets, a dict's each after its key.
        keyed = isinstance(obj, dict)
        open_, close = "{}" if keyed else "[]"
        items = [(json.dumps(str(k)) + ": ", v) for k, v in obj.items()] if keyed else [("", v) for v in obj]
        if not items:
            parts.append(open_ + close)
            return
        parts.append(open_ + "\n")
        for i, (key, val) in enumerate(items):
            parts.append(pad + "  " + key)
            _emit(val, parts, indent + 1)
            parts.append(",\n" if i < len(items) - 1 else "\n")
        parts.append(pad + close)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(obj) -> str:
    """Serialize nested dicts/lists/scalars to JSON with 12-digit numbers.

    Unlike :func:`json.dumps`, floats go through :func:`format_number` so the
    byte output is reproducible and never leaks platform repr differences;
    non-finite floats become ``null``.
    """
    parts: list = []
    _emit(obj, parts, 0)
    return "".join(parts)
