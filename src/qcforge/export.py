"""Deterministic JSON/CSV serialization.

Hand-rolled on purpose: every float is rendered with 17 significant digits
(round-trippable), dict key order is preserved exactly as built, lines end
with LF, and files are written atomically — so identical inputs produce
byte-identical artifacts.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "format_float",
    "format_rows",
    "json_dumps",
    "rows_to_csv",
    "polyline_csv",
    "profile_csv",
    "write_text",
]


def format_float(v: float) -> str:
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    if v == int(v) and abs(v) < 1e16:
        return f"{int(v)}"
    return f"{v:.17g}"


def format_rows(a: np.ndarray, row: str, sep: str, cell=format_float) -> str:
    """`sep`.join(row % tuple(map(cell, r)) for r in a) for a 2-D float
    array and a `row` template with one %s per column.

    With the default `cell` the text is byte-identical to rendering every
    value with `format_float`.  A finite array takes one %-format call:
    adding 0.0 turns -0.0 into 0.0, which prints as "0" like int(-0.0), and
    %.17g prints every integral |v| < 1e16 as its integer digits.  An array
    with a non-finite value is rendered value by value with `cell`.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.size and np.isfinite(a).all():
        return sep.join([row.replace("%s", "%.17g")] * len(a)) \
            % tuple((a + 0.0).ravel().tolist())
    return sep.join([row] * len(a)) % tuple(map(cell, a.ravel().tolist()))


def _dump(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            _dump(str(k), out)
            out.append(":")
            _dump(v, out)
        out.append("}")
    elif isinstance(obj, np.ndarray):
        # a 2-D array as a list of lists; a record array as a list of
        # objects keyed by its field names, all of them float64
        names = obj.dtype.names
        if names:
            keys = []
            for k in names:
                _dump(k, keys)
            row = "{" + ",".join(k + ":%s" for k in keys) + "}"
            obj = obj.view(np.float64).reshape(len(obj), len(names))
        else:
            row = "[" + ",".join(["%s"] * obj.shape[1]) + "]"
        out.append("[" + format_rows(obj, row, ",") + "]")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _dump(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj) -> str:
    out: list[str] = []
    _dump(obj, out)
    out.append("\n")
    return "".join(out)


def _csv_cell(v: float) -> str:
    return format_float(v).strip('"')


def rows_to_csv(header: tuple[str, ...], rows: np.ndarray) -> str:
    """CSV text of a 2-D float array."""
    lines = [",".join(header)]
    if len(rows):
        lines.append(format_rows(rows, ",".join(["%s"] * rows.shape[1]),
                                 "\n", _csv_cell))
    return "\n".join(lines) + "\n"


def polyline_csv(polyline) -> str:
    return rows_to_csv(("t", "x", "y"),
                       np.column_stack([polyline.params, polyline.vertices]))


def profile_csv(profile, params) -> str:
    """Columns (K, exceedance_area, bound_C_alpha, truncation)."""
    rows = np.array([(k, area, params.bound(k), profile.truncation_bound)
                     for k, area in profile.entries], dtype=np.float64)
    return rows_to_csv(("K", "exceedance_area", "bound_C_alpha",
                        "truncation"), rows.reshape(-1, 4))


def write_text(path: str, text: str):
    """Atomic write with LF endings."""
    tmp = path + ".tmp"
    with open(tmp, "w", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)
