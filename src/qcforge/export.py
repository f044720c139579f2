"""Deterministic JSON/CSV serialization.

Hand-rolled on purpose: every float is rendered with 17 significant digits
(round-trippable), dict key order is preserved exactly as built, lines end
with LF, and files are written atomically — so identical inputs produce
byte-identical artifacts.

Arrays (level centers, curve rows, profiles) go through `format_rows`,
which renders a column with at most half as many distinct values as rows
by formatting each distinct value once and gathering the texts by index.
A float's %.17g text depends on its value alone, so the gathered text is
the text the value would get on its own, and the bytes do not depend on
which columns are gathered.
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


def _column_cells(c: np.ndarray) -> tuple[str, list]:
    """The row-template field of one finite column and its cells: "%s" and
    the texts of the values when the column has at most half as many
    distinct values as rows (each distinct value rendered once), else
    "%.17g" and the values themselves."""
    c = c + 0.0
    # the distinct values by sort, since np.unique imports numpy.ma on its
    # first call (about 1.7 MB of resident memory in numpy 2.4)
    u = np.sort(c)
    u = u[np.concatenate(([True], u[1:] != u[:-1]))]
    if 2 * len(u) > len(c):
        return "%.17g", c.tolist()
    text = np.array(["%.17g" % v for v in u.tolist()], dtype=object)
    return "%s", text[np.searchsorted(u, c)].tolist()


def format_rows(a: np.ndarray, row: str, sep: str, cell=format_float,
                head: str = "") -> str:
    """`head` + `sep`.join(row % tuple(map(cell, r)) for r in a) for a 2-D
    float array and a `row` template with one %s per column.  `head` is
    literal text, placed in the template so that the result is built once.

    With the default `cell` the text is byte-identical to rendering every
    value with `format_float`.  A finite array takes one %-format call:
    adding 0.0 turns -0.0 into 0.0, which prints as "0" like int(-0.0), and
    %.17g prints every integral |v| < 1e16 as its integer digits.  A column
    with at most half as many distinct values as rows renders each distinct
    value once with %.17g and fills its %s by index; the other columns put
    %.17g in the row.  Every value still gets its own %.17g text, and
    only equal floats share one (there is no -0.0 after the + 0.0), so the
    choice never changes the bytes.  An array with a non-finite value is
    rendered value by value with `cell`.
    """
    a = np.asarray(a, dtype=np.float64)
    head = head.replace("%", "%%")
    if not (a.size and np.isfinite(a).all()):
        return (head + sep.join([row] * len(a))) % tuple(
            map(cell, a.ravel().tolist()))
    m = a.shape[1]
    fields = row.split("%s")
    cells = [None] * a.size  # row-major, like a.ravel()
    for j in range(m):
        fmt, cells[j::m] = _column_cells(a[:, j])
        fields[j] += fmt
    cells = tuple(cells)  # drops the list before the text is built
    return (head + sep.join(["".join(fields)] * len(a))) % cells


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
        # the brackets are parts of their own: the text is copied only by
        # the join in `json_dumps`
        out.extend(("[", format_rows(obj, row, ","), "]"))
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
    """CSV text of a 2-D float array, header and body built as one string."""
    head = ",".join(header) + "\n"
    if not len(rows):
        return head
    return format_rows(rows, ",".join(["%s"] * rows.shape[1]) + "\n", "",
                       _csv_cell, head)


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
    """Atomic write with LF endings; a failed write leaves no temp file."""
    tmp = path + ".tmp"
    fh = open(tmp, "w", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
