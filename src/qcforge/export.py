"""Deterministic JSON/CSV serialization, streamed to its destination.

Hand-rolled on purpose: every float is rendered with 17 significant digits
(round-trippable), dict key order is preserved exactly as built, lines end
with LF, and files are written atomically — so identical inputs produce
byte-identical artifacts.

Each artifact is made as a stream of text parts (`json_parts`, `csv_parts`,
`polyline_csv_parts`, `profile_csv_parts`) that `write_parts` and
`stream_parts` write in order, so no artifact's text is held whole.
Arrays (level centers, curve rows, profiles) are read in place, column by
column, and `row_blocks` formats at most `_BLOCK_ROWS` rows per part.  A
column with at most half as many distinct values as rows keeps only those
values and their texts, and each block gathers its texts by index.  A
float's %.17g text depends on its value alone, so the gathered text is the
text the value would get on its own, and the bytes depend neither on which
columns are gathered nor on where the blocks end.  `json_dumps`,
`rows_to_csv`, `polyline_csv`, `profile_csv` and `write_text` are the same
artifacts as whole strings.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Columns",
    "format_float",
    "row_blocks",
    "format_rows",
    "json_parts",
    "json_dumps",
    "csv_parts",
    "rows_to_csv",
    "polyline_csv_parts",
    "polyline_csv",
    "profile_csv_parts",
    "profile_csv",
    "stream_parts",
    "write_parts",
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


# rows per formatted block: bounds the text, the cells and the gathered
# indices held at once to a few hundred kB however long the array
_BLOCK_ROWS = 4096
# text written at once: adjacent parts are joined up to about this size
_CHUNK_CHARS = 1 << 16


def _gather(c: np.ndarray):
    """The sorted distinct values of a finite column, after + 0.0, and
    their %.17g texts when it has at most half as many distinct values as
    rows; else None."""
    # the distinct values by sort, since np.unique imports numpy.ma on its
    # first call (about 1.7 MB of resident memory in numpy 2.4)
    u = np.sort(c)
    u += 0.0
    first = np.concatenate(([True], u[1:] != u[:-1]))
    if 2 * np.count_nonzero(first) > len(c):
        return None
    u = u[first]
    return u, np.array(["%.17g" % v for v in u.tolist()], dtype=object)


def row_blocks(columns, row: str, sep: str, cell=format_float):
    """The text `sep`.join(row % tuple(map(cell, r)) for r in rows), where
    rows are read in place from equal-length 1-D float64 `columns`, as one
    part per block of at most `_BLOCK_ROWS` rows; each block after the
    first starts with `sep`.

    With the default `cell` the text is byte-identical to rendering every
    value with `format_float`.  A finite block takes one %-format call:
    adding 0.0 turns -0.0 into 0.0, which prints as "0" like int(-0.0), and
    %.17g prints every integral |v| < 1e16 as its integer digits.  A finite
    column with at most half as many distinct values as rows renders each
    distinct value once with %.17g and fills its %s by index in every
    block; the other columns put %.17g in the row.  Every value still gets
    its own %.17g text, and only equal floats share one (there is no -0.0
    after the + 0.0), so the choice never changes the bytes.  A block with
    a non-finite value is rendered value by value with `cell`.
    """
    fields = row.split("%s")
    gathers = []
    for j, c in enumerate(columns):
        gathers.append(_gather(c) if np.isfinite(c).all() else None)
        fields[j] += "%.17g" if gathers[j] is None else "%s"
    fast = "".join(fields)
    m, n = len(columns), len(columns[0])
    for i in range(0, n, _BLOCK_ROWS):
        k = min(_BLOCK_ROWS, n - i)
        block = [c[i:i + k] for c in columns]
        lead = sep if i else ""
        if all(np.isfinite(b).all() for b in block):
            cells = [None] * (k * m)  # row-major
            for j, (b, g) in enumerate(zip(block, gathers)):
                b = b + 0.0
                cells[j::m] = (b if g is None
                               else g[1][np.searchsorted(g[0], b)]).tolist()
            yield (lead + sep.join([fast] * k)) % tuple(cells)
        else:
            values = np.stack(block, axis=1).ravel().tolist()
            yield (lead + sep.join([row] * k)) % tuple(map(cell, values))


def format_rows(a: np.ndarray, row: str, sep: str, cell=format_float) -> str:
    """`sep`.join(row % tuple(map(cell, r)) for r in a) for a 2-D float
    array and a `row` template with one %s per column: the joined
    `row_blocks` of its columns."""
    a = np.asarray(a, dtype=np.float64)
    return "".join(row_blocks(list(a.T), row, sep, cell))


@dataclass(frozen=True)
class Columns:
    """Rows read in place from equal-length 1-D float64 columns.  In JSON
    they are a list of objects keyed by `names`, or of lists without them.
    """

    columns: tuple
    names: tuple | None = None


def _dump(obj, out: list):
    # appends the JSON text of obj as parts, and the row blocks of an array
    # as a generator in the place of its text
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
        # a 2-D array as a list of lists
        _dump(Columns(tuple(np.asarray(obj, dtype=np.float64).T)), out)
    elif isinstance(obj, Columns):
        if obj.names is None:
            row = "[" + ",".join(["%s"] * len(obj.columns)) + "]"
        else:
            keys = []
            for k in obj.names:
                _dump(k, keys)
            row = "{" + ",".join(k + ":%s" for k in keys) + "}"
        out.extend(("[", row_blocks(obj.columns, row, ","), "]"))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _dump(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_parts(obj):
    """The JSON text of obj and a final LF, as parts in order: runs of
    small parts joined, and each array as its row blocks."""
    out: list = []
    _dump(obj, out)
    out.append("\n")
    i = 0
    for j, part in enumerate(out):
        if part.__class__ is not str:
            yield "".join(out[i:j])
            yield from part
            i = j + 1
    yield "".join(out[i:])


def json_dumps(obj) -> str:
    return "".join(json_parts(obj))


def _csv_cell(v: float) -> str:
    return format_float(v).strip('"')


def csv_parts(header: tuple[str, ...], columns):
    """CSV text of equal-length 1-D float columns, read in place: the header
    line, then the rows in blocks."""
    yield ",".join(header) + "\n"
    yield from row_blocks(columns, ",".join(["%s"] * len(columns)) + "\n",
                          "", _csv_cell)


def rows_to_csv(header: tuple[str, ...], rows: np.ndarray) -> str:
    """CSV text of a 2-D float array."""
    return "".join(csv_parts(header, list(np.asarray(rows, np.float64).T)))


def polyline_csv_parts(polyline):
    return csv_parts(("t", "x", "y"), (polyline.params, *polyline.vertices.T))


def polyline_csv(polyline) -> str:
    return "".join(polyline_csv_parts(polyline))


def profile_csv_parts(profile, params):
    """Columns (K, exceedance_area, bound_C_alpha, truncation)."""
    rows = np.array([(k, area, params.bound(k), profile.truncation_bound)
                     for k, area in profile.entries], dtype=np.float64)
    return csv_parts(("K", "exceedance_area", "bound_C_alpha", "truncation"),
                     list(rows.reshape(-1, 4).T))


def profile_csv(profile, params) -> str:
    return "".join(profile_csv_parts(profile, params))


def stream_parts(fh, parts):
    """Write text parts to an open text file in order, joining adjacent
    small parts into writes of about `_CHUNK_CHARS` characters."""
    run, size = [], 0
    for part in parts:
        run.append(part)
        size += len(part)
        if size >= _CHUNK_CHARS:
            fh.write("".join(run))
            run, size = [], 0
    if run:
        fh.write("".join(run))


def write_parts(path: str, parts):
    """Atomic write of text parts with LF endings: the parts go to a temp
    file in order, which replaces `path` once all are written; a failed
    write, or parts that raise, leave no temp file and `path` as it was."""
    tmp = path + ".tmp"
    fh = open(tmp, "w", newline="\n")
    try:
        with fh:
            stream_parts(fh, parts)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_text(path: str, text: str):
    write_parts(path, (text,))
