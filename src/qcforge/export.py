"""Deterministic JSON/CSV serialization, streamed to its destination.

Hand-rolled on purpose: every float is rendered with 17 significant digits
(round-trippable), dict key order is preserved exactly as built, lines end
with LF, and files are written atomically — so identical inputs produce
byte-identical artifacts.

Each artifact is made as a stream of text parts (`json_parts`, `csv_parts`,
`polyline_csv_parts`, `profile_csv_parts`) that `write_parts` and the
CLI write in order, so no artifact's text is held whole.
Arrays (level centers, curve rows, profiles) are read in place, column by
column, and `row_blocks` formats at most `_BLOCK_ROWS` rows per part.  Each
finite column takes one of three ways, decided once by `_plan`, block by
block.  A column with at most half as many distinct values as rows, and
no block with more than half a block's, is gathered: the %.17g text of
each distinct value is made once, by the digit path if it can, and blocks
join them.  Another column whose every value is 0 or has 1e-4 <= |v| < 1 (the
curve's parameters, say) takes the digit path: numpy computes its 17
significant digits as an exact integer (Dekker's two-product of |v| and a
power of ten, rounded half to even as %.17g rounds), which %d prints after
the sign, "0." and the leading zeros.  The other columns print with %.17g.
Only the digit and %.17g cells go through a block's %-format call.  Each
way gives a value the text %.17g gives it alone, which holds no %, so the
bytes depend neither on the way nor on where the blocks end.
`json_dumps`, `rows_to_csv`, `polyline_csv`, `profile_csv` and
`write_text` are the same artifacts as whole strings.
"""

from __future__ import annotations

import itertools
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


# The digit path.  A finite column whose every value, after + 0.0, is 0 or
# has 1e-4 <= |v| < 1 prints each v != 0 in fixed notation: its sign, "0."
# and -e - 1 zeros, then the 17 significant digits N of |v| = N * 10**(e -
# 16), e = floor(log10 |v|), without N's trailing zeros.  N is computed
# exactly, so the text is %.17g's.  Each float(10**-k), k = 1..4, is the
# least double >= 10**-k, so d, the number of `_DECADES` at or below |v|,
# gives e = d - 5 exactly; the tables below are indexed by d (0 for 0).
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1])
_SPLIT = 2.0 ** 27 + 1  # Veltkamp: a double as the sum of two 26-bit halves


def _split(a):
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


# 10**p, p = 16 - e = 21 - d in [17, 20]; each is exact, and so are halves
_SCALE = np.array([1.0] + [float(10 ** p) for p in (20, 19, 18, 17)])
_SCALE_HI, _SCALE_LO = _split(_SCALE)
_PREFIXES = ("", "0.", "0.0", "0.00", "0.000",
             "-0.", "-0.0", "-0.00", "-0.000")
_PREFIX_OF = np.array([0, 4, 3, 2, 1])  # prefix index of a v >= 0, by d


def _two_product(a: np.ndarray, d: np.ndarray):
    """(hi, lo) with hi = fl(a * _SCALE[d]) and hi + lo = a * _SCALE[d]
    exactly: Dekker's two-product, exact where nothing overflows or
    underflows, as for 0 <= a < 1."""
    hi = a * _SCALE[d]
    ah, al = _split(a)
    sh, sl = _SCALE_HI[d], _SCALE_LO[d]
    return hi, ((ah * sh - hi) + ah * sl + al * sh) + al * sl


def _digits(b: np.ndarray):
    """For a block of the digit path: each value's %.17g text is
    _PREFIXES[i] + str(N), as the integers N and the indices i.

    |v| * 10**p = hi + lo lies in [1e16, 1e17), so hi is an even integer
    (1e16 > 2**53) and hi + rint(lo) rounds it half to even, as dtoa does.
    No double below 10**-z, z = 0..3, is within half a unit in the 17th
    digit of 10**-z, so N never carries to 10**17."""
    a = np.abs(b)
    d = np.searchsorted(_DECADES, a, side="right")
    hi, lo = _two_product(a, d)
    n = hi.astype(np.int64)
    n += np.rint(lo).astype(np.int64)
    for q in (10 ** 16, 10 ** 8, 10 ** 4, 100, 10):  # strip trailing zeros
        r = n // q
        n = np.where(r * q == n, r, n)
    i = _PREFIX_OF[d]
    i[b < 0] += 4
    return n, i


def _in_digit_domain(b: np.ndarray) -> bool:
    # every value is 0 or has 1e-4 <= |v| < 1, which no non-finite one has
    a = np.abs(b)
    return bool(((a == 0.0) | ((1e-4 <= a) & (a < 1.0))).all())


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a, sorted in place: by sort, since np.unique
    imports numpy.ma on its first call (about 1.7 MB of resident memory in
    numpy 2.4)."""
    a.sort()
    return a[np.concatenate(([True], a[1:] != a[:-1]))]


def _plan(c: np.ndarray):
    """How a column prints in a finite block, decided once per column from
    its blocks after + 0.0, as (spec, gather).  A finite column with at
    most half as many distinct values as rows, and no block with more than
    half as many as `_BLOCK_ROWS` (where the count stops), is gathered, and
    joined without %-format: ("%s", (its sorted distinct values, their
    %.17g texts, from `_digits` in its domain)).  Another finite column in
    the domain of `_digits` is ("%d", None), any other ("%.17g", None);
    both are %-formatted."""
    blocks = (c[i:i + _BLOCK_ROWS] + 0.0
              for i in range(0, len(c), _BLOCK_ROWS))
    seen = []  # each block's distinct values, until one has too many
    for b in blocks:
        seen.append(_distinct(b))
        if 2 * len(seen[-1]) > _BLOCK_ROWS:
            break
    else:
        u = _distinct(np.concatenate(seen)) if seen else c
        if 0 < 2 * len(u) <= len(c) and np.isfinite(u).all():
            if _in_digit_domain(u):
                n, i = _digits(u)
                texts = [_PREFIXES[j] + str(v)
                         for j, v in zip(i.tolist(), n.tolist())]
            else:
                texts = ["%.17g" % v for v in u.tolist()]
            return "%s", (u, np.array(texts, dtype=object))
    digit = all(map(_in_digit_domain, itertools.chain(seen, blocks)))
    return "%d" if digit else "%.17g", None


def _finite_block(block, plans, tables, lead: str, sep: str) -> str:
    """The text of a block of finite rows: the pieces of its cells joined,
    then one %-format call on its digit and %.17g cells, if it has any."""
    k, m = len(block[0]), len(block)
    pieces = [None] * (k * m)  # row-major
    computed = []
    for j, (b, (spec, g), table) in enumerate(zip(block, plans, tables)):
        if g is not None:
            pieces[j::m] = table[np.searchsorted(g[0], b)].tolist()
        elif spec == "%d":
            n, prefix = _digits(b + 0.0)
            pieces[j::m] = table[prefix].tolist()
            computed.append(n.tolist())
        else:
            pieces[j::m] = [table[0]] * k
            computed.append((b + 0.0).tolist())
    pieces[0] = lead + pieces[0][len(sep):]
    text, c = "".join(pieces), len(computed)
    cells = [None] * (k * c)  # row-major
    for t, col in enumerate(computed):
        cells[t::c] = col
    return text % tuple(cells) if c else text


def row_blocks(columns, row: str, sep: str, cell=format_float):
    """The text `sep`.join(row % tuple(map(cell, r)) for r in rows), where
    rows are read in place from equal-length 1-D float64 `columns`, as one
    part per block of at most `_BLOCK_ROWS` rows; each block after the
    first starts with `sep`.

    With the default `cell` the text is byte-identical to rendering every
    value with `format_float`.  Each column prints as `_plan` decides, from
    one table of pieces, each a cell and the row's literal after it (the
    first column's also start with `sep` and the literal before).  A
    gathered column's pieces hold its distinct values' %.17g texts, which
    a finite block joins as they are; a digit column's nine hold a sign
    and zeros before %d and any other column's one %.17g, which the
    block's %-format call fills.  Adding 0.0 turns -0.0 into 0.0, which
    prints as "0" like int(-0.0), and %.17g prints every integral
    |v| < 1e16 as its integer digits.  Each way gives a value its own
    %.17g text, which holds no %, so the choice never changes the bytes;
    with no call, the literals are taken as a call would print them.  A
    block with a non-finite value is rendered value by value with `cell`.
    """
    fields = row.split("%s")
    plans = [_plan(c) for c in columns]
    if all(g is not None for _, g in plans):
        fields = [f % () for f in fields]
    tables = []
    for j, ((spec, g), after) in enumerate(zip(plans, fields[1:])):
        # a gathered column's texts are completed in place, so held once
        table = g[1] if g is not None else np.array(
            [p + "%d" for p in _PREFIXES] if spec == "%d" else ["%.17g"],
            dtype=object)
        np.add("" if j else sep + fields[0], table, out=table)
        table += after
        tables.append(table)
    for i in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [c[i:i + _BLOCK_ROWS] for c in columns]
        lead = sep if i else ""
        if all(np.isfinite(b).all() for b in block):
            yield _finite_block(block, plans, tables, lead, sep)
        else:
            values = np.stack(block, axis=1).ravel().tolist()
            yield (lead + sep.join([row] * len(block[0]))) % tuple(
                map(cell, values))


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
    ks = profile.thresholds
    return csv_parts(("K", "exceedance_area", "bound_C_alpha", "truncation"),
                     (ks, profile.exceedances, params.bounds(ks),
                      np.full(len(ks), profile.truncation_bound)))


def profile_csv(profile, params) -> str:
    return "".join(profile_csv_parts(profile, params))


def write_parts(path: str, parts):
    """Atomic write of text parts with LF endings: the parts go to a temp
    file in order, which replaces `path` once all are written; a failed
    write, or parts that raise, leave no temp file and `path` as it was."""
    tmp = path + ".tmp"
    fh = open(tmp, "w", newline="\n")
    try:
        with fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_text(path: str, text: str):
    write_parts(path, (text,))
