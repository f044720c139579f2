"""The array-native midline curve against the two builds it replaced.

`_reference_polyline` walks the squares depth first, one `Point` per
vertex, with each level's plan built from the two hard-coded twist halves;
the package builds the same walk level by level from the placements.  Both
add the same offsets in the same order, so every bit must agree.
`_merged_polyline` is the level-by-level build before it wrote one row per
vertex: it concatenates both ends of every segment and deepest square and
then drops each row within a tolerance of the last kept one.
"""

import csv
import io
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qcforge import homeo
from qcforge.cli import run
from qcforge.geometry import Point
from qcforge.homeo import (HierarchicalMap, _curve_plan, _splice,
                           curve_polyline, theoremB_homeo)
from qcforge.qcmaps import TemplateStack


def _midline_segments(template, x_lo, x_hi, holes):
    """Split the segment y = 0, x in [x_lo, x_hi] minus `holes` at every
    crossing of a cell edge of a template's `pieces`; return (x0, x1, cell
    index) triples in ascending order, the cell from `locate` at each
    segment's midpoint."""
    cuts = {x_lo, x_hi}
    for lo, hi in holes:
        cuts.add(lo)
        cuts.add(hi)
    for t, _ in template.pieces:
        for a, b in ((t.v1, t.v2), (t.v2, t.v3), (t.v3, t.v1)):
            if a.y == 0.0 and b.y == 0.0:
                cuts.add(a.x)
                cuts.add(b.x)
            elif (a.y <= 0.0 <= b.y) or (b.y <= 0.0 <= a.y):
                if a.y != b.y:
                    cuts.add(a.x + (b.x - a.x) * (a.y / (a.y - b.y)))
    xs = sorted(x for x in cuts if x_lo - 1e-12 <= x <= x_hi + 1e-12)
    merged = [xs[0]]
    for x in xs[1:]:
        if x - merged[-1] > 1e-12:
            merged.append(x)
    segs = []
    for x0, x1 in zip(merged, merged[1:]):
        mid = 0.5 * (x0 + x1)
        if any(lo < mid < hi for lo, hi in holes):
            continue
        segs.append((x0, x1, template.locate(Point(mid, 0.0), 1e-9)))
    return segs


def _reference_plan(m, lv):
    sides = m.source.table(lv.k).sides
    sp = sides[lv.k - 1]
    child_half = sides[lv.k] / (2.0 * sp)
    centers = [ox / sp for ox, _ in m.src.offsets[lv.k - 1]]
    holes = tuple((c - child_half, c + child_half) for c in centers)
    items = []
    for ti, (lo, hi) in ((1, (-0.5, 0.0)), (0, (0.0, 0.5))):
        in_range = tuple(h for h in holes if h[0] >= lo - 1e-12
                         and h[1] <= hi + 1e-12)
        for x0, x1, idx in _midline_segments(lv.templates[ti], lo, hi,
                                             in_range):
            items.append((x0, "seg", (x1, ti, idx)))
    for j, c in enumerate(centers):
        items.append((c - child_half, "child", j))
    items.sort(key=lambda it: it[0])
    return items


def _reference_polyline(m, tol=1e-12):
    plans = [_reference_plan(m, lv) for lv in m.levels]
    src = m.source.table(m.depth).sides
    dst = m.target.table(m.depth).sides
    out = []
    eps = min(tol, src[m.depth] * 1e-3)

    def emit(t, x, y):
        if out and abs(t - out[-1][0]) <= eps \
                and abs(x - out[-1][1]) <= eps \
                and abs(y - out[-1][2]) <= eps:
            return
        out.append((t, x, y))

    def rec(k, sc, dc):
        if k == m.depth:
            s = src[k] / 2.0
            ratio = dst[k] / src[k]
            emit(sc.x - s, dc.x - s * ratio, dc.y)
            emit(sc.x + s, dc.x + s * ratio, dc.y)
            return
        lv = m.levels[k]
        sp, dp = src[k], dst[k]
        for start, tag, payload in plans[k]:
            if tag == "child":
                ox, oy = m.src.offsets[k][payload]
                dox, doy = m.dst.offsets[k][payload]
                rec(k + 1, Point(sc.x + ox, sc.y + oy),
                    Point(dc.x + dox, dc.y + doy))
            else:
                x1, ti, idx = payload
                cell_map = lv.templates[ti].pieces[idx][1]
                for x in (start, x1):
                    v = cell_map(Point(x, 0.0))
                    emit(sc.x + x * sp, dc.x + v.x * dp, dc.y + v.y * dp)

    rec(0, Point(0.0, 0.0), Point(0.0, 0.0))
    return np.array(out).reshape(-1, 3)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("depth", range(6))
def test_curve_matches_scalar_recursion_bit_for_bit(depth):
    m = theoremB_homeo(depth)
    pl = curve_polyline(m)
    ref = _reference_polyline(m)
    assert pl.vertices.shape == (len(ref), 2)
    assert pl.params.shape == (len(ref),)
    assert np.array_equal(_bits(pl.params), _bits(ref[:, 0]))
    assert np.array_equal(_bits(pl.vertices), _bits(ref[:, 1:]))


def _merge_mask(rows, eps):
    """Rows kept when, walking in order, a row within `eps` of the last kept
    row in every coordinate is dropped."""
    n = len(rows)
    keep = np.ones(n, dtype=bool)
    # A dropped row and the rows between it and its anchor (the last kept
    # row) all lie within eps of the anchor, so each lies within 2 eps of
    # its predecessor (4 eps leaves room for rounding).  A row farther than
    # that from its predecessor is kept, and starts a cluster.
    near = np.concatenate(([False], np.all(
        np.abs(np.diff(rows, axis=0)) <= 4.0 * eps, axis=1)))
    cluster = np.cumsum(~near) - 1
    starts = np.flatnonzero(~near)
    rank = np.arange(n) - starts[cluster]
    anchor = starts.copy()
    # one pass per rank within a cluster, over all clusters at once
    for r in range(1, int(rank.max(initial=0)) + 1):
        i = np.flatnonzero(rank == r)
        c = cluster[i]
        kept = ~np.all(np.abs(rows[i] - rows[anchor[c]]) <= eps, axis=1)
        keep[i] = kept
        anchor[c[kept]] = i[kept]
    return keep


def _deepest_block(m):
    """Both ends of every deepest square's midline and their images, as
    (squares, 2, (t, x, y))."""
    n, src, dst = m.depth, m.src, m.dst
    sc, dc = m.corresponding_centers(n)
    s = src.sides[n] / 2.0
    ratio = dst.sides[n] / src.sides[n]
    return np.stack([
        np.stack([sc[:, 0] - s, dc[:, 0] - s * ratio, dc[:, 1]], axis=1),
        np.stack([sc[:, 0] + s, dc[:, 0] + s * ratio, dc[:, 1]], axis=1),
    ], axis=1)


def _merged_polyline(m, tol=1e-12):
    """(t, x, y) rows of the curve: every level's blocks concatenated with
    both ends of each segment, then merged with `_merge_mask`."""
    n = m.depth
    src, dst = m.src, m.dst
    block = _deepest_block(m)
    for k in range(n, 0, -1):
        sc, dc = m.corresponding_centers(k - 1)
        base = np.stack([sc[:, 0], dc[:, 0], dc[:, 1]], axis=1)[:, None, :]
        children = block.reshape(len(base), 4, -1, 3)
        sp, dp = src.sides[k - 1], dst.sides[k - 1]
        parts = []
        for start, tag, payload in _curve_plan(m, k):
            if tag == "child":
                parts.append(children[:, payload])
                continue
            x1, ti, idx = payload
            m11, m12, m21, m22, tx, ty = m.templates.locator(k - 1, ti)[1][idx]
            ends = [(x * sp, (m11 * x + m12 * 0.0 + tx) * dp,
                     (m21 * x + m22 * 0.0 + ty) * dp) for x in (start, x1)]
            parts.append(base + np.array(ends)[None])
        block = np.concatenate(parts, axis=1)
    rows = block.reshape(-1, 3)
    return rows, _merge_mask(rows, min(tol, src.sides[n] * 1e-3))


@pytest.mark.parametrize("depth", range(9))
def test_curve_matches_concatenate_then_merge_bit_for_bit(depth):
    m = theoremB_homeo(depth)
    rows, keep = _merged_polyline(m)
    # the merge drops exactly the first row of every item after the first,
    # which repeats the last row of the item before it: rows 2, 4, ..., n-2
    assert np.flatnonzero(~keep).tolist() == list(range(2, len(rows) - 1, 2))
    rows = rows[keep]
    pl = curve_polyline(m)
    assert np.array_equal(_bits(pl.params), _bits(rows[:, 0]))
    assert np.array_equal(_bits(pl.vertices), _bits(rows[:, 1:]))


def _per_level_walk(m):
    """(t, x, y) rows of the curve spliced from `_curve_plan(m, k)` made
    anew for every level k."""
    block = _deepest_block(m)
    for k in range(m.depth, 0, -1):
        block = _splice(m, k, _curve_plan(m, k), block)
    return block.reshape(-1, 3)


def _counted_plans(monkeypatch):
    """The levels for which `curve_polyline` makes a plan, as it makes
    them."""
    made = []

    def plan(m, k):
        made.append(k)
        return _curve_plan(m, k)

    monkeypatch.setattr(homeo, "_curve_plan", plan)
    return made


def _same_bytes(pl, rows):
    return (pl.params.tobytes() == rows[:, 0].tobytes()
            and pl.vertices.tobytes() == rows[:, 1:].tobytes())


@pytest.mark.parametrize("depth", range(1, 9))
def test_one_plan_serves_every_level_of_theorem_b(monkeypatch, depth):
    # the 8-adic source is self-similar and the twist's cells have the same
    # bits at every level, so the deepest level's plan is every level's
    m = theoremB_homeo(depth)
    rows = _per_level_walk(m)
    made = _counted_plans(monkeypatch)
    assert _same_bytes(curve_polyline(m), rows)
    assert made == [depth]


def test_a_level_whose_cells_differ_by_one_ulp_gets_its_own_plan(
        monkeypatch):
    # the level-3 right twist's cut at x = 1/24 moves by one ulp, and so do
    # the ends of the segments next to it
    m = theoremB_homeo(5)
    cells = m.templates.cells.copy()
    x = cells[2, 0, ..., 0]
    assert (x == 1.0 / 24).sum() == 12
    x[x == 1.0 / 24] = np.nextafter(1.0 / 24, 1.0)
    m = replace(m, templates=replace(m.templates, cells=cells))
    plans = [_curve_plan(m, k) for k in range(1, 6)]
    assert [p == plans[0] for p in plans] == [True, True, False, True, True]
    rows = _per_level_walk(m)
    made = _counted_plans(monkeypatch)
    assert _same_bytes(curve_polyline(m), rows)
    assert made == [5, 3]


def _unread(*args):
    raise AssertionError("a level or a template object was made")


def test_curve_makes_no_level_and_no_template_object():
    # the curve reads the stack's cells and locators and the level tables,
    # as `evaluate` does
    m = theoremB_homeo(5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HierarchicalMap, "levels", property(_unread))
        mp.setattr(TemplateStack, "template", _unread)
        pl = curve_polyline(m)
    ref = _reference_polyline(m)
    assert np.array_equal(_bits(pl.params), _bits(ref[:, 0]))
    assert np.array_equal(_bits(pl.vertices), _bits(ref[:, 1:]))


def test_curve_peak_memory_is_a_small_multiple_of_its_output():
    m = theoremB_homeo(7)
    tracemalloc.start()
    try:
        pl = curve_polyline(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pl.params) > 100_000
    assert peak <= 4 * (pl.params.nbytes + pl.vertices.nbytes)


def _reference_merge(rows, eps):
    kept = [0]
    for i in range(1, len(rows)):
        if not np.all(np.abs(rows[i] - rows[kept[-1]]) <= eps):
            kept.append(i)
    return kept


@pytest.mark.parametrize("seed", range(4))
def test_merge_compares_with_the_last_kept_row(seed):
    # steps of 0.6 eps chain rows whose neighbours are all within eps while
    # the chain is not: every second row of a chain is kept
    rng = np.random.default_rng(seed)
    steps = rng.choice([0.0, 0.3, 0.6, 0.9, 1.5, 3.0, 5.0], size=(400, 3))
    rows = np.cumsum(steps * rng.choice([-1.0, 1.0], size=(400, 3)), axis=0)
    keep = _merge_mask(rows, 1.0)
    assert np.flatnonzero(keep).tolist() == _reference_merge(rows, 1.0)


def test_cli_curve_csv_and_json_parse_back_to_the_rows(capsys):
    pl = curve_polyline(theoremB_homeo(3))
    rows = np.column_stack([pl.params, pl.vertices])
    assert run(["curve", "--depth", "3", "--format", "csv"]) == 0
    text = capsys.readouterr().out
    table = list(csv.reader(io.StringIO(text)))
    assert table[0] == ["t", "x", "y"]
    assert np.array_equal(_bits(np.array(table[1:], dtype=float)),
                          _bits(rows))
    assert run(["curve", "--depth", "3", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["depth"] == 3
    assert all(list(v) == ["t", "x", "y"] for v in obj["vertices"])
    parsed = np.array([(v["t"], v["x"], v["y"]) for v in obj["vertices"]])
    assert np.array_equal(_bits(parsed), _bits(rows))
