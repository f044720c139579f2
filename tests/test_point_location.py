"""Point location on flat rows: `qcmaps.find` on a `TemplateStack.locator`
against `PiecewiseAffineMap.locate`, `evaluate` and its descent table
against a descent through the geometry objects that scans every child and
cell, on shallow maps and at deep levels, and what evaluation, the curve
and the other commands leave unbuilt."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qcforge import analysis, cli, homeo, qcmaps
from qcforge.cantor import make_gauge
from qcforge.errors import DomainError, GeometryError
from qcforge.geometry import Point
from qcforge.homeo import (curve_polyline, evaluate, invert, standard_homeo,
                           theoremB_homeo)
from qcforge.qcmaps import _FIND_TOL, _oriented, _stack_of, \
    annulus_extension_any, find, invert_piecewise, twist_extension, validate

SLOW, FAST = make_gauge("slow"), make_gauge("fast")


def _query_maps(depth=12):
    """The four maps of the benchmark's query workload, built afresh."""
    b, s = theoremB_homeo(depth), standard_homeo(SLOW, FAST, depth)
    return {"B": b, "B-inv": invert(b), "S": s, "S-inv": invert(s)}


def _templates(m):
    return [t for lv in m.levels for t in lv.templates]


def _box(t):
    """(x0, x1, y0, y1) of a template's cells."""
    (x0, y0), (x1, y1) = t.cells.min(axis=(0, 1)), t.cells.max(axis=(0, 1))
    return float(x0), float(x1), float(y0), float(y1)


def _located(m, levels=None):
    """(template, locator) of the templates of a map's levels (by default
    all of them)."""
    t = m.templates
    return [(t.template(k, j), t.locator(k, j))
            for k in (range(m.depth) if levels is None else levels)
            for j in range(len(t.kinds))]


def _ulps(v):
    """v and the floats either side of it."""
    return (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))


def _probe_points(t, tol, rng, seeded=40):
    """Cell vertices, edge midpoints, midpoints moved 2 tol off each edge
    along its normal, points on each edge's line 2, 11 and 1000 edge
    lengths past its ends, centroids, and seeded points over the box of
    the cells widened by 10% on each side."""
    pts = set()
    for cell in t.cells.tolist():
        for j in range(3):
            (ax, ay), (bx, by) = cell[j], cell[(j + 1) % 3]
            mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
            n = math.hypot(bx - ax, by - ay)
            nx, ny = -(by - ay) / n, (bx - ax) / n
            pts.update([(ax, ay), (mx, my), (mx + 2 * tol * nx,
                                             my + 2 * tol * ny),
                        (mx - 2 * tol * nx, my - 2 * tol * ny)])
            pts.update((ax + s * (bx - ax), ay + s * (by - ay))
                       for s in (-1e3, -11.0, -2.0, 3.0, 12.0, 1001.0))
        pts.add((sum(v[0] for v in cell) / 3.0, sum(v[1] for v in cell) / 3.0))
    x0, x1, y0, y1 = _box(t)
    wx, wy = 0.1 * (x1 - x0), 0.1 * (y1 - y0)
    xs = rng.uniform(x0 - wx, x1 + wx, seeded)
    ys = rng.uniform(y0 - wy, y1 + wy, seeded)
    pts.update(zip(xs.tolist(), ys.tolist()))
    return sorted(pts)


def _assert_find_matches_locate(located, tol, rng, seeded=40):
    """`find` on each locator against `locate` at tol, at `_probe_points`;
    the indices found, -1 included."""
    found = []
    # a template's cells decide its `find` (the theorem B map's right
    # twists share theirs, and so do its left twists)
    for t, loc in {t.cells.tobytes(): (t, loc) for t, loc in located}.values():
        for x, y in _probe_points(t, tol, rng, seeded):
            i = find(loc, x, y)
            assert i == t.locate(Point(x, y), tol), (t.params, x, y)
            found.append(i)
    return found


# `find` widens by `_FIND_TOL` alone
@pytest.mark.parametrize("tol", [_FIND_TOL])
@pytest.mark.parametrize("name", ["standard", "theoremB", "single", "thin"])
def test_find_matches_locate(name, tol):
    if name in ("standard", "theoremB"):
        m = standard_homeo(SLOW, FAST, 12) if name == "standard" \
            else theoremB_homeo(12)
        located = _located(m) + _located(invert(m))
    else:
        if name == "single":
            templates = [annulus_extension_any(0.1, 0.3),
                         annulus_extension_any(0.3, 0.1),
                         annulus_extension_any(0.02, 0.45),
                         twist_extension(0.05), twist_extension(0.19)]
        else:
            # edges 1e-12 long, whose widened triangles reach far past the
            # cells (the twist's are in its image, the inverse's domain)
            twist = twist_extension(1e-12)
            templates = [annulus_extension_any(1e-12, 0.1), twist,
                         invert_piecewise(twist)]
        located = [(t, _stack_of([[t]]).locator(0, 0)) for t in templates]
    found = _assert_find_matches_locate(
        located, tol, np.random.default_rng([20261018, len(located)]))
    # the widened boxes reach outside every template, and a later cell than
    # the first is picked somewhere
    assert -1 in found and max(found) > 0


def _per_test_edge_rows(cells):
    """The edge rows `find` read before they held each edge's widening:
    ax, ay, bx - ax, by - ay, max(1.0, |b - a|) per edge."""
    rows = []
    for p, q, r in _oriented(cells)[0].tolist():
        row = []
        for (ax, ay), (bx, by) in ((p, q), (q, r), (r, p)):
            row += (ax, ay, bx - ax, by - ay,
                    max(1.0, math.hypot(ax - bx, ay - by)))
        rows.append(tuple(row))
    return rows


def _find_per_test(rows, x, y):
    """`find` as it was before its edge rows held the widenings: the
    widening -tol * l of each edge formed per test."""
    tol = _FIND_TOL
    for i, (ax, ay, ux, uy, lu, bx, by, vx, vy, lv, cx, cy, wx, wy,
            lw) in enumerate(rows):
        if (ux * (y - ay) - uy * (x - ax) < -tol * lu
                or vx * (y - by) - vy * (x - bx) < -tol * lv
                or wx * (y - cy) - wy * (x - cx) < -tol * lw):
            continue
        return i
    return -1


def test_find_matches_its_per_test_widening():
    rng = np.random.default_rng(20261022)
    found = []
    for name, row in analysis.CASES.items():
        fwd = row.build(12, row.default)
        for m in (fwd, invert(fwd)):
            t = m.templates
            for k in range(m.depth):
                for j in range(len(t.kinds)):
                    loc = t.locator(k, j)
                    ref = _per_test_edge_rows(t.cells[k, j])
                    assert len(loc[0]) == len(ref)
                    for got, want in zip(loc[0], ref):
                        # the vertices and edge vectors keep their bits,
                        # and the widening is the product, bit for bit
                        for e in range(0, 15, 5):
                            (ax, ay), (bx, by) = got[e:e + 2], \
                                got[(e + 5) % 15:(e + 5) % 15 + 2]
                            widening = -_FIND_TOL * max(
                                1.0, math.hypot(bx - ax, by - ay))
                            assert got[e + 4].hex() == widening.hex() == \
                                (-_FIND_TOL * want[e + 4]).hex()
                            assert [v.hex() for v in got[e:e + 4]] == \
                                [v.hex() for v in want[e:e + 4]]
                    for x, y in _probe_points(t.template(k, j), _FIND_TOL,
                                              rng, 8):
                        i = find(loc, x, y)
                        assert i == _find_per_test(ref, x, y), \
                            (name, k, j, x, y)
                        found.append(i)
    # points outside every cell, and later cells than the first
    assert -1 in found and max(found) > 0


def _unchecked_point(x, y):
    """A Point that skipped its finiteness check."""
    p = object.__new__(Point)
    object.__setattr__(p, "x", x)
    object.__setattr__(p, "y", y)
    return p


def _evaluate_by_objects(m, z):
    """`evaluate` written on the geometry objects: the template's `apply`
    and a Chebyshev child test."""
    src, dst = m.src, m.dst
    if max(abs(z.x), abs(z.y)) > src.sides[0] / 2.0:
        return z, 0.0
    rx, ry, dcx, dcy = z.x, z.y, 0.0, 0.0
    for k, lv in enumerate(m.levels):
        half = src.sides[k + 1] / 2.0 * (1.0 + 1e-12)
        for child, (ox, oy) in enumerate(src.offsets[k]):
            if max(abs(rx - ox), abs(ry - oy)) <= half:
                break
        else:
            s, d = src.sides[k], dst.sides[k]
            for ti, x, y, scale in m.slots:
                ox, oy, sscale = x * s, y * s, s * scale
                dox, doy, dscale = x * d, y * d, d * scale
                u = Point((rx - ox) / sscale, (ry - oy) / sscale)
                x0, x1, y0, y1 = _box(lv.templates[ti])
                if (x0 - 2e-12 <= u.x <= x1 + 2e-12
                        and y0 - 2e-12 <= u.y <= y1 + 2e-12):
                    break
            v = lv.templates[ti].apply(u, tol=1e-9)
            return Point(dcx + dox + v.x * dscale,
                         dcy + doy + v.y * dscale), 0.0
        rx, ry = rx - ox, ry - oy
        dox, doy = dst.offsets[k][child]
        dcx, dcy = dcx + dox, dcy + doy
    ratio = dst.sides[-1] / src.sides[-1]
    return (Point(dcx + rx * ratio, dcy + ry * ratio),
            dst.sides[-1] * math.sqrt(2.0))


def _seeded_points(m, count, rng):
    """Half uniform over a box 10% wider than the level-0 square, half
    jittered by up to 3/4 side around random deepest-level centers."""
    deep = np.zeros((count // 2, 2))
    for offsets in m.src.offsets:
        deep += np.array(offsets)[rng.integers(0, 4, len(deep))]
    deep += rng.uniform(-0.75, 0.75, deep.shape) * m.src.sides[-1]
    wide = rng.uniform(-0.55, 0.55, (count - len(deep), 2))
    return np.concatenate([deep, wide]).tolist()


def _square_edge_points(m, top=3):
    """Points on the widened edge of every level-1..top source square, at
    +-half (1 + 1e-12) from its centre and one ulp either side, and points
    on the cut lines of every level-0..top-1 parent, halfway between the
    centres of its children on one axis."""
    pts = []
    for k in range(1, min(top, m.depth) + 1):
        half = m.src.sides[k] / 2.0 * (1.0 + 1e-12)
        for cx, cy in m.corresponding_centers(k)[0].tolist():
            for e in (-half, half):
                for along in (0.0, 0.5 * half):
                    pts += [(x, cy + along) for x in _ulps(cx + e)]
                    pts += [(cx + along, y) for y in _ulps(cy + e)]
        offsets = m.src.offsets[k - 1]
        side = m.src.sides[k - 1]
        cuts = [[(a + b) / 2.0 for a, b in zip(c, c[1:])] for c in
                (sorted({o[axis] for o in offsets}) for axis in (0, 1))]
        for px, py in m.corresponding_centers(k - 1)[0].tolist():
            for along in (0.0, 0.1 * side, -0.3 * side):
                pts += [(px + c, py + along) for c in cuts[0]]
                pts += [(px + along, py + c) for c in cuts[1]]
    return pts


def _evaluate(m, z):
    r = evaluate(m, z)
    return r.point, r.error_bound


def _outcome(f, m, x, y):
    """(x, y, error bound) of f(m, Point(x, y)), or the error it raised,
    class and text."""
    try:
        w, bound = f(m, Point(x, y))
    except DomainError as e:
        return type(e), str(e)
    return w.x, w.y, bound


def test_evaluate_matches_the_object_path_bit_for_bit():
    rng = np.random.default_rng(20261019)
    shallow = {d: _query_maps(d) for d in (0, 1)}
    # d_k / d_(k-1) = 2^(-1e-13): the widened children of a source square
    # overlap, and the first of them in child order holds a point there
    tight = standard_homeo(make_gauge("geometric", 1e-13), FAST, 6)
    for key, m in (("tight", tight), ("tight-inv", invert(tight))):
        shallow[0][key], shallow[1][key] = m.truncate(0), m.truncate(1)
    # outcomes, errors included
    for key, m in [*_query_maps().items(), ("tight", tight),
                   ("tight-inv", invert(tight))]:
        pts = _seeded_points(m, 400, rng) + _square_edge_points(m)
        for name, mm in (("depth-12", m), ("depth-0", shallow[0][key]),
                         ("depth-1", shallow[1][key]),
                         ("truncated-5", m.truncate(5))):
            raised = 0
            for x, y in pts:
                got = _outcome(_evaluate, mm, x, y)
                assert got == _outcome(_evaluate_by_objects, mm, x, y), \
                    (key, name, x, y)
                raised += len(got) == 2
            # a point that the widened child test lets in lies in a box of
            # that child's gasket, which is widened further; only the
            # inverse of the thinnest annuli, whose solved cells miss their
            # own inner corners, leaves points outside every cell
            assert raised == 0 or key == "tight-inv", (key, name, raised)
        # `evaluate` returns before the descent at depth 0, but the table
        # of a map with no levels is still made, and is empty
        assert shallow[0][key]._descent == (), key


def _placed_cell_points(m, levels, parents, rng):
    """Vertices, edge midpoints and centroids of the level-k template cells
    for each k in `levels`, placed in `parents` level-(k - 1) source squares
    along random digit paths: the centroids resolve at level k."""
    pts = []
    for k in levels:
        lv, side = m.levels[k - 1], m.src.sides[k - 1]
        centers = np.zeros((parents, 2))
        for offsets in m.src.offsets[:k - 1]:
            centers += np.array(offsets)[rng.integers(0, 4, parents)]
        for ti, x, y, scale in m.slots:
            cells = lv.templates[ti].cells
            u = np.concatenate([cells, (cells + np.roll(cells, -1, axis=1))
                                / 2.0, cells.mean(axis=1, keepdims=True)],
                               axis=1).reshape(-1, 2)
            pts += (centers[:, None] + (x * side, y * side)
                    + u[None] * (side * scale)).reshape(-1, 2).tolist()
    return pts


# two runs of deep levels of the depth-40 maps below
DEEP_LEVELS = (15, 16, 17, 18, 31, 32, 33, 34)


# sources whose level-34 squares are still many rounding steps wide: the
# slow gauge of S and the square-root gauge of B-inv
@pytest.mark.parametrize("key", ["S", "B-inv"])
def test_find_and_evaluate_at_deep_levels(key):
    rng = np.random.default_rng([20261021, len(key)])
    m = standard_homeo(SLOW, FAST, 40) if key == "S" \
        else invert(theoremB_homeo(40))
    for x, y in _placed_cell_points(m, DEEP_LEVELS, 2, rng):
        assert _outcome(_evaluate, m, x, y) == \
            _outcome(_evaluate_by_objects, m, x, y), (key, x, y)
    levels = [k - 1 for k in DEEP_LEVELS]
    _assert_find_matches_locate(_located(m, levels)
                                + _located(invert(m), levels), _FIND_TOL,
                                rng, 8)


def test_one_evaluate_makes_one_locator_only():
    m = invert(theoremB_homeo(400))
    tracemalloc.start()
    try:
        # in the level-1 gasket
        evaluate(m, Point(0.45, 0.4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    t = m.templates
    # the locator of the level-1 template that holds the point
    assert len(t._locators) == 1
    assert "levels" not in m.__dict__
    # the descent table of 400 levels (about 1 MB) and one locator
    assert peak < 3e6, peak


def _unread(*args):
    raise AssertionError("a descent table or a locator was made")


def test_evaluation_and_curve_build_no_pieces(tmp_path):
    maps = _query_maps()
    # building maps, profiles, reports and validate make no descent table
    # and no locator
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homeo.HierarchicalMap, "_descent", property(_unread))
        mp.setattr(qcmaps.TemplateStack, "locator", _unread)
        for argv in (["report", "--case", "slow-to-fast", "--depth", "12"],
                     ["report", "--case", "theoremB", "--depth", "12"],
                     ["david", "--case", "theoremB", "--depth", "12",
                      "--direction", "inverse"],
                     ["profile", "--case", "geometric-to-fast", "--depth",
                      "12", "--side", "image"],
                     ["homeo", "--theorem-b", "--depth", "12"],
                     ["annulus", "--a", "0.1", "--b", "0.3"],
                     ["twist", "--a", "0.05"]):
            assert cli.run(argv + ["--out", str(tmp_path / "out")]) in (0, 2)
        for m in maps.values():
            profile = analysis.dilatation_profile(m, "image")
            analysis.check_david(profile, analysis.DavidParams(1.0, 1.0, 2.0))
            for t in _templates(m):
                validate(t, float(t.image_areas.sum()))
    for key, m in maps.items():
        assert "_descent" not in m.__dict__, key
        assert "_locators" not in m.templates.__dict__, key
    rng = np.random.default_rng(20261020)
    for key, m in _query_maps().items():
        for x, y in _seeded_points(m, 200, rng):
            evaluate(m, Point(x, y))
        # the points reached gaskets through the stack's locators, and
        # made no level and no template
        assert m.templates._locators and "levels" not in m.__dict__, key
    b = theoremB_homeo(4)
    curve_polyline(b)
    # the curve reads the locator of every template, not its pieces
    assert set(b.templates._locators) == {(k, j) for k in range(4)
                                          for j in range(2)}
    assert not any("pieces" in t.__dict__ for t in _templates(b))


@pytest.mark.parametrize("key", ["B", "B-inv", "S", "S-inv"])
def test_non_finite_points_raise_geometry_error(key):
    m = _query_maps(3)[key]
    with pytest.raises(GeometryError):
        evaluate(m, Point(math.nan, 0.0))
    # a non-finite point that got past its own check fails at the
    # normalized point of the gasket it falls into
    for x, y in ((math.nan, 0.1), (0.1, math.nan), (math.nan, math.nan)):
        with pytest.raises(GeometryError):
            evaluate(m, _unchecked_point(x, y))


def test_point_in_no_cell_raises_domain_error():
    m = theoremB_homeo(2)
    # both level-1 templates with halved cells, the other arrays kept
    cells = m.templates.cells.copy()
    cells[0] *= 0.5
    m = replace(m, templates=replace(m.templates, cells=cells))
    z = Point(0.45, 0.4)  # in the level-1 gasket, outside the halved cells
    with pytest.raises(DomainError) as reference:
        m.levels[0].templates[1].apply(z, tol=1e-9)
    with pytest.raises(DomainError, match="outside the domain") as got:
        evaluate(m, z)
    assert str(got.value) == str(reference.value)
