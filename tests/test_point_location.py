"""Point location on flat rows: `PiecewiseAffineMap.find` against `locate`,
`evaluate` against a descent through the geometry objects, and what
evaluation and the curve leave unbuilt."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qcforge.cantor import make_gauge
from qcforge.errors import DomainError, GeometryError
from qcforge.geometry import Point
from qcforge.homeo import (curve_polyline, evaluate, invert, standard_homeo,
                           theoremB_homeo)
from qcforge.qcmaps import annulus_extension_any, twist_extension

SLOW, FAST = make_gauge("slow"), make_gauge("fast")


def _query_maps(depth=12):
    """The four maps of the benchmark's query workload, built afresh."""
    b, s = theoremB_homeo(depth), standard_homeo(SLOW, FAST, depth)
    return {"B": b, "B-inv": invert(b), "S": s, "S-inv": invert(s)}


def _templates(m):
    return [t for lv in m.levels for t in lv.templates]


def _probe_points(t, tol, rng):
    """Cell vertices, edge midpoints, midpoints moved 2 tol off each edge
    along its normal, centroids, and seeded points over the bbox widened by
    10% on each side."""
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
        pts.add((sum(v[0] for v in cell) / 3.0, sum(v[1] for v in cell) / 3.0))
    x0, x1, y0, y1 = t.bbox
    wx, wy = 0.1 * (x1 - x0), 0.1 * (y1 - y0)
    xs = rng.uniform(x0 - wx, x1 + wx, 40)
    ys = rng.uniform(y0 - wy, y1 + wy, 40)
    pts.update(zip(xs.tolist(), ys.tolist()))
    return sorted(pts)


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize("name", ["standard", "theoremB", "single"])
def test_find_matches_locate(name, tol):
    if name == "standard":
        m = standard_homeo(SLOW, FAST, 12)
        templates = _templates(m) + _templates(invert(m))
    elif name == "theoremB":
        m = theoremB_homeo(12)
        templates = _templates(m) + _templates(invert(m))
    else:
        templates = [annulus_extension_any(0.1, 0.3),
                     annulus_extension_any(0.3, 0.1),
                     annulus_extension_any(0.02, 0.45),
                     twist_extension(0.05), twist_extension(0.19)]
    rng = np.random.default_rng([20261018, len(templates)])
    found = []
    for t in templates:
        for x, y in _probe_points(t, tol, rng):
            i = t.find(x, y, tol)
            assert i == t.locate(Point(x, y), tol), (t.params, x, y)
            found.append(i)
    # the widened boxes reach outside every template, and a later cell than
    # the first is picked somewhere
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
            sscale = src.sides[k] * m.template_scale
            dscale = dst.sides[k] * m.template_scale
            for ti, (ox, oy), (dox, doy) in lv.placements:
                u = Point((rx - ox) / sscale, (ry - oy) / sscale)
                x0, x1, y0, y1 = lv.templates[ti].bbox
                if (x0 - 1e-12 <= u.x <= x1 + 1e-12
                        and y0 - 1e-12 <= u.y <= y1 + 1e-12):
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


def test_evaluate_matches_the_object_path_bit_for_bit():
    rng = np.random.default_rng(20261019)
    for key, m in _query_maps().items():
        for x, y in _seeded_points(m, 400, rng):
            r = evaluate(m, Point(x, y))
            w, bound = _evaluate_by_objects(m, Point(x, y))
            assert (r.point.x, r.point.y, r.error_bound) == \
                (w.x, w.y, bound), (key, x, y)


def test_evaluation_and_curve_build_no_pieces():
    rng = np.random.default_rng(20261020)
    for key, m in _query_maps().items():
        for x, y in _seeded_points(m, 200, rng):
            evaluate(m, Point(x, y))
        templates = _templates(m)
        assert not any("pieces" in t.__dict__ for t in templates), key
        # the points did reach gaskets, through the flat rows
        assert any("rows" in t.__dict__ for t in templates), key
    b = theoremB_homeo(4)
    curve_polyline(b)
    assert all("rows" in t.__dict__ and "pieces" not in t.__dict__
               for t in _templates(b))


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
