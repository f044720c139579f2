"""The level-batched template kernels against the scalar path.

The oracle below builds one template at a time from `Point` corners: a
diagonal per quad chosen by signed areas, then `affine_three_point`,
`dilatation` and `Triangle` areas cell by cell, and `invert_affine` for the
inverse.  The package builds every level of a map in one array pass; both
must agree bit for bit, and must raise the same error first.
"""

from dataclasses import replace

import numpy as np
import pytest

from qcforge.cantor import make_gauge
from qcforge.errors import DepthLimitError, DomainError, GeometryError, \
    OrientationError, QCForgeError
from qcforge.geometry import AffineMap, Point, Triangle, \
    affine_three_point, dilatation, invert_affine
from qcforge.homeo import invert, standard_homeo, theoremB_homeo
from qcforge.qcmaps import annulus_extension_any, annulus_templates, \
    _stack_of, invert_piecewise, invert_templates, twist_extension, \
    twist_templates

from conftest import gauge_d

DEPTH = 64


def _area2(a, b, c):
    return (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)


def _corners(cx, cy, side):
    h = side / 2.0
    return [Point(cx - h, cy - h), Point(cx + h, cy - h),
            Point(cx + h, cy + h), Point(cx - h, cy + h)]


def _ring_pairs(outer_src, inner_src, outer_dst, inner_dst):
    """Matched triangle pairs of the spoke decomposition of two annuli."""
    pairs = []
    for k in range(4):
        k1 = (k + 1) % 4
        src = [outer_src[k], outer_src[k1], inner_src[k1], inner_src[k]]
        dst = [outer_dst[k], outer_dst[k1], inner_dst[k1], inner_dst[k]]
        for split in (((0, 1, 2), (0, 2, 3)), ((0, 1, 3), (1, 2, 3))):
            if all(_area2(*(q[i] for i in t)) > 0
                   for q in (src, dst) for t in split):
                pairs += [(Triangle(*(src[i] for i in t)),
                           Triangle(*(dst[i] for i in t))) for t in split]
                break
        else:
            raise GeometryError("no valid diagonal for matched quads")
    return pairs


def _solved(pairs):
    """(cell, map, K, image) per pair, solved cell by cell."""
    rows = []
    for src, dst in pairs:
        m = affine_three_point(src, dst)
        rows.append((src, m, dilatation(m),
                     Triangle(*(m(v) for v in src.vertices))))
    return rows


def _inverted(rows):
    out = []
    for _, m, K, image in rows:
        inv = invert_affine(m)
        out.append((image, inv, K,
                    Triangle(*(inv(v) for v in image.vertices))))
    return out


def _annulus(a, b):
    if not (0 < a < 0.5 and 0 < b < 0.5):
        raise DomainError(f"need a, b in (0, 1/2), got a={a}, b={b}")
    lo, hi = (a, b) if a <= b else (b, a)
    outer = _corners(0, 0, 1.0)
    rows = _solved(_ring_pairs(outer, _corners(0, 0, 1 - 2 * lo),
                               outer, _corners(0, 0, 1 - 2 * hi)))
    return rows if a <= b else _inverted(rows)


def _twist(a):
    if not (0 < a < 0.2):
        raise DomainError(f"need 0 < a < 1/5, got a={a}")
    gx0, gx1, gh = 1.0 / 24, 11.0 / 24, 3.0 / 16
    P = [Point(0.0, -0.5), Point(0.5, -0.5), Point(0.5, 0.5), Point(0.0, 0.5)]
    A = [Point(gx0, -gh), Point(gx1, -gh), Point(gx1, gh), Point(gx0, gh)]
    p0, p1 = a / 2.0, 0.5 - a / 2.0
    q0, q1 = -0.5 + a / 2.0, 0.5 - a / 2.0
    B = [Point(p0, q0), Point(p1, q0), Point(p1, q1), Point(p0, q1)]
    left = _ring_pairs([A[0], Point(0.25, -gh), Point(0.25, gh), A[3]],
                       _corners(0.125, 0.0, 0.125),
                       [B[3], Point(p0, 0.0), Point(p1, 0.0), B[2]],
                       _corners(0.25, 0.25, 0.5 - 2 * a))
    right = [tuple(Triangle(*(Point(0.5 - v.x, -v.y) for v in t.vertices))
                   for t in pair) for pair in left]
    return _solved(_ring_pairs(P, A, P, [B[3], B[0], B[1], B[2]])
                   + left + right)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _assert_same(t, rows):
    want = {
        "cells": [[(v.x, v.y) for v in c.vertices] for c, _, _, _ in rows],
        "maps": [(m.m11, m.m12, m.m21, m.m22, m.tx, m.ty)
                 for _, m, _, _ in rows],
        "dilatations": [K for _, _, K, _ in rows],
        "images": [[(v.x, v.y) for v in i.vertices] for _, _, _, i in rows],
        "domain_areas": [c.area for c, _, _, _ in rows],
        "image_areas": [i.area for _, _, _, i in rows],
    }
    for name, values in want.items():
        assert np.array_equal(_bits(getattr(t, name)), _bits(values)), name


def _gauge(text):
    kind, _, nu = text.partition(":")
    return make_gauge(kind, float(nu) if nu else None)


# (source, target, levels built swapped and inverted)
@pytest.mark.parametrize("src, dst, flipped", [
    ("slow", "fast", 1), ("slow", "geometric:1.2345", 0),
    ("geometric:1.1", "fast", 1), ("geometric:0.25", "geometric:4", 0),
    ("geometric:4", "geometric:0.25", DEPTH)])
def test_standard_templates_match_the_scalar_path(src, dst, flipped):
    g, h = _gauge(src), _gauge(dst)
    m = standard_homeo(g, h, DEPTH)
    flips = 0
    for k, (lv, lvi) in enumerate(zip(m.levels, invert(m).levels), 1):
        alpha = (1.0 - gauge_d(g, k) / gauge_d(g, k - 1)) / 2.0
        beta = (1.0 - gauge_d(h, k) / gauge_d(h, k - 1)) / 2.0
        flips += alpha > beta
        rows = _annulus(alpha, beta)
        _assert_same(lv.templates[0], rows)
        _assert_same(lvi.templates[0], _inverted(rows))
        # the single-template builders give the same bits
        single = annulus_extension_any(alpha, beta)
        _assert_same(single, rows)
        _assert_same(invert_piecewise(single), _inverted(rows))
    assert flips == flipped


def _rows(t):
    """(cell, map, K, image) per cell of a built template."""
    return [(Triangle(*(Point(*v) for v in cell)), AffineMap(*m), K,
             Triangle(*(Point(*v) for v in image)))
            for cell, m, K, image in zip(t.cells.tolist(), t.maps.tolist(),
                                         t.dilatations.tolist(),
                                         t.images.tolist())]


def _assert_half_turn(t, right):
    """t is the exact half-turn of `right`: cells, images and translations
    negated, the linear parts, dilatations and areas shared."""
    for name, got, want in [
            ("cells", t.cells, -right.cells),
            ("images", t.images, -right.images),
            ("linear", t.maps[:, :4], right.maps[:, :4]),
            ("translations", t.maps[:, 4:], -right.maps[:, 4:]),
            ("dilatations", t.dilatations, right.dilatations),
            ("domain_areas", t.domain_areas, right.domain_areas),
            ("image_areas", t.image_areas, right.image_areas)]:
        assert np.array_equal(_bits(got), _bits(want)), name


def test_theoremB_templates_match_the_scalar_path():
    m, sqrt = theoremB_homeo(DEPTH), make_gauge("sqrt")
    for k, (lv, lvi) in enumerate(zip(m.levels, invert(m).levels), 1):
        a = (1.0 - gauge_d(sqrt, k) / gauge_d(sqrt, k - 1)) / 4.0
        right = _twist(a)
        single = twist_extension(a)
        _assert_same(single, right)
        _assert_same(lv.templates[0], right)
        _assert_same(lvi.templates[0], _inverted(right))
        left = lv.templates[1]
        assert left.domain_kind == "composite"
        _assert_half_turn(left, single)
        _assert_same(lvi.templates[1], _inverted(_rows(left)))


def _error(build, *args):
    with pytest.raises(QCForgeError) as info:
        build(*args)
    return type(info.value), str(info.value)


def _standard_levels(g, h, n):
    """The scalar path level by level, as standard_homeo orders it."""
    for k in range(1, n + 1):
        _annulus((1.0 - gauge_d(g, k) / gauge_d(g, k - 1)) / 2.0,
                 (1.0 - gauge_d(h, k) / gauge_d(h, k - 1)) / 2.0)


def test_errors_match_the_scalar_path():
    flat = 0.4999999999999999
    want = _error(_annulus, 0.1, flat)
    assert want[0] is GeometryError and "determinant" in want[1]
    assert _error(annulus_extension_any, 0.1, flat) == want
    assert _error(annulus_templates, [0.1], [flat]) == want
    # the first failing level decides, whatever fails at later levels
    assert _error(annulus_templates, [0.2, 0.1, 0.7],
                  [0.3, flat, 0.2]) == want
    assert _error(annulus_templates, [0.7, 0.1], [0.2, flat]) == \
        _error(_annulus, 0.7, 0.2)
    # degenerate at every level of slow -> geometric:50
    g, h = make_gauge("slow"), make_gauge("geometric", 50.0)
    want = _error(_standard_levels, g, h, 10)
    assert _error(standard_homeo, g, h, 10) == want
    # ... which comes before its gauge underflows at level 22
    assert gauge_d(h, 22) == 0.0 < gauge_d(h, 21)
    assert _error(standard_homeo, g, h, 30) == want
    want = _error(_twist, 0.25)
    assert want[0] is DomainError
    assert _error(twist_extension, 0.25) == want
    assert _error(twist_templates, [0.1, 0.25, 0.3]) == want


def test_gauge_underflow_names_the_gauge_and_level():
    fast = make_gauge("fast")
    assert gauge_d(fast, 203) == 0.0 < gauge_d(fast, 202)
    assert _error(standard_homeo, make_gauge("geometric", 1.0), fast,
                  205) == (DepthLimitError, "gauge fast underflows at "
                           "level 203: d_203 is 0 in floating point")
    standard_homeo(make_gauge("geometric", 1.0), fast, 202)


def _with_cell(t, name, i, update):
    """t with row i of its `name` array replaced by update(row)."""
    rows = getattr(t, name).copy()
    rows[i] = update(rows[i])
    return replace(t, **{name: rows})


def test_inversion_errors_match_the_scalar_path():
    good = twist_extension(0.1)
    # a flat image triangle, a negative determinant, and an infinite entry
    # whose determinant is -inf
    for bad, kind in [
            (_with_cell(good, "images", 5, lambda c: [c[0], c[1], c[1]]),
             GeometryError),
            (_with_cell(good, "maps", 9, lambda m: m[[2, 3, 0, 1, 4, 5]]),
             OrientationError),
            (_with_cell(good, "maps", 9, lambda m: [m[0], 1.0, np.inf,
                                                    *m[3:]]),
             GeometryError)]:
        want = _error(invert_piecewise, bad)
        assert want[0] is kind
        assert _error(invert_templates, _stack_of([[bad]])) == want
        assert _error(invert_templates,
                      _stack_of([[good], [bad], [good]])) == want
