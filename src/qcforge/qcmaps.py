"""Piecewise-affine extensions between square annuli and twist regions.

Two constructions:

* `annulus_extension(a, b)`: between the square annuli with outer side 1 and
  inner sides 1-2a resp. 1-2b, identity on the outer boundary, central
  scaling on the inner one.  Cells: each outer corner is joined to the
  matching inner corner and the four trapezoids are split by a diagonal
  (8 triangles).  The max dilatation is comparable to b(1-2a)/(a(1-2b)).

* `twist_extension(a)`: between the triply-connected regions
  A = ([0,1/2] x [-1/2,1/2]) minus two side-by-side holes of side 1/8 at
  (1/8, 0) and (3/8, 0), and B = the same rectangle minus two stacked holes
  of side 1/2-2a at (1/4, +-1/4).  Identity on the rectangle boundary; the
  left hole goes to the top hole and the right one to the bottom hole by an
  axis-respecting affine map.  The decomposition is a collar around an
  intermediate box (carrying a quarter-turn) plus two "pants legs", one per
  hole, each an 8-triangle annulus whose spokes wrap a quarter turn.  Max
  dilatation is comparable to 1/a.

Both constructions return a `PiecewiseAffineMap`; `validate` checks edge
continuity, orientation, area coverage, and the declared boundary data in
one pass over its arrays.

A map keeps its templates as one `TemplateStack`: the arrays of a
`PiecewiseAffineMap` with two leading axes, (level, template).
`annulus_templates`, `twist_templates` and `invert_templates` build or
invert a whole stack in one numpy pass and make no per-template object;
`TemplateStack.template` gives one template as a `PiecewiseAffineMap` of
views, on demand.  The single-template builders solve cell by cell with the
scalar kernels of `geometry`, the reference those passes match bit for bit.
(Theorem B's half-turned twist is not solved at all: `homeo` negates the
solved one, which is exact.)  Only the single-template builders know
template errors: a stack with a row that the scalar kernels would reject is
built again row by row with them, which raises the first error a
level-by-level build meets.

Point location reads the stack alone: `TemplateStack.locator(k, j)` makes a
template's flat edge and map rows on first call, and `find` tests the at
most 24 cells of a locator in order and gives the first that holds a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, GeometryError
from .geometry import AffineMap, Point, Triangle, affine_three_point, \
    dilatation, invert_affine

__all__ = [
    "PiecewiseAffineMap",
    "TemplateStack",
    "ValidationReport",
    "annulus_extension",
    "annulus_extension_any",
    "twist_extension",
    "validate",
    "invert_piecewise",
    "annulus_templates",
    "twist_templates",
    "invert_templates",
]


@dataclass(frozen=True, eq=False)
class PiecewiseAffineMap:
    """A triangulated region with one affine map per cell.

    `cells` and `images` are (n, 3, 2) arrays of ccw triangles, `maps` the
    (n, 6) rows (m11, m12, m21, m22, tx, ty).  Dilatations and both areas
    are computed once, when the map is built; an inverse carries its
    dilatations over, so that it reports bitwise-identical K values.

    `validate` reads the arrays.  `pieces` holds the same cells and maps as
    `Triangle` and `AffineMap` objects; only `locate` and `apply` read it,
    the reference that `find` on a `TemplateStack.locator` is tested
    against.
    """

    cells: np.ndarray
    maps: np.ndarray
    dilatations: np.ndarray
    images: np.ndarray
    domain_areas: np.ndarray
    image_areas: np.ndarray
    domain_kind: str  # "annulus", "twist", or "composite"
    params: tuple[tuple[str, float], ...] = ()

    @property
    def max_dilatation(self) -> float:
        return float(self.dilatations.max()) if len(self.cells) else 1.0

    @cached_property
    def pieces(self) -> tuple[tuple[Triangle, AffineMap], ...]:
        """(cell, map) pairs as geometry objects, built on first use."""
        return tuple((Triangle(*(Point(x, y) for x, y in cell)), AffineMap(*m))
                     for cell, m in zip(self.cells.tolist(),
                                        self.maps.tolist()))

    def param(self, name: str) -> float:
        return dict(self.params)[name]

    def locate(self, p: Point, tol: float = 1e-12) -> int:
        """Index of a cell containing p (first match); -1 if none."""
        for i, (cell, _) in enumerate(self.pieces):
            if cell.contains(p, tol):
                return i
        return -1

    def apply(self, p: Point, tol: float = 1e-12) -> Point:
        i = self.locate(p, tol)
        if i < 0:
            raise DomainError(f"point ({p.x}, {p.y}) is outside the domain")
        return self.pieces[i][1](p)

    def to_json_obj(self) -> dict:
        kind = self.domain_kind
        if self.params:
            kind += "(" + ",".join(f"{k}={v:g}" for k, v in self.params) + ")"
        return {
            "domain_kind": kind,
            "pieces": [{"cell": cell, "map": m} for cell, m in
                       zip(self.cells.tolist(), self.maps.tolist())],
        }


# the array fields of a template, in `PiecewiseAffineMap`'s order
_ARRAYS = ("cells", "maps", "dilatations", "images", "domain_areas",
           "image_areas")


@dataclass(frozen=True, eq=False)
class TemplateStack:
    """The templates of a map's levels, as `PiecewiseAffineMap` arrays with
    leading axes (level, template): `cells` and `images` (L, T, n, 3, 2),
    `maps` (L, T, n, 6), the rest (L, T, n).  Template j of every level has
    kind `kinds[j]`; the templates of level index k share the parameters
    `params[k]`, named by `names`."""

    cells: np.ndarray
    maps: np.ndarray
    dilatations: np.ndarray
    images: np.ndarray
    domain_areas: np.ndarray
    image_areas: np.ndarray
    kinds: tuple[str, ...]
    names: tuple[str, ...]
    params: np.ndarray  # (L, len(names))

    def truncate(self, n: int) -> "TemplateStack":
        """The first n levels."""
        return replace(self, params=self.params[:n],
                       **{f: getattr(self, f)[:n] for f in _ARRAYS})

    def param(self, name: str) -> np.ndarray:
        """One parameter, per level."""
        return self.params[:, self.names.index(name)]

    def template(self, k: int, j: int) -> PiecewiseAffineMap:
        """Template j of level index k, on views of the arrays."""
        return PiecewiseAffineMap(
            *(getattr(self, f)[k, j] for f in _ARRAYS), self.kinds[j],
            tuple(zip(self.names, self.params[k].tolist())))

    @cached_property
    def _locators(self) -> dict:
        """`locator` per (level index, template index)."""
        return {}

    def locator(self, k: int, j: int) -> tuple:
        """What `find` reads of template j of level index k, made on first
        call: (edge rows, map rows).  The edge rows are `_edge_rows` of the
        cells, shared with level index 0 where the cells have the same bits
        (as on every level of the theorem B map), the map rows one (m11,
        m12, m21, m22, tx, ty) per cell."""
        loc = self._locators.get((k, j))
        if loc is None:
            cells = self.cells[k, j]
            same = k and cells.tobytes() == self.cells[0, j].tobytes()
            loc = self._locators[k, j] = (
                self.locator(0, j)[0] if same else _edge_rows(cells),
                tuple(map(tuple, self.maps[k, j].tolist())))
        return loc


# -- point location -----------------------------------------------------------

# the widening of `find`'s edge tests, as `Triangle.contains`' tol
_FIND_TOL = 1e-9


def _edge_rows(cells: np.ndarray) -> tuple[tuple[float, ...], ...]:
    """One row per (n, 3, 2) cell: its edges v1v2, v2v3, v3v1, its
    vertices in `pieces`' order, as ax, ay, bx - ax, by - ay and the
    edge's widening -_FIND_TOL * max(1.0, |b - a|) each: the bound that
    `Triangle.contains` forms per test, made here once per locator.
    Equal nonzero floats are one object: the cells share most of their
    vertices and edges (a zero keeps its own object, as the signs of zeros
    differ)."""
    same = {}
    rows = []
    for p, q, r in _oriented(cells)[0].tolist():
        row = []
        for (ax, ay), (bx, by) in ((p, q), (q, r), (r, p)):
            row += (ax, ay, bx - ax, by - ay,
                    -_FIND_TOL * max(1.0, math.hypot(ax - bx, ay - by)))
        rows.append(tuple([same.setdefault(v, v) if v else v for v in row]))
    return tuple(rows)


def find(locator: tuple, x: float, y: float) -> int:
    """`locate(Point(x, y), _FIND_TOL)` on a `TemplateStack.locator`, for a
    point: the first cell whose closed triangle, widened by `_FIND_TOL` on
    each edge, holds (x, y); -1 if none.

    The cells are tested in index order, each edge with `Triangle.contains`'
    expression against the widening its edge row holds, the same product
    `Triangle.contains` forms, so the index is the same."""
    for i, (ax, ay, ux, uy, lu, bx, by, vx, vy, lv, cx, cy, wx, wy,
            lw) in enumerate(locator[0]):
        if (ux * (y - ay) - uy * (x - ax) < lu
                or vx * (y - by) - vy * (x - bx) < lv
                or wx * (y - cy) - wy * (x - cx) < lw):
            continue
        return i
    return -1


# -- array kernels -----------------------------------------------------------
# Each repeats the operation order of its scalar counterpart in `geometry`,
# so that both give the same bits.

def _signed_area2(t: np.ndarray) -> np.ndarray:
    """Twice the signed areas of (..., 3, 2) triangles."""
    a, b, c = t[..., 0, :], t[..., 1, :], t[..., 2, :]
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (c[..., 0] - a[..., 0]) * (b[..., 1] - a[..., 1]))


def _oriented(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triangles stored as `Triangle` stores them, the last two vertices
    swapped where the input is clockwise, and twice their signed areas: a
    swap negates an area exactly, and -0.0 stays (`abs` would drop it).
    Without a clockwise triangle, the usual case (a valid template's cells
    and images are ccw), both are returned as they are, uncopied."""
    s = _signed_area2(t)
    cw = s < 0
    if not cw.any():
        return t, s
    return np.where(cw[..., None, None], t[..., [0, 2, 1], :], t), \
        np.where(cw, -s, s)


def _apply(maps: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(..., n, 6) maps applied to their (..., n, 3, 2) vertices."""
    m = [maps[..., None, j] for j in range(6)]
    x, y = pts[..., 0], pts[..., 1]
    return np.stack([m[0] * x + m[1] * y + m[4],
                     m[2] * x + m[3] * y + m[5]], axis=-1)


def _solve(src: np.ndarray, dst: np.ndarray):
    """The affine maps sending each src triangle to its dst triangle, their
    dilatations, and where `affine_three_point` and `dilatation` accept the
    cell: finite entries, a positive determinant, a finite dilatation."""
    a, b, c = src[..., 0, :], src[..., 1, :], src[..., 2, :]
    u, v, w = dst[..., 0, :], dst[..., 1, :], dst[..., 2, :]
    e1x, e1y = b[..., 0] - a[..., 0], b[..., 1] - a[..., 1]
    e2x, e2y = c[..., 0] - a[..., 0], c[..., 1] - a[..., 1]
    f1x, f1y = v[..., 0] - u[..., 0], v[..., 1] - u[..., 1]
    f2x, f2y = w[..., 0] - u[..., 0], w[..., 1] - u[..., 1]
    d = e1x * e2y - e2x * e1y
    m11 = (f1x * e2y - f2x * e1y) / d
    m12 = (f2x * e1x - f1x * e2x) / d
    m21 = (f1y * e2y - f2y * e1y) / d
    m22 = (f2y * e1x - f1y * e2x) / d
    tx = u[..., 0] - (m11 * a[..., 0] + m12 * a[..., 1])
    ty = u[..., 1] - (m21 * a[..., 0] + m22 * a[..., 1])
    maps = np.stack([m11, m12, m21, m22, tx, ty], axis=-1)
    det = m11 * m22 - m12 * m21
    p = np.hypot((m11 + m22) / 2.0, (m21 - m12) / 2.0)
    q = np.hypot((m11 - m22) / 2.0, (m21 + m12) / 2.0)
    ok = np.isfinite(maps).all(axis=-1) & (det > 0) & (p > q)
    return maps, (p + q) / (p - q), ok


def _invert(maps: np.ndarray, image_area2: np.ndarray):
    """Inverse maps, and where `invert_piecewise` accepts the cell: a
    nonzero image area, finite entries both ways, a positive determinant."""
    m11, m12, m21, m22, tx, ty = (maps[..., j] for j in range(6))
    d = m11 * m22 - m12 * m21
    n11, n12, n21, n22 = m22 / d, -m12 / d, -m21 / d, m11 / d
    inv = np.stack([n11, n12, n21, n22, -(n11 * tx + n12 * ty),
                    -(n21 * tx + n22 * ty)], axis=-1)
    ok = ((image_area2 != 0.0) & (d > 0)
          & np.isfinite(maps).all(axis=-1) & np.isfinite(inv).all(axis=-1))
    return inv, ok


def _stack(cells, maps, dils, kinds, names, params,
           oriented=None) -> TemplateStack:
    """A stack from its (L, T, n, ...) cells, maps and dilatations, with its
    images and areas (`_oriented` of the images, if the caller has it)."""
    images, area2 = oriented or _oriented(_apply(maps, cells))
    return TemplateStack(cells, maps, dils, images, 0.5 * _signed_area2(cells),
                         0.5 * area2, kinds, names, params)


def _single(cells, maps, dils, kind, names, values) -> PiecewiseAffineMap:
    """One template from its (n, ...) cells, maps and dilatations."""
    return _stack(cells[None, None], maps[None, None], dils[None, None],
                  (kind,), names, np.array([values], float)).template(0, 0)


def _stack_of(levels: Sequence[Sequence[PiecewiseAffineMap]]
              ) -> TemplateStack:
    """Per-level lists of built templates as a stack: the templates in one
    position share a kind, those of one level their parameters."""
    return TemplateStack(
        *(np.array([[getattr(t, f) for t in lv] for lv in levels])
          for f in _ARRAYS), tuple(t.domain_kind for t in levels[0]),
        tuple(k for k, _ in levels[0][0].params),
        np.array([[v for _, v in lv[0].params] for lv in levels]))


def _from_cells(src: np.ndarray, dst: np.ndarray, domain_kind: str,
                names, values) -> PiecewiseAffineMap:
    """One template from matched (n, 3, 2) cells, solved cell by cell with
    the scalar kernels."""
    maps, dils = [], []
    for s, d in zip(src.tolist(), dst.tolist()):
        m = affine_three_point(Triangle(*(Point(*v) for v in s)),
                               Triangle(*(Point(*v) for v in d)))
        maps.append((m.m11, m.m12, m.m21, m.m22, m.tx, m.ty))
        dils.append(dilatation(m))
    return _single(src, np.array(maps), np.array(dils), domain_kind, names,
                   values)


# -- cell geometry, batched over levels ---------------------------------------

# quad k of a ring pair joins outer corners k, k+1 to inner corners k+1, k
# (outer corners are ring vertices 0-3, inner ones 4-7)
_QUADS = [[k, (k + 1) % 4, 4 + (k + 1) % 4, 4 + k] for k in range(4)]
# the two diagonal splits of a quad, in the order they are tried
_SPLITS = [[[0, 1, 2], [0, 2, 3]], [[0, 1, 3], [1, 2, 3]]]
_CORNER_SIGNS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def _square_corners(cx: float, cy: float, side) -> np.ndarray:
    """(..., 4, 2) ccw corners of squares about one center, from their
    sides: the center plus or minus half the side, as c + (-h) = c - h."""
    h = np.asarray(side) / 2.0
    return (cx, cy) + h[..., None, None] * _CORNER_SIGNS


def _annulus_cells(outer_src, inner_src, outer_dst, inner_dst):
    """Spoke decomposition between 4-gon annuli with matched ccw corners,
    each (L, 4, 2): matched cells (L, 8, 3, 2), and the rows (L,) with a
    quad where no diagonal keeps all four triangles ccw."""
    tris, ok = [], True
    for outer, inner in ((outer_src, inner_src), (outer_dst, inner_dst)):
        t = np.concatenate([outer, inner], axis=-2)[:, _QUADS][:, :, _SPLITS]
        tris.append(t)  # (L, quad, split, triangle, vertex, xy)
        ok = ok & (_signed_area2(t) > 0).all(axis=-1)
    first = ok[..., 0, None, None, None]
    src, dst = (np.where(first, t[:, :, 0], t[:, :, 1]).reshape(-1, 8, 3, 2)
                for t in tris)
    return src, dst, ~ok.any(axis=-1).all(axis=-1)


def _annulus_geometry(a: np.ndarray, b: np.ndarray):
    """Cells of the annulus templates A_a -> A_b, one per row of a and b."""
    outer = np.broadcast_to(_square_corners(0.0, 0.0, 1.0), (len(a), 4, 2))
    return _annulus_cells(outer, _square_corners(0.0, 0.0, 1.0 - 2 * a),
                          outer, _square_corners(0.0, 0.0, 1.0 - 2 * b))


def annulus_extension(a: float, b: float) -> PiecewiseAffineMap:
    """Piecewise-affine extension A_a -> A_b (0 < a <= b < 1/2).

    Identity on the outer unit-square boundary; the inner square of side
    1-2a is sent onto the inner square of side 1-2b by the central scaling.
    """
    if not (0 < a <= b < 0.5):
        raise DomainError(f"need 0 < a <= b < 1/2, got a={a}, b={b}")
    src, dst, no_diagonal = _annulus_geometry(np.array([a]), np.array([b]))
    if no_diagonal[0]:
        raise GeometryError("no valid diagonal for matched quads")
    return _from_cells(src[0], dst[0], "annulus", ("a", "b"), (a, b))


def annulus_extension_any(a: float, b: float) -> PiecewiseAffineMap:
    """Like annulus_extension but allowing a > b (built as the cell-wise
    inverse of the swapped-parameter extension)."""
    if not (0 < a < 0.5 and 0 < b < 0.5):
        raise DomainError(f"need a, b in (0, 1/2), got a={a}, b={b}")
    if a <= b:
        return annulus_extension(a, b)
    return invert_piecewise(annulus_extension(b, a))


def annulus_templates(alpha, beta) -> TemplateStack:
    """`annulus_extension_any(alpha[i], beta[i])` as level i of a
    one-template stack, in one pass: rows with alpha > beta are built
    swapped and inverted under a mask."""
    alpha, beta = np.asarray(alpha, float), np.asarray(beta, float)
    with np.errstate(all="ignore"):
        src, dst, no_diagonal = _annulus_geometry(np.minimum(alpha, beta),
                                                  np.maximum(alpha, beta))
        maps, dils, ok = _solve(src, dst)
        images, area2 = _oriented(_apply(maps, src))
        inv, inv_ok = _invert(maps, area2)
    flip = alpha > beta
    if not ((0 < alpha) & (alpha < 0.5) & (0 < beta) & (beta < 0.5)
            & ~no_diagonal & (ok & (inv_ok | ~flip[:, None])).all(axis=-1)
            ).all():
        return _stack_of([[annulus_extension_any(x, y)]
                          for x, y in zip(alpha.tolist(), beta.tolist())])
    f = flip[:, None]
    cells = np.where(f[..., None, None], images, src)[:, None]
    maps = np.where(f[..., None], inv, maps)[:, None]
    # a swapped row's images are its inverse's, not these
    oriented = None if flip.any() else (images[:, None], area2[:, None])
    return _stack(cells, maps, dils[:, None], ("annulus",), ("a", "b"),
                  np.stack([alpha, beta], axis=1), oriented)


# twist geometry constants (domain side)
_TWIST_HOLE_SIDE = 0.125
_TWIST_HOLE_CENTERS = ((0.125, 0.0), (0.375, 0.0))
# intermediate box around both holes in the domain; proportions chosen to
# roughly minimize the worst dilatation constant over a in (0, 1/5)
_G_X0, _G_X1, _G_H = 1.0 / 24, 11.0 / 24, 3.0 / 16


def _twist_geometry(a: np.ndarray):
    """Cells (L, 24, 3, 2) of the twist templates, one per row of a, and the
    rows with a quad without a valid diagonal, resp. a flat turned cell."""
    def ring(*corners):  # (L, 4, 2) from four (x, y) pairs of scalars/rows
        xy = np.empty((len(a), 8))
        for i, v in enumerate(v for corner in corners for v in corner):
            xy[:, i] = v
        return xy.reshape(-1, 4, 2)

    # rectangle corners and the domain intermediate box (ccw)
    P = ring((0.0, -0.5), (0.5, -0.5), (0.5, 0.5), (0.0, 0.5))
    A = ring((_G_X0, -_G_H), (_G_X1, -_G_H), (_G_X1, _G_H), (_G_X0, _G_H))
    # image intermediate box: the holes' bounding box inflated by a/2,
    # its corners taken a quarter turn on (A_k -> B_{k-1})
    p0, p1 = a / 2.0, 0.5 - a / 2.0
    q0, q1 = -0.5 + a / 2.0, 0.5 - a / 2.0
    Bshift = ring((p0, q1), (p0, q0), (p1, q0), (p1, q1))
    outer_src, outer_dst, no_outer = _annulus_cells(P, A, P, Bshift)
    # left pants leg: [g0, 1/4] x [-h, h] minus the left hole, onto the top
    # half of the image box minus the top hole
    leg_src = ring((_G_X0, -_G_H), (0.25, -_G_H), (0.25, _G_H), (_G_X0, _G_H))
    leg_dst = ring((p0, q1), (p0, 0.0), (p1, 0.0), (p1, q1))
    hole_src = ring(*_square_corners(0.125, 0.0, _TWIST_HOLE_SIDE))
    hole_dst = _square_corners(0.25, 0.25, 0.5 - 2 * a)
    left_src, left_dst, no_leg = _annulus_cells(leg_src, hole_src,
                                                leg_dst, hole_dst)
    # right leg: the left one turned by pi about (1/4, 0)
    moved = [np.stack([0.5 - t[..., 0], -t[..., 1]], axis=-1)
             for t in (left_src, left_dst)]
    flat = (_signed_area2(moved[0]) == 0) | (_signed_area2(moved[1]) == 0)
    src = np.concatenate([outer_src, left_src, _oriented(moved[0])[0]], axis=1)
    dst = np.concatenate([outer_dst, left_dst, _oriented(moved[1])[0]], axis=1)
    return src, dst, no_outer | no_leg, flat.any(axis=-1)


def twist_extension(a: float) -> PiecewiseAffineMap:
    """Piecewise-affine twist A -> B for 0 < a < 1/5.

    The left hole boundary goes to the top hole, the right one to the
    bottom hole, both by axis-respecting affine maps; identity on the
    rectangle boundary.
    """
    if not (0 < a < 0.2):
        raise DomainError(f"need 0 < a < 1/5, got a={a}")
    src, dst, no_diagonal, flat = _twist_geometry(np.array([a]))
    if no_diagonal[0]:
        raise GeometryError("no valid diagonal for matched quads")
    if flat[0]:
        raise GeometryError("degenerate (collinear) triangle")
    return _from_cells(src[0], dst[0], "twist", ("a",), (a,))


def twist_templates(a) -> TemplateStack:
    """`twist_extension(a[i])` as level i of a one-template stack, in one
    pass."""
    a = np.asarray(a, float)
    with np.errstate(all="ignore"):
        src, dst, no_diagonal, flat = _twist_geometry(a)
        maps, dils, ok = _solve(src, dst)
    if not ((0 < a) & (a < 0.2) & ~no_diagonal & ~flat
            & ok.all(axis=-1)).all():
        return _stack_of([[twist_extension(x)] for x in a.tolist()])
    return _stack(src[:, None], maps[:, None], dils[:, None], ("twist",),
                  ("a",), a[:, None])


def _inverse_kind(kind: str, names: tuple[str, ...], params):
    """Kind, parameter names and parameters of an inverse: an annulus
    A_a -> A_b inverts to A_b -> A_a, anything else to a composite."""
    if kind == "annulus":
        return "annulus", names, params[..., ::-1]
    return "composite", names, params


def invert_piecewise(pmap: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """Cell-wise affine inversion, cell by cell with the scalar kernel;
    per-cell dilatations are preserved."""
    flat = _signed_area2(pmap.images) == 0.0
    inv = []
    for i, m in enumerate(pmap.maps.tolist()):
        if flat[i]:
            raise GeometryError("degenerate (collinear) triangle")
        n = invert_affine(AffineMap(*m))
        inv.append((n.m11, n.m12, n.m21, n.m22, n.tx, n.ty))
    kind, names, values = _inverse_kind(
        pmap.domain_kind, tuple(k for k, _ in pmap.params),
        np.array([v for _, v in pmap.params], float))
    return _single(pmap.images, np.array(inv), pmap.dilatations, kind, names,
                   values)


def invert_templates(stack: TemplateStack) -> TemplateStack:
    """`invert_piecewise` of every template of a stack, in one pass; the
    inverse keeps the stack's shape."""
    with np.errstate(all="ignore"):
        inv, ok = _invert(stack.maps, _signed_area2(stack.images))
    if not ok.all():
        return _stack_of([[invert_piecewise(stack.template(k, j))
                           for j in range(len(stack.kinds))]
                          for k in range(len(stack.cells))])
    kinds = [_inverse_kind(k, stack.names, stack.params) for k in stack.kinds]
    return _stack(stack.images, inv, stack.dilatations,
                  tuple(k for k, _, _ in kinds), stack.names, kinds[0][2])


@dataclass(frozen=True)
class ValidationReport:
    continuous: bool
    oriented: bool
    surjective_area_defect: float
    boundary_ok: bool

    @property
    def ok(self) -> bool:
        return (self.continuous and self.oriented and self.boundary_ok
                and self.surjective_area_defect <= 1e-9)


def validate(pmap: PiecewiseAffineMap, target_area: float,
             tol: float = 1e-9) -> ValidationReport:
    """Homeomorphism checks: edge continuity, orientation, area coverage,
    and declared boundary data, on the vertices in `pieces`' order."""
    cells = _oriented(pmap.cells)[0]
    # continuity: edges v1v2, v2v3, v3v1 grouped by their endpoints in
    # lexicographic order; every later owner of an edge must map the first
    # owner's endpoints where the first owner does
    ends = np.stack([cells, np.roll(cells, -1, axis=1)], axis=2)
    ends = ends.reshape(-1, 2, 2)
    (ax, ay), (bx, by) = ends[:, 0].T, ends[:, 1].T
    flip = (bx < ax) | ((bx == ax) & (by < ay))
    keys = np.where(flip[:, None, None], ends[:, ::-1], ends).reshape(-1, 4)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.ones(len(keys), bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    owner = order[np.flatnonzero(first)[np.cumsum(first) - 1]]
    pts = ends[owner]
    gap = (_apply(pmap.maps[order // 3], pts)
           - _apply(pmap.maps[owner // 3], pts))[~first]
    continuous = not (np.hypot(gap[..., 0], gap[..., 1]) > tol).any()

    m11, m12, m21, m22 = pmap.maps[:, :4].T
    oriented = bool((m11 * m22 - m12 * m21 > 0).all())

    defect = abs(sum(pmap.image_areas.tolist()) - target_area)

    # boundary data: (vertices held, their declared images), where a
    # vertex held by an earlier entry is not held by a later one
    x, y = cells.reshape(-1, 2).T
    wx, wy = _apply(pmap.maps, cells).reshape(-1, 2).T
    held = []
    if pmap.domain_kind == "annulus":
        a = pmap.param("a")
        ratio = (0.5 - pmap.param("b")) / (0.5 - a)
        cheb = np.maximum(abs(x), abs(y))
        # an inner square closer than tol to the outer one stays inner
        outer = abs(cheb - 0.5) <= min(tol, a / 2)
        held = [(outer, x, y), (~outer & (abs(cheb - (0.5 - a)) <= tol),
                                x * ratio, y * ratio)]
    elif pmap.domain_kind == "twist":
        scale = (0.5 - 2 * pmap.param("a")) / _TWIST_HOLE_SIDE
        rect = ((abs(x) <= tol) | (abs(x - 0.5) <= tol)
                | (abs(abs(y) - 0.5) <= tol))
        held = [(rect, x, y)] + [
            (~rect & (np.maximum(abs(x - hx), abs(y - hy))
                      <= _TWIST_HOLE_SIDE / 2 + tol),
             ix + (x - hx) * scale, iy + (y - hy) * scale)
            for (hx, hy), (ix, iy) in zip(_TWIST_HOLE_CENTERS,
                                          ((0.25, 0.25), (0.25, -0.25)))]
    boundary_ok = not any((mask & (np.hypot(wx - ex, wy - ey) > tol)).any()
                          for mask, ex, ey in held)

    return ValidationReport(continuous, oriented, defect, boundary_ok)
