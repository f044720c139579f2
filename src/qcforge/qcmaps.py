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
continuity, orientation, area coverage, and the declared boundary data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .errors import DomainError, GeometryError
from .geometry import AffineMap, Point, Triangle, _signed_area2, \
    affine_three_point, dilatation, invert_affine

__all__ = [
    "PiecewiseAffineMap",
    "ValidationReport",
    "annulus_extension",
    "twist_extension",
    "validate",
    "invert_piecewise",
    "conjugate",
]


@dataclass(frozen=True)
class PiecewiseAffineMap:
    """A triangulated region with one affine map per cell."""

    pieces: tuple[tuple[Triangle, AffineMap], ...]
    domain_kind: str  # "annulus", "twist", or "composite"
    params: tuple[tuple[str, float], ...] = ()
    # per-cell dilatations; carried through inversion so that the inverse
    # reports bitwise-identical K values
    cell_dilatations: tuple[float, ...] = field(default=(), repr=False)

    @property
    def max_dilatation(self) -> float:
        return max(self.cell_dilatations) if self.cell_dilatations else 1.0

    def param(self, name: str) -> float:
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)

    def image_triangle(self, i: int) -> Triangle:
        cell, m = self.pieces[i]
        return Triangle(*(m(v) for v in cell.vertices))

    @cached_property
    def bbox(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) of the domain."""
        xs = [v.x for cell, _ in self.pieces for v in cell.vertices]
        ys = [v.y for cell, _ in self.pieces for v in cell.vertices]
        return (min(xs), max(xs), min(ys), max(ys))

    def image_area(self) -> float:
        return sum(self.image_triangle(i).area for i in range(len(self.pieces)))

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
            "pieces": [
                {
                    "cell": [[v.x, v.y] for v in cell.vertices],
                    "map": [m.m11, m.m12, m.m21, m.m22, m.tx, m.ty],
                }
                for cell, m in self.pieces
            ],
        }


def _from_triangle_pairs(pairs, domain_kind, params) -> PiecewiseAffineMap:
    pieces = []
    dils = []
    for src, dst in pairs:
        m = affine_three_point(src, dst)
        pieces.append((src, m))
        dils.append(dilatation(m))
    return PiecewiseAffineMap(tuple(pieces), domain_kind, tuple(params),
                              tuple(dils))


def invert_piecewise(pmap: PiecewiseAffineMap) -> PiecewiseAffineMap:
    """Cell-wise affine inversion; per-cell dilatations are preserved."""
    pieces = []
    for i, (cell, m) in enumerate(pmap.pieces):
        pieces.append((pmap.image_triangle(i), invert_affine(m)))
    if pmap.domain_kind == "annulus":
        params = (("a", pmap.param("b")), ("b", pmap.param("a")))
        kind = "annulus"
    else:
        params = pmap.params
        kind = "composite"
    return PiecewiseAffineMap(tuple(pieces), kind, params,
                              pmap.cell_dilatations)


def _moved_pairs(pairs, similarity: Callable[[Point], Point]):
    """(cell, image) triangle pairs with both triangles moved by the
    similarity s, so that each pair's affine map becomes s o map o s^-1."""
    return [(Triangle(*map(similarity, src.vertices)),
             Triangle(*map(similarity, dst.vertices))) for src, dst in pairs]


def conjugate(pmap: PiecewiseAffineMap,
              similarity: Callable[[Point], Point]) -> PiecewiseAffineMap:
    """s o pmap o s^-1 for a similarity s: cells and their images both moved
    by s.  Dilatations are preserved."""
    pairs = [(cell, pmap.image_triangle(i))
             for i, (cell, _) in enumerate(pmap.pieces)]
    return _from_triangle_pairs(_moved_pairs(pairs, similarity), "composite",
                                pmap.params)


def _quad_pairs(src, dst):
    """Split matched quads (ccw vertex lists of 4) into two triangle pairs.

    Picks a diagonal for which all four triangles are strictly ccw; the
    quads may be non-convex, in which case only one diagonal works.
    """
    for a, b in (((0, 1, 2), (0, 2, 3)), ((0, 1, 3), (1, 2, 3))):
        ok = all(
            _signed_area2(q[i], q[j], q[k]) > 0
            for q in (src, dst)
            for i, j, k in (a, b)
        )
        if ok:
            return [
                (Triangle(src[a[0]], src[a[1]], src[a[2]]),
                 Triangle(dst[a[0]], dst[a[1]], dst[a[2]])),
                (Triangle(src[b[0]], src[b[1]], src[b[2]]),
                 Triangle(dst[b[0]], dst[b[1]], dst[b[2]])),
            ]
    raise GeometryError("no valid diagonal for matched quads")


def _annulus_pairs(outer_src, inner_src, outer_dst, inner_dst):
    """Spoke decomposition between two 4-gon annuli with matched corners."""
    pairs = []
    for k in range(4):
        k1 = (k + 1) % 4
        src = [outer_src[k], outer_src[k1], inner_src[k1], inner_src[k]]
        dst = [outer_dst[k], outer_dst[k1], inner_dst[k1], inner_dst[k]]
        pairs.extend(_quad_pairs(src, dst))
    return pairs


def _square_corners(cx: float, cy: float, side: float) -> list[Point]:
    h = side / 2.0
    return [Point(cx - h, cy - h), Point(cx + h, cy - h),
            Point(cx + h, cy + h), Point(cx - h, cy + h)]


def annulus_extension(a: float, b: float) -> PiecewiseAffineMap:
    """Piecewise-affine extension A_a -> A_b (0 < a <= b < 1/2).

    Identity on the outer unit-square boundary; the inner square of side
    1-2a is sent onto the inner square of side 1-2b by the central scaling.
    """
    if not (0 < a <= b < 0.5):
        raise DomainError(f"need 0 < a <= b < 1/2, got a={a}, b={b}")
    return _from_triangle_pairs(
        _annulus_pairs(
            _square_corners(0, 0, 1.0),
            _square_corners(0, 0, 1.0 - 2 * a),
            _square_corners(0, 0, 1.0),
            _square_corners(0, 0, 1.0 - 2 * b),
        ),
        "annulus", [("a", a), ("b", b)])


def annulus_extension_any(a: float, b: float) -> PiecewiseAffineMap:
    """Like annulus_extension but allowing a > b (built as the cell-wise
    inverse of the swapped-parameter extension)."""
    if not (0 < a < 0.5 and 0 < b < 0.5):
        raise DomainError(f"need a, b in (0, 1/2), got a={a}, b={b}")
    if a <= b:
        return annulus_extension(a, b)
    return invert_piecewise(annulus_extension(b, a))


# twist geometry constants (domain side)
_TWIST_RECT = (0.0, 0.5, -0.5, 0.5)   # x0, x1, y0, y1
_TWIST_HOLE_SIDE = 0.125
_TWIST_HOLE_CENTERS = ((0.125, 0.0), (0.375, 0.0))
# intermediate box around both holes in the domain; proportions chosen to
# roughly minimize the worst dilatation constant over a in (0, 1/5)
_G_X0, _G_X1, _G_H = 1.0 / 24, 11.0 / 24, 3.0 / 16


def _rot_half(p: Point) -> Point:
    """Rotation by pi about (1/4, 0); symmetry of both twist regions."""
    return Point(0.5 - p.x, -p.y)


def twist_extension(a: float) -> PiecewiseAffineMap:
    """Piecewise-affine twist A -> B for 0 < a < 1/5.

    The left hole boundary goes to the top hole, the right one to the
    bottom hole, both by axis-respecting affine maps; identity on the
    rectangle boundary.
    """
    if not (0 < a < 0.2):
        raise DomainError(f"need 0 < a < 1/5, got a={a}")

    # rectangle corners (ccw)
    P = [Point(0.0, -0.5), Point(0.5, -0.5), Point(0.5, 0.5), Point(0.0, 0.5)]
    # domain intermediate box corners (ccw from bottom-left)
    A = [Point(_G_X0, -_G_H), Point(_G_X1, -_G_H),
         Point(_G_X1, _G_H), Point(_G_X0, _G_H)]
    # image intermediate box: inflate the holes' bounding box by a/2
    p0, p1 = a / 2.0, 0.5 - a / 2.0
    q0, q1 = -0.5 + a / 2.0, 0.5 - a / 2.0
    B = [Point(p0, q0), Point(p1, q0), Point(p1, q1), Point(p0, q1)]
    # quarter-turn (clockwise) corner correspondence: A_k -> B_{k-1}
    Bshift = [B[3], B[0], B[1], B[2]]

    pairs = _annulus_pairs(P, A, P, Bshift)

    # left pants leg: [g0, 1/4] x [-h, h] minus the left hole, onto the top
    # half of the image box minus the top hole
    cut_b, cut_t = Point(0.25, -_G_H), Point(0.25, _G_H)
    leg_outer_src = [A[0], cut_b, cut_t, A[3]]
    leg_outer_dst = [B[3], Point(p0, 0.0), Point(p1, 0.0), B[2]]
    hole_src = _square_corners(0.125, 0.0, _TWIST_HOLE_SIDE)
    hole_dst = _square_corners(0.25, 0.25, 0.5 - 2 * a)
    left_pairs = _annulus_pairs(leg_outer_src, hole_src,
                                leg_outer_dst, hole_dst)
    pairs.extend(left_pairs)

    # right leg: conjugate by the half-turn about (1/4, 0)
    pairs.extend(_moved_pairs(left_pairs, _rot_half))

    return _from_triangle_pairs(pairs, "twist", [("a", a)])


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


def _boundary_ok_annulus(pmap: PiecewiseAffineMap, tol: float) -> bool:
    a = pmap.param("a")
    b = pmap.param("b")
    ratio = (0.5 - b) / (0.5 - a)
    for cell, m in pmap.pieces:
        for v in cell.vertices:
            cheb = max(abs(v.x), abs(v.y))
            w = m(v)
            if abs(cheb - 0.5) <= tol:
                if w.dist(v) > tol:
                    return False
            elif abs(cheb - (0.5 - a)) <= tol:
                if w.dist(v.scale(ratio)) > tol:
                    return False
    return True


def _boundary_ok_twist(pmap: PiecewiseAffineMap, tol: float) -> bool:
    a = pmap.param("a")
    scale = (0.5 - 2 * a) / _TWIST_HOLE_SIDE
    hole_maps = []
    for (hx, hy), (ix, iy) in zip(_TWIST_HOLE_CENTERS,
                                  ((0.25, 0.25), (0.25, -0.25))):
        hole_maps.append(((hx, hy), (ix, iy)))
    for cell, m in pmap.pieces:
        for v in cell.vertices:
            w = m(v)
            on_rect = (abs(v.x) <= tol or abs(v.x - 0.5) <= tol
                       or abs(abs(v.y) - 0.5) <= tol)
            if on_rect:
                if w.dist(v) > tol:
                    return False
                continue
            for (hx, hy), (ix, iy) in hole_maps:
                if max(abs(v.x - hx), abs(v.y - hy)) <= _TWIST_HOLE_SIDE / 2 + tol:
                    expect = Point(ix + (v.x - hx) * scale, iy + (v.y - hy) * scale)
                    if w.dist(expect) > tol:
                        return False
    return True


def validate(pmap: PiecewiseAffineMap, target_area: float,
             tol: float = 1e-9) -> ValidationReport:
    """Homeomorphism checks: edge continuity, orientation, area coverage,
    and declared boundary data."""
    # group cell edges by exact endpoint coordinates
    edges: dict[frozenset, list[tuple[int, Point, Point]]] = {}
    for i, (cell, m) in enumerate(pmap.pieces):
        vs = cell.vertices
        for u, v in ((vs[0], vs[1]), (vs[1], vs[2]), (vs[2], vs[0])):
            key = frozenset(((u.x, u.y), (v.x, v.y)))
            edges.setdefault(key, []).append((i, u, v))
    continuous = True
    for key, owners in edges.items():
        if len(owners) < 2:
            continue
        i0, u, v = owners[0]
        m0 = pmap.pieces[i0][1]
        iu, iv = m0(u), m0(v)
        for i, _, _ in owners[1:]:
            m = pmap.pieces[i][1]
            if m(u).dist(iu) > tol or m(v).dist(iv) > tol:
                continuous = False

    oriented = all(m.det > 0 for _, m in pmap.pieces)

    defect = abs(pmap.image_area() - target_area)

    if pmap.domain_kind == "annulus":
        boundary_ok = _boundary_ok_annulus(pmap, tol)
    elif pmap.domain_kind == "twist":
        boundary_ok = _boundary_ok_twist(pmap, tol)
    else:
        boundary_ok = True

    return ValidationReport(continuous, oriented, defect, boundary_ok)
