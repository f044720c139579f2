"""Planar affine maps, triangles, and dilatation computations.

An orientation-preserving affine map has constant complex derivatives, so its
real dilatation and Jacobian are closed-form expressions in the four matrix
entries.  Everything here is pure and immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GeometryError, OrientationError

__all__ = [
    "Point",
    "AffineMap",
    "Triangle",
    "dilatation",
    "affine_three_point",
    "invert_affine",
]


# a module-level binding: `Point.__init__` runs once per query
_isfinite = math.isfinite


@dataclass(frozen=True, init=False)
class Point:
    """A finite point.  Every query makes one, so its `__init__` is
    hand-written: a finiteness check and two stores into `__dict__`, in
    place of the generated `object.__setattr__` calls and `__post_init__`.
    """

    x: float
    y: float

    def __init__(self, x: float, y: float):
        if not (_isfinite(x) and _isfinite(y)):
            raise GeometryError(f"non-finite point ({x}, {y})")
        d = self.__dict__
        d["x"] = x
        d["y"] = y

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scale(self, s: float) -> "Point":
        return Point(self.x * s, self.y * s)

    def dist(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class AffineMap:
    """z = (x, y) -> (m11 x + m12 y + tx, m21 x + m22 y + ty)."""

    m11: float
    m12: float
    m21: float
    m22: float
    tx: float = 0.0
    ty: float = 0.0

    def __post_init__(self):
        for v in (self.m11, self.m12, self.m21, self.m22, self.tx, self.ty):
            if not math.isfinite(v):
                raise GeometryError("non-finite affine map entry")

    @property
    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply(self, p: Point) -> Point:
        return Point(
            self.m11 * p.x + self.m12 * p.y + self.tx,
            self.m21 * p.x + self.m22 * p.y + self.ty,
        )

    def __call__(self, p: Point) -> Point:
        return self.apply(p)


def _wirtinger(a: AffineMap) -> tuple[complex, complex]:
    """Complex derivatives (dz, dzbar) of the affine map."""
    dz = complex(a.m11 + a.m22, a.m21 - a.m12) / 2.0
    dzbar = complex(a.m11 - a.m22, a.m21 + a.m12) / 2.0
    return dz, dzbar


def dilatation(a: AffineMap) -> float:
    """Real dilatation K = (|dz| + |dzbar|) / (|dz| - |dzbar|).

    K >= 1, with K = 1 exactly for similarities.  Raises OrientationError
    for non-positive determinants, GeometryError when |dz| <= |dzbar| in
    floating point all the same.
    """
    if a.det <= 0:
        raise OrientationError(f"determinant {a.det} is not positive")
    dz, dzbar = _wirtinger(a)
    p, q = abs(dz), abs(dzbar)
    if p <= q:
        raise GeometryError(f"dilatation of a map with determinant {a.det} "
                            "is not finite in floating point")
    return (p + q) / (p - q)


def invert_affine(a: AffineMap) -> AffineMap:
    """Inverse map; dilatation is preserved."""
    d = a.det
    if d <= 0:
        raise OrientationError(f"determinant {d} is not positive")
    n11 = a.m22 / d
    n12 = -a.m12 / d
    n21 = -a.m21 / d
    n22 = a.m11 / d
    return AffineMap(
        n11, n12, n21, n22,
        -(n11 * a.tx + n12 * a.ty),
        -(n21 * a.tx + n22 * a.ty),
    )


def _signed_area2(a: Point, b: Point, c: Point) -> float:
    return (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)


@dataclass(frozen=True)
class Triangle:
    """Nondegenerate triangle, stored positively oriented.

    The constructor swaps two vertices if the input is clockwise and
    rejects collinear vertices.
    """

    v1: Point
    v2: Point
    v3: Point

    def __init__(self, v1: Point, v2: Point, v3: Point):
        s = _signed_area2(v1, v2, v3)
        if s == 0.0:
            raise GeometryError("degenerate (collinear) triangle")
        if s < 0:
            v2, v3 = v3, v2
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)
        object.__setattr__(self, "v3", v3)

    @property
    def vertices(self) -> tuple[Point, Point, Point]:
        return (self.v1, self.v2, self.v3)

    @property
    def area(self) -> float:
        return 0.5 * _signed_area2(self.v1, self.v2, self.v3)

    def contains(self, p: Point, tol: float = 1e-12) -> bool:
        """Closed containment with an absolute slack of `tol` on each edge."""
        for a, b in ((self.v1, self.v2), (self.v2, self.v3), (self.v3, self.v1)):
            cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
            if cross < -tol * max(1.0, a.dist(b)):
                return False
        return True


def affine_three_point(src: Triangle, dst: Triangle) -> AffineMap:
    """The unique affine map sending src vertices to dst vertices in order."""
    a, b, c = src.vertices
    u, v, w = dst.vertices
    e1 = b - a
    e2 = c - a
    d = e1.x * e2.y - e2.x * e1.y
    if d == 0.0:
        raise GeometryError("degenerate source triangle")
    f1 = v - u
    f2 = w - u
    # M * [e1 e2] = [f1 f2]  =>  M = [f1 f2] * [e1 e2]^{-1}
    m11 = (f1.x * e2.y - f2.x * e1.y) / d
    m12 = (f2.x * e1.x - f1.x * e2.x) / d
    m21 = (f1.y * e2.y - f2.y * e1.y) / d
    m22 = (f2.y * e1.x - f1.y * e2.x) / d
    tx = u.x - (m11 * a.x + m12 * a.y)
    ty = u.y - (m21 * a.x + m22 * a.y)
    return AffineMap(m11, m12, m21, m22, tx, ty)
