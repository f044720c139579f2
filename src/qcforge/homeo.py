"""Level-indexed assembly of the quasiconformal approximants.

A `HierarchicalMap` represents the depth-n approximant between two Cantor
constructions: a similarity on every deepest-level square, and per level a
few piecewise-affine gasket templates placed in every parent.  All level-k
gaskets are congruent, so a map stores each level's templates once, all
levels in one `qcmaps.TemplateStack` (arrays with leading axes (level,
template)), and its geometry once: one `LevelTable` per side (gauge
exponents and ratios d_k/d_{k-1}, sides, areas, child directions), which
the template parameters, evaluation, the curve and its box dimension, the
square centers and the masses read; nothing here forms a level's scale
from a gauge.  Only the descent table, the curve and the square centers
read a table's child offsets, which it forms on first read, so a map that
is only built, profiled or checked never forms them; nor does a build copy
a triangle array to orient it (`qcmaps._oriented`: no case has a
clockwise cell or image).  Where the templates sit is data too: a map's
`slots` list one (template index, offset x, offset y, scale) row per
template instance in a parent, in units of the parent side, the same at
every level and on both sides, so a level-k instance is its template
scaled by `sides[k - 1]` times its slot's scale.  The per-level K, the
masses and `invert` read the stack whole; `levels` makes every level's
templates on first read, for the oracles.
`evaluate` descends the map's descent table, made on its first call: per
level, the cuts between the child centres name the one child that can
hold a point, and a gasket point is looked up in the stack's `locator` of
its template.  `curve_polyline` reads the same locators; neither makes a
template object.

Two builders, each making the templates of all its levels in one batched
pass:

* `standard_homeo(src, dst, n)`: square-nest family to square-nest family,
  with an annulus extension per level (inner inset (1 - d_k/d_{k-1})/2 on
  each side) and index-preserving child correspondence.
* `theoremB_homeo(n)`: linear 8-adic family to the square-nest family with
  the square-root gauge; each level-k parent contributes two twist regions
  (parameter (1 - d_k/d_{k-1})/4) and the children map left-to-right onto
  NW, SW, NE, SE.  The left twist is the exact half-turn of the right one
  (cells, images and translations negated), so both share their
  dilatations bit for bit and the map is exactly odd.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import cantor
from .cantor import Construction, GaugeSequence, LevelTable, _check_depth, \
    _check_table_depth, make_gauge, nest_centers
# re-exported: qcforge.homeo.build_level / build_sigma_level stay importable
from .cantor import build_level, build_sigma_level  # noqa: F401
from .errors import DepthLimitError, DomainError, GeometryError
from .geometry import Point
from .qcmaps import _ARRAYS, PiecewiseAffineMap, TemplateStack, \
    annulus_templates, find, invert_templates, twist_templates
# re-exported: the single-template builders stay reachable from here
from .qcmaps import annulus_extension_any, invert_piecewise, \
    twist_extension  # noqa: F401

__all__ = [
    "Construction",
    "HierarchicalMap",
    "Polyline",
    "EvalResult",
    "standard_homeo",
    "theoremB_homeo",
    "evaluate",
    "max_dilatation_per_level",
    "invert",
    "curve_polyline",
    "curve_box_dimension",
]

# target children of an 8-adic parent, left to right: NW, SW, NE, SE, as
# indices into the square nest's digit order (SW, SE, NE, NW)
_NW_SW_NE_SE = (3, 0, 2, 1)
# a parent's template instances as slots: one annulus around each child of
# a square nest; the right, then the left twist over a whole 8-adic parent
_ANNULUS_SLOTS = tuple((0, x, y, 0.5) for x, y in cantor._NEST_DIRECTIONS)
_TWIST_SLOTS = ((0, 0.0, 0.0, 1.0), (1, 0.0, 0.0, 1.0))
# relative widening of child squares and absolute widening of template boxes
# in point location
_TOL = 1e-12


@dataclass(frozen=True)
class _Level:
    """Level k of a map and its templates, placed by the map's `slots`."""

    k: int
    templates: tuple[PiecewiseAffineMap, ...]


@dataclass(frozen=True)
class HierarchicalMap:
    depth: int
    source: Construction
    target: Construction
    templates: TemplateStack  # levels 1..depth
    src: LevelTable  # the source's levels 0..depth
    dst: LevelTable  # the target's, children in correspondence order
    # per template instance in a parent, (template index, offset x, offset
    # y, scale) in units of the parent side: the instance covers parent
    # center + side * (offset + scale * template domain) on either side
    slots: tuple[tuple[int, float, float, float], ...]

    @cached_property
    def levels(self) -> tuple[_Level, ...]:
        """Levels 1..depth with their templates, made on first read, for
        the oracles; no command reads them."""
        t = self.templates
        kinds = range(len(t.kinds))
        return tuple(_Level(k + 1, tuple(t.template(k, j) for j in kinds))
                     for k in range(self.depth))

    @cached_property
    def _descent(self) -> tuple:
        """Levels 1..depth as `evaluate` descends them, made on its first
        call: per level (half, x cuts, y cuts, children, gasket).

        `half` is a child's half side widened by `_TOL`.  The cuts lie
        halfway between the child centres on each axis (0 on both axes of
        a square nest; -s/4, 0 and s/4 in x on the 8-adic row of a parent
        of side s), and `children[iy][ix]` lists, as (source offset, target
        offset), the children whose widened square reaches the cut cell
        (ix, iy), in child order: one child, unless widened children
        overlap.  `gasket` is (level index, placements), a placement being
        one slot's (template index, source offset, source scale, target
        offset, target scale, its template's cell box widened by 2 `_TOL`:
        past the child test, which widens a square by up to its slot's
        scale times `_TOL`, so that rounding decides no point between
        them), each offset and scale the slot's times the parent side."""
        src, dst, t, table = self.src, self.dst, self.templates, []
        # (x0, x1, y0, y1) per template: the box of its cells, widened
        lo, hi = t.cells.min(axis=(2, 3)), t.cells.max(axis=(2, 3))
        w = 2.0 * _TOL
        boxes = np.stack([lo[..., 0] - w, hi[..., 0] + w, lo[..., 1] - w,
                          hi[..., 1] + w], axis=-1).tolist()
        for k, (offsets, dst_offsets) in enumerate(zip(src.offsets,
                                                       dst.offsets)):
            half = src.sides[k + 1] / 2.0 * (1.0 + _TOL)
            reach = half * (1.0 + 1e-9)  # past every rounding of the test
            cuts = [tuple((a + b) / 2.0 for a, b in zip(c, c[1:])) for c in
                    (sorted({o[axis] for o in offsets}) for axis in (0, 1))]
            cells = [list(zip((-math.inf,) + c, c + (math.inf,)))
                     for c in cuts]
            children = tuple(tuple(
                tuple((ox, oy, dox, doy) for (ox, oy), (dox, doy) in
                      zip(offsets, dst_offsets)
                      if ox - reach <= x1 and ox + reach >= x0
                      and oy - reach <= y1 and oy + reach >= y0)
                for x0, x1 in cells[0]) for y0, y1 in cells[1])
            s, d = src.sides[k], dst.sides[k]
            placements = tuple((ti, x * s, y * s, s * scale, x * d, y * d,
                                d * scale, *boxes[k][ti])
                               for ti, x, y, scale in self.slots)
            table.append((half, *cuts, children, (k, placements)))
        return tuple(table)

    def truncate(self, n: int) -> "HierarchicalMap":
        """The depth-n approximant: the first n levels of this map."""
        if not 0 <= n <= self.depth:
            raise DomainError(f"need 0 <= n <= {self.depth}, got {n}")
        return replace(self, depth=n, templates=self.templates.truncate(n),
                       src=self.src.truncate(n), dst=self.dst.truncate(n))

    def corresponding_centers(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Aligned (source, target) level-k square centers, in digit-path order."""
        if not 0 <= k <= self.depth:
            raise DomainError(f"need 0 <= k <= {self.depth}, got {k}")
        _check_depth(k)
        return (nest_centers(self.src.offsets[:k]),
                nest_centers(self.dst.offsets[:k]))

    def summary_json_obj(self) -> dict:
        cells = self.templates.dilatations[0].size if self.depth else 0
        return {"depth": self.depth, "source": self.source.describe(),
                "target": self.target.describe(),
                "per_level": [{"level": k, "max_K": K, "gasket_cells": cells}
                              for k, K in max_dilatation_per_level(self)]}


@dataclass(frozen=True, init=False)
class EvalResult:
    """`evaluate`'s image of a point and its distance bound to the limit
    map, with a hand-written `__init__` as `Point` has."""

    point: Point
    error_bound: float

    def __init__(self, point: Point, error_bound: float):
        d = self.__dict__
        d["point"] = point
        d["error_bound"] = error_bound


@dataclass(frozen=True)
class Polyline:
    vertices: np.ndarray  # shape (n, 2)
    params: np.ndarray  # shape (n,): source x-coordinates in [-1/2, 1/2]


def _gauge_error(gauges, ratios, k: int):
    """The error of level k, where some gauge's d_k/d_{k-1} in `ratios` is
    0 or 1: the first whose d_k underflows to 0 (`DepthLimitError`), else
    the first flat one (`DomainError`)."""
    if 0.0 in ratios:
        g = gauges[ratios.index(0.0)]
        return DepthLimitError(f"gauge {g.describe()} underflows at level "
                               f"{k}: d_{k} is 0 in floating point")
    g = gauges[ratios.index(1.0)]
    return DomainError(f"gauge {g.describe()} is flat at level {k}: "
                       f"d_{k}/d_{k - 1} is 1 in floating point")


def standard_homeo(src: GaugeSequence, dst: GaugeSequence,
                   n: int) -> HierarchicalMap:
    """Depth-n approximant of the standard homeomorphism between the
    square-nest constructions of two gauges, with the insets (1 - ratio)/2
    read from their tables."""
    _check_table_depth(n)
    source, target = Construction("lambda", src), Construction("lambda", dst)
    tables = source.table(n), target.table(n)
    ratio = np.array([t.ratio for t in tables])
    # level stop + 1 is the first where a side's ratio is 0 or 1: no inset
    bad = ((ratio == 0.0) | (ratio == 1.0)).any(axis=0)
    stop = int(np.argmax(bad)) if bad.any() else n
    # the earlier levels raise their errors first
    templates = annulus_templates(*(1.0 - ratio[:, :stop]) / 2.0)
    if stop < n:
        raise _gauge_error((src, dst), ratio[:, stop].tolist(), stop + 1)
    return HierarchicalMap(n, source, target, templates, *tables,
                           _ANNULUS_SLOTS)


def _rotate_template(rights: TemplateStack) -> TemplateStack:
    """Each level's template, then its conjugate by the half-turn s(z) = -z:
    s o (z -> Mz + t) o s^-1 is z -> Mz - t, so cells, images and
    translations are negated, which is exact, and dilatations and areas are
    shared."""
    r = rights
    turned = {"cells": -r.cells, "images": -r.images,
              "maps": r.maps * (1, 1, 1, 1, -1, -1)}
    return replace(r, kinds=("twist", "composite"), **{
        f: np.concatenate([getattr(r, f), turned.get(f, getattr(r, f))], 1)
        for f in _ARRAYS})


def theoremB_homeo(n: int) -> HierarchicalMap:
    """Depth-n approximant of the map taking the linear 8-adic set onto the
    square-nest set with gauge d_k = 2^{-sqrt k}."""
    _check_table_depth(n)
    source = Construction("sigma")
    target = Construction("lambda", make_gauge("sqrt"))
    dst = target.table(n, _NW_SW_NE_SE)
    # two twists per parent, right and left half of it, with the parameter
    # (1 - d_k/d_{k-1}) / 4 of levels 1..n
    templates = _rotate_template(twist_templates(
        (1.0 - np.array(dst.ratio)) / 4.0))
    return HierarchicalMap(n, source, target, templates, source.table(n), dst,
                           _TWIST_SLOTS)


def invert(m: HierarchicalMap) -> HierarchicalMap:
    """Cell-wise affine inverse; per-level dilatations are preserved."""
    return HierarchicalMap(m.depth, m.target, m.source,
                           invert_templates(m.templates), m.dst, m.src,
                           m.slots)


def max_dilatation_per_level(m: HierarchicalMap) -> list[tuple[int, float]]:
    return list(enumerate(m.templates.dilatations.max(axis=(1, 2)).tolist(),
                          1))


def evaluate(m: HierarchicalMap, z: Point) -> EvalResult:
    """Limit-map evaluation by level descent.

    Points outside the level-0 square are fixed; points resolving into a
    gasket get their exact piecewise-affine image; points still inside a
    deepest-level square get the square similarity together with an error
    bound (the image square's diameter).  The descent reads the map's
    descent table (`HierarchicalMap._descent`), made on the first call:
    per level, the cuts between child centres name the one child whose
    widened square can hold the point (each such child, in child order,
    where widened children overlap), and one containment test decides
    between that child and the gasket, written as -half <= d <= half per
    axis, which agrees with abs(d) <= half for every float, NaN included.
    In the gasket, the first placement whose widened template box holds
    the point picks the template; its cell comes from `qcmaps.find` on the
    stack's `locator` of that template, whose edge rows hold each edge's
    widening, made once per locator, and its map row is applied here as
    `AffineMap.apply` applies it: the image of `PiecewiseAffineMap.apply`,
    bit for bit, without making the template or its `pieces`.
    """
    src, dst = m.src, m.dst
    # max(abs(...)), not chained comparisons: a point with a NaN x must not
    # be fixed as outside, but raise `GeometryError` in a gasket
    if max(abs(z.x), abs(z.y)) > src.sides[0] / 2.0:
        return EvalResult(z, 0.0)
    if m.depth == 0:
        return EvalResult(z, dst.sides[0] * math.sqrt(2.0))
    # the descent works in one frame: r is z minus the current source
    # square's centre, (dcx, dcy) the absolute centre of its image
    rx, ry = z.x, z.y
    dcx = dcy = 0.0
    cell = bisect_right
    for half, xcuts, ycuts, children, gasket in m._descent:
        for ox, oy, dox, doy in children[cell(ycuts, ry)][cell(xcuts, rx)]:
            dx, dy = rx - ox, ry - oy
            if -half <= dx <= half and -half <= dy <= half:
                break
        else:
            # the first placement whose template box holds the point; its
            # locator is made when the first point reaches it
            k, placements = gasket
            for ti, ox, oy, sscale, dox, doy, dscale, x0, x1, y0, y1 in \
                    placements:
                ux, uy = (rx - ox) / sscale, (ry - oy) / sscale
                if x0 <= ux <= x1 and y0 <= uy <= y1:
                    break
                if not (math.isfinite(ux) and math.isfinite(uy)):
                    raise GeometryError(f"non-finite point ({ux}, {uy})")
            locator = m.templates.locator(k, ti)
            i = find(locator, ux, uy)
            if i < 0:
                raise DomainError(f"point ({ux}, {uy}) is outside the domain")
            m11, m12, m21, m22, tx, ty = locator[1][i]
            vx = m11 * ux + m12 * uy + tx
            vy = m21 * ux + m22 * uy + ty
            w = Point(dcx + dox + vx * dscale, dcy + doy + vy * dscale)
            return EvalResult(w, 0.0)
        rx, ry = dx, dy
        dcx, dcy = dcx + dox, dcy + doy
    # z survived every level: apply the deepest-square similarity, with the
    # image square's diameter as the distance to the limit map
    ratio = dst.sides[-1] / src.sides[-1]
    w = Point(dcx + rx * ratio, dcy + ry * ratio)
    return EvalResult(w, dst.sides[-1] * math.sqrt(2.0))


def _curve_plan(m: HierarchicalMap, k: int):
    """Ordered left-to-right walk of a level-k parent's midline in
    normalized coordinates: items (x0, "child", child index) and gasket
    segments (x0, "seg", (x1, template index, cell index)), sorted by x0.
    A template's segments cover the x-range of its cells, cut at the child
    holes in it and at its locator's edges, cuts within 1e-12 merged; each
    gets the cell that `find` gives its midpoint."""
    sp = m.src.sides[k - 1]
    child_half = m.src.sides[k] / (2.0 * sp)
    centers = [ox / sp for ox, _ in m.src.offsets[k - 1]]
    all_holes = [(c - child_half, c + child_half) for c in centers]
    items = []
    for ti in range(len(m.templates.kinds)):
        # in the cells' order, so that of equal zeros the first sign is kept
        xs = m.templates.cells[k - 1, ti, ..., 0].ravel().tolist()
        lo, hi = min(xs), max(xs)
        holes = [(a, b) for a, b in all_holes
                 if a >= lo - 1e-12 and b <= hi + 1e-12]
        cuts = {lo, hi, *(x for h in holes for x in h)}
        locator = m.templates.locator(k - 1, ti)
        for row in locator[0]:  # its vertices at 0, 5 and 10 (`_edge_rows`)
            u, v, w = row[0:2], row[5:7], row[10:12]
            for (ax, ay), (bx, by) in ((u, v), (v, w), (w, u)):
                if ay == 0.0 and by == 0.0:
                    cuts.update((ax, bx))
                elif (ay <= 0.0 <= by or by <= 0.0 <= ay) and ay != by:
                    cuts.add(ax + (bx - ax) * (ay / (ay - by)))
        xs = sorted(x for x in cuts if lo - 1e-12 <= x <= hi + 1e-12)
        merged = [xs[0]]
        for x in xs[1:]:
            if x - merged[-1] > 1e-12:
                merged.append(x)
        for x0, x1 in zip(merged, merged[1:]):
            mid = 0.5 * (x0 + x1)
            if not any(a < mid < b for a, b in holes):
                items.append((x0, "seg", (x1, ti, find(locator, mid, 0.0))))
    items += [(c - child_half, "child", j) for j, c in enumerate(centers)]
    items.sort(key=lambda it: it[0])
    return items


def _splice(m: HierarchicalMap, k: int, plan, block: np.ndarray
            ) -> np.ndarray:
    """Level k's (t, x, y) rows for all its parents, from its plan and the
    level-(k + 1) rows `block` (4 children per parent, in order).  Each
    plan item after the first starts on the row the item before it ends
    on, so it adds only the rows after that one: a gasket segment its end,
    a child block all its rows but the first."""
    sc, dc = m.corresponding_centers(k - 1)
    base = np.stack([sc[:, 0], dc[:, 0], dc[:, 1]], axis=1)[:, None, :]
    children = block.reshape(len(base), 4, -1, 3)
    sp, dp = m.src.sides[k - 1], m.dst.sides[k - 1]
    parts = []
    for i, (start, tag, payload) in enumerate(plan):
        skip = int(i > 0)
        if tag == "child":
            parts.append(children[:, payload, skip:])
            continue
        x1, ti, idx = payload
        m11, m12, m21, m22, tx, ty = m.templates.locator(k - 1, ti)[1][idx]
        # the cell's map at (x, 0.0), as `AffineMap.apply` computes it
        parts.append(base + np.array([(x * sp, (m11 * x + m12 * 0.0 + tx) * dp,
                                       (m21 * x + m22 * 0.0 + ty) * dp)
                                      for x in (start, x1)[skip:]]))
    return np.concatenate(parts, axis=1)


def curve_polyline(m: HierarchicalMap) -> Polyline:
    """Image of the horizontal midline under a depth-n approximant of the
    8-adic-to-square-nest map, with a vertex at every cell-boundary crossing.

    Parameters are the source x-coordinates in [-1/2, 1/2], so adjacent
    vertices always bound one affine (or deepest-similarity) piece.  The
    walk is built bottom up, level n to level 1, by `_splice`: each level's
    (t, x, y) rows for all its parents at once, one row per vertex.  It
    reads what `evaluate` reads: the level tables, and the template stack's
    cells and locators, with `find` naming each segment's cell; it makes no
    template object.  Levels with equal normalized children and cells share
    one `_curve_plan`, as all of theorem B's do.  A curve whose segments and
    deepest squares have more than `cantor._MAX_ROWS` ends, shared ends
    counted twice, raises `DepthLimitError` before its rows are built.
    """
    if m.source.family != "sigma":
        raise DomainError("midline tracing needs the forward 8-adic map")
    n, src, dst = m.depth, m.src, m.dst
    # both ends of every deepest square's midline, mapped by its similarity
    sc, dc = m.corresponding_centers(n)
    levels = range(n, 0, -1)
    memo, plans = {}, []  # one plan per key of what `_curve_plan` reads
    count = 2  # rows per parent, bottom up: child blocks and segment ends
    for k in levels:
        sp = src.sides[k - 1]
        key = (src.sides[k] / (2.0 * sp), *(ox / sp for ox, _ in
               src.offsets[k - 1]), m.templates.cells[k - 1].tobytes())
        plan = memo[key] = memo.get(key) or _curve_plan(m, k)
        plans.append(plan)
        count = sum(count if tag == "child" else 2 for _, tag, _ in plan)
    if count > cantor._MAX_ROWS:
        raise DepthLimitError(f"curve of depth {n} has {count} rows, more "
                              f"than the cap of {cantor._MAX_ROWS} rows")
    s = src.sides[n] / 2.0
    ratio = dst.sides[n] / src.sides[n]
    block = np.stack([
        np.stack([sc[:, 0] - s, dc[:, 0] - s * ratio, dc[:, 1]], axis=1),
        np.stack([sc[:, 0] + s, dc[:, 0] + s * ratio, dc[:, 1]], axis=1),
    ], axis=1)  # (parents, rows per parent, (t, x, y))
    for k, plan in zip(levels, plans):
        block = _splice(m, k, plan, block)
    rows = block.reshape(-1, 3)
    return Polyline(rows[:, 1:].copy(), rows[:, 0].copy())


def curve_box_dimension(m: HierarchicalMap, level: int | None = None) -> float:
    """Pointwise box-dimension estimate of the image curve at one level
    1..depth of the map (default its depth): log(#level squares crossed) /
    -log(square side), with -log d_n = e_n log 2 read from the image
    table."""
    if m.source.family != "sigma":
        raise DomainError("curve dimension applies to the forward 8-adic map")
    n = m.depth if level is None else level
    if not 1 <= n <= m.depth:
        raise DomainError(f"level must be in 1..{m.depth}, got {n}")
    return (n * math.log(4.0)) / (n * math.log(2.0)
                                  + m.dst.e[n] * math.log(2.0))
