"""Gauge-driven Cantor constructions and dimension estimators.

Two families are built here:

* the square-nest family driven by a strictly decreasing gauge d_0 = 1,
  d_1, d_2, ...: level n is 4^n congruent squares of side 2^-n d_n, each
  child inset a_n = 2^-(n+1) (d_{n-1} - d_n) from its parent's boundary
  (equivalently: child centers sit at the parent's quarter points);
* the linear 8-adic family, the gauge d_n = 4^-n with its children in a
  row: level n is the 4^n squares of side 8^-n of z -> z/8 + (2j-5)/8.

Dimension estimators: truncated limsup/liminf bounds from the covering /
mass-distribution argument, grid box counting, and a Frostman-ratio probe.
Box counting builds no level: a level is the product of its x and its y
center coordinates, so the grid boxes it meets are the columns met times the
rows met, each counted from its axis's coordinates in bounded blocks.  Nor
does the probe: it walks the digit tree of the square nest from the root,
counting whole subtrees that lie inside or outside a disk, and tests single
level-n squares only near the disk's boundary.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DepthLimitError, DomainError, ValidationError

__all__ = [
    "GaugeSequence",
    "CantorLevel",
    "Construction",
    "LevelTable",
    "DimensionEstimate",
    "make_gauge",
    "build_level",
    "build_sigma_level",
    "nest_centers",
    "dimension_bounds",
    "box_dimension",
    "count_boxes",
    "frostman_profile",
    "depth_guard",
]

def depth_guard() -> int:
    """Materialization depth limit (4^n square lists); env-overridable."""
    text = os.environ.get("QCFORGE_DEPTH_GUARD", "14")
    try:
        return int(text)
    except ValueError:
        raise ValidationError("QCFORGE_DEPTH_GUARD must be an integer, "
                              f"got {text!r}") from None


@dataclass(frozen=True)
class GaugeSequence:
    """Strictly decreasing side-length gauge d_n = 2^-e_n with d_0 = 1, as
    its exponent e_n: `Construction.table` forms d_n."""

    kind: str
    nu: float | None = None

    def _exponent(self, n: int) -> float:
        """The exponent e_n of d_n = 2^-e_n."""
        if n < 0:
            raise DomainError(f"gauge index must be >= 0, got {n}")
        k = self.kind
        if k == "geometric":
            return self.nu * n
        if k == "slow":
            return n / math.log(n + math.e)
        if k == "fast":
            return n * math.log(n + 1)
        if k == "sqrt":
            return math.sqrt(n)
        raise DomainError(f"unknown gauge kind {k!r}")

    def describe(self) -> str:
        if self.kind == "geometric":
            return f"geometric:{self.nu:g}"
        return self.kind


def make_gauge(kind: str, nu: float | None = None) -> GaugeSequence:
    """Build a gauge of the given kind.

    Kinds, each a closed form in its exponent: geometric (d_n = 2^{-nu n}),
    slow (2^{-n/log(n+e)}), fast (2^{-n log(n+1)}), sqrt (2^{-sqrt n}).  The
    slow/fast exponents are shifted so that they are strictly monotone from
    n = 0 while keeping the asymptotics of n/log n and n log n.
    """
    if kind == "geometric":
        if nu is None or not math.isfinite(nu) or nu <= 0:
            raise ValidationError("geometric gauge needs a finite nu > 0")
    elif kind not in ("slow", "fast", "sqrt"):
        raise ValidationError(f"unknown gauge kind {kind!r}")
    elif nu is not None:
        raise ValidationError(f"{kind} gauge takes no parameter, got {nu:g}")
    return GaugeSequence(kind, None if nu is None else float(nu))


@dataclass(frozen=True)
class CantorLevel:
    """Finite construction stage: 4^n congruent axis-aligned squares."""

    family: str  # "lambda" or "sigma"
    level: int
    side: float
    centers: np.ndarray = field(repr=False)  # shape (4^n, 2)

    @property
    def count(self) -> int:
        return self.centers.shape[0]

    @property
    def total_area(self) -> float:
        return self.count * self.side * self.side

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "level": self.level,
            "side": self.side,
            "squares": self.centers,
        }


# child-minus-parent center directions in units of the parent side, in digit
# order: SW, SE, NE, NW for the square nest, left to right for the 8-adic row
_NEST_DIRECTIONS = ((-0.25, -0.25), (0.25, -0.25), (0.25, 0.25), (-0.25, 0.25))
_ROW_DIRECTIONS = tuple(((2 * j - 5) / 8.0, 0.0) for j in (1, 2, 3, 4))
# the 8-adic row's gauge: d_k = 4^-k, so its level-k side is 8^-k
_ROW_GAUGE = GaugeSequence("geometric", nu=2.0)

# most rows a materialized level or a level of the Frostman walk may hold:
# 4^12 level centers peak at about 435 MB, and 3.7 M walk rows take about
# 350 MB (deep levels of thin gauges keep that many nodes near disk edges)
_MAX_ROWS = 2 ** 23
_BLOCK_ROWS = 4096  # most rows of a block of `_path_sums`


def _check_depth(n: int):
    if n < 0:
        raise DomainError(f"level must be >= 0, got {n}")
    g = depth_guard()
    if n > g:
        raise DepthLimitError(
            f"level {n} exceeds materialization guard {g} "
            "(set QCFORGE_DEPTH_GUARD to raise it)")


def _check_table_depth(n: int):
    if n < 0:
        raise DomainError(f"depth must be >= 0, got {n}")
    # tables and templates are O(1) per level; the guard only limits absurd
    # requests
    if n > 64 * max(1, depth_guard()):
        raise DepthLimitError(f"depth {n} is unreasonably large")


def _check_side(table: "LevelTable"):
    if table.sides[-1] == 0.0:
        raise DepthLimitError(f"level {len(table.sides) - 1} has side 0 in "
                              "floating point")


def _path_sums(offsets_per_level, origin, block_rows=_BLOCK_ROWS):
    """The sums origin + offsets_per_level[0][d_1] + ... + [n - 1][d_n],
    added left to right, of every digit path in digit-path order, in blocks
    of at most `block_rows` rows.  A level of more than `_MAX_ROWS` squares
    raises `DepthLimitError` at the call, also if not every child is listed."""
    n = len(offsets_per_level)
    if 4 ** n > _MAX_ROWS:
        raise DepthLimitError(f"level {n} has 4^{n} squares, more than the "
                              f"cap of {_MAX_ROWS} rows")
    origin = np.asarray(origin, dtype=float)
    offs = [np.asarray(o, dtype=float) for o in offsets_per_level]

    def grow(sums, levels):
        for o in levels:
            sums = (sums[:, None] + o[None]).reshape(-1, *origin.shape)
        return sums

    # the last levels whose paths fit in one block, summed below each prefix
    cut, rows = n, 1
    while cut and rows * len(offs[cut - 1]) <= block_rows:
        cut -= 1
        rows *= len(offs[cut])
    return (grow(prefix[None], offs[cut:])
            for prefix in grow(origin[None], offs[:cut]))


def nest_centers(offsets_per_level: Sequence[Sequence[Sequence[float]]]
                 ) -> np.ndarray:
    """Centers reached from the origin by adding one of the child offsets
    per level, in digit-path order (shape (4^n, 2) for n levels of four
    offsets): the one unbounded block of `_path_sums`."""
    return next(_path_sums(offsets_per_level, (0.0, 0.0), math.inf))


@dataclass(frozen=True)
class LevelTable:
    """Levels 0..n of a construction in Python floats: the gauge exponent
    e_k of d_k = 2^-e_k, side 2^-k d_k and total area d_k^2 of level k,
    `ratio[k - 1]` = d_k/d_{k-1} (0 where d_k is 0), and the directions of
    a parent's children in units of its side.  The exponent stays finite
    where d_k underflows to 0.  `offsets` is formed on first read, so a
    table read only for scales (a report's, a check's) never forms it."""

    e: list[float]
    ratio: list[float]  # levels 1..n
    sides: list[float]
    areas: list[float]
    directions: tuple[tuple[float, float], ...]  # children per parent

    @cached_property
    def offsets(self) -> list[list[list[float]]]:
        """`offsets[k - 1][j]`, child j's center minus its level-k
        parent's: direction j times `sides[k - 1]`."""
        return (np.asarray(self.directions)
                * np.reshape(self.sides[:-1], (-1, 1, 1))).tolist()

    def truncate(self, n: int) -> "LevelTable":
        """The table of levels 0..n, its offsets not yet formed."""
        return LevelTable(self.e[:n + 1], self.ratio[:n], self.sides[:n + 1],
                          self.areas[:n + 1], self.directions)


@dataclass(frozen=True)
class Construction:
    """One of the two Cantor constructions: a gauge and a child layout.

    Level-k squares have side 2^-k d_k.  Square nest ("lambda"): children at
    the parent's quarter points (the inset a_k = 2^-(k+1) (d_{k-1} - d_k)),
    with a gauge that must be given.  8-adic row ("sigma"): the gauge
    geometric:2, set here (another raises `DomainError`), and children
    along the parent's horizontal midline.  Any other family raises
    `DomainError`.
    """

    family: str  # "lambda" or "sigma"
    gauge: GaugeSequence | None = None

    def __post_init__(self):
        if self.family == "sigma":
            if self.gauge not in (None, _ROW_GAUGE):
                raise DomainError("the 8-adic row has the gauge geometric:2, "
                                  f"not {self.gauge.describe()}")
            object.__setattr__(self, "gauge", _ROW_GAUGE)
        elif self.family != "lambda":
            raise DomainError(f"unknown family {self.family!r}: need "
                              "'lambda' or 'sigma'")
        elif self.gauge is None:
            raise DomainError("the square nest needs a gauge")

    def table(self, n: int, order: Sequence[int] = (0, 1, 2, 3)
              ) -> LevelTable:
        """Gauge exponents, sides and areas of levels 0..n, gauge ratios of
        levels 1..n, and the child directions, the children of each parent
        listed in `order` (indices into the digit order); the child offsets
        are formed when first read.  The one producer of a level's scale:
        each e_k is evaluated once, d_k = 2^-e_k formed from it, and every
        side, area, d_k/d_{k-1} and -log d_k read from here."""
        e = [self.gauge._exponent(k) for k in range(n + 1)]
        d = [2.0 ** -ek for ek in e]
        dirs = _ROW_DIRECTIONS if self.family == "sigma" else _NEST_DIRECTIONS
        return LevelTable(e, [b / a if b else 0.0 for a, b in zip(d, d[1:])],
                          [2.0 ** (-k) * dk for k, dk in enumerate(d)],
                          [dk ** 2 for dk in d], tuple(dirs[j] for j in order))

    def level(self, n: int) -> CantorLevel:
        table = self._checked_table(n)
        return CantorLevel(self.family, n, table.sides[n],
                           nest_centers(table.offsets))

    def _checked_table(self, n: int) -> LevelTable:
        """The table of levels 0..n, after the guard and a level-n side 0."""
        _check_depth(n)
        table = self.table(n)
        _check_side(table)
        return table

    def describe(self) -> str:
        if self.family == "sigma":
            return "sigma"
        return f"lambda({self.gauge.describe()})"


def build_level(gauge: GaugeSequence, n: int) -> CantorLevel:
    """Level n of the square-nest family for the given gauge."""
    return Construction("lambda", gauge).level(n)


def build_sigma_level(n: int) -> CantorLevel:
    """Level n of the linear 8-adic family (squares centered on the x-axis)."""
    return Construction("sigma").level(n)


@dataclass(frozen=True)
class DimensionEstimate:
    value: float
    lower: float
    upper: float
    method: str  # "lemma_bounds" or "box_counting"
    scales_used: tuple[float, ...]

    def to_json_obj(self) -> dict:
        return asdict(self)


def dimension_bounds(gauge: GaugeSequence, N: int) -> DimensionEstimate:
    """Truncated covering/mass-distribution dimension bounds.

    lower = 2 - max over the tail of (-2 log d_{n+1}) / (-log d_n + n log 2),
    upper = 2 - min over the tail of (-2 log d_n)   / (-log d_n + n log 2),
    with the tail taken as n in [ceil(2N/3), N] to approximate the
    limsup/liminf at truncation N.  -log d_n is e_n log 2, with e_n and
    the scales used (the tail's sides) read from the square nest's
    `LevelTable`.  N has the bound of map depths.
    """
    if N < 3:
        raise DomainError(f"N must be >= 3, got {N}")
    _check_table_depth(N)
    tail = range(max(1, math.ceil(2 * N / 3)), N + 1)
    table = Construction("lambda", gauge).table(N + 1)
    logs = [e * math.log(2.0) for e in table.e[tail.start:]]
    for n, v in zip(tail, logs):
        if not math.isfinite(v):
            raise DomainError(f"-log d_{n} of gauge {gauge.describe()} is "
                              "not finite in floating point")
    denoms = [v + n * math.log(2.0) for n, v in zip(tail, logs)]
    r_low = [2.0 * v / q for v, q in zip(logs[1:], denoms)]
    r_up = [2.0 * v / q for v, q in zip(logs, denoms)]
    lower = min(max(2.0 - max(r_low), 0.0), 2.0)
    upper = min(max(2.0 - min(r_up), 0.0), 2.0)
    lower = min(lower, upper)
    return DimensionEstimate(0.5 * (lower + upper), lower, upper,
                             "lemma_bounds", tuple(table.sides[tail.start:-1]))


def _grid_ranges(centers: np.ndarray, half: float, box: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """First and last index, per coordinate, of the grid boxes of size `box`
    that the closed square of half side `half` about each center meets, in
    int64 (at least one box per square)."""
    lo = np.floor((centers - half) / box)
    hi = np.ceil((centers + half) / box)
    # differences fit int64 too; a NaN fails every comparison
    if not all(-2.0 ** 62 < v < 2.0 ** 62
               for v in (lo.min(), lo.max(), hi.min(), hi.max())):
        raise DomainError(f"grid indices of box size {box!r} pass int64")
    lo, hi = lo.astype(np.int64), hi.astype(np.int64) - 1
    return lo, np.maximum(hi, lo)


def _union_size(lo: np.ndarray, hi: np.ndarray, top: int = -2 ** 63) -> int:
    """Number of integers above `top` in the union of the intervals [lo, hi]:
    with `top` the highest hi before, the counts of blocks whose intervals
    start no earlier than any before them add up to the whole count."""
    order = np.argsort(lo)
    lo, hi = lo[order], hi[order]
    # the intervals before one in this order, those of earlier blocks
    # included, start no later than it does, so their union meets it in
    # [its lo, the highest hi before it]
    before = np.maximum.accumulate(np.concatenate(([top], hi[:-1])))
    return int(np.maximum(hi - np.maximum(lo, before + 1) + 1, 0).sum())


def count_boxes(level: CantorLevel, box: float | None = None) -> int:
    """Number of grid boxes of size `box` (default: the level's own side)
    meeting the union of closed squares.  The grid is anchored at the origin;
    measure-zero touchings at grid lines are not counted.

    This is the general count, for any box and any centers (translated or
    partial levels included), and the reference of `box_dimension`'s count
    per axis.
    """
    if box is None:
        box = level.side
    if box <= 0:
        raise DomainError("box size must be positive")
    lo, hi = _grid_ranges(level.centers, level.side / 2.0, box)
    span = int((hi - lo).max()) + 1
    ii, jj = [], []
    for di in range(span):
        for dj in range(span):
            i, j = lo[:, 0] + di, lo[:, 1] + dj
            ok = (i <= hi[:, 0]) & (j <= hi[:, 1])
            ii.append(i[ok])
            jj.append(j[ok])
    ii, jj = np.concatenate(ii), np.concatenate(jj)
    # one integer per box: row-major index in the boxes' bounding range,
    # unless that range has 2^63 boxes or more
    i0, j0 = int(lo[:, 0].min()), int(lo[:, 1].min())
    width = int(hi[:, 1].max()) - j0 + 1
    if (int(hi[:, 0].max()) - i0 + 1) * width < 2 ** 63:
        keys = np.sort((ii - i0) * width + (jj - j0))
        new = keys[1:] != keys[:-1]
    else:
        order = np.lexsort((jj, ii))
        ii, jj = ii[order], jj[order]
        new = (ii[1:] != ii[:-1]) | (jj[1:] != jj[:-1])
    return 1 + int(np.count_nonzero(new))


def count_segment_boxes(vertices: np.ndarray, box: float) -> int:
    """Grid boxes of size `box` met by a polyline (exact grid traversal)."""
    if box <= 0:
        raise DomainError("box size must be positive")
    keys: set[tuple[int, int]] = set()
    pts = np.asarray(vertices, dtype=float) / box
    for (x0, y0), (x1, y1) in zip(pts[:-1], pts[1:]):
        keys.add((math.floor(x0), math.floor(y0)))
        dx, dy = x1 - x0, y1 - y0
        steps = []
        if dx != 0:
            lo, hi = sorted((x0, x1))
            for g in range(math.floor(lo) + 1, math.floor(hi) + 1):
                steps.append((g - x0) / dx)
        if dy != 0:
            lo, hi = sorted((y0, y1))
            for g in range(math.floor(lo) + 1, math.floor(hi) + 1):
                steps.append((g - y0) / dy)
        for t in sorted(steps):
            if 0.0 < t <= 1.0:
                xm = x0 + (t + 1e-12) * dx
                ym = y0 + (t + 1e-12) * dy
                keys.add((math.floor(xm), math.floor(ym)))
        keys.add((math.floor(x1), math.floor(y1)))
    return len(keys)


def _axis_boxes(offsets: np.ndarray, side: float) -> int:
    """Grid boxes of size `side` met on one axis by the segments of length
    `side` about the path sums of `offsets`, each level's ascending, with
    the columns that repeat their left neighbour on every level dropped."""
    offsets = offsets[:, np.append(True, (np.diff(offsets) != 0).any(0))]
    # a nest axis has 2^n <= 2^11 sums under the row cap, one block; the
    # 8-adic row's x sums are dyadic of at most 3n + 1 <= 34 bits, so exact,
    # its grid divides by a power of 2, and its squares lie 2 boxes apart:
    # lo rises strictly across blocks, as the carried `top` needs
    count, top = 0, -2 ** 63
    for sums in _path_sums(offsets, 0.0):
        lo, hi = _grid_ranges(sums, side / 2.0, side)
        count += _union_size(lo, hi, top)
        top = max(top, int(hi.max()))
    return count


def box_dimension(construction: Construction,
                  depths: Sequence[int]) -> DimensionEstimate:
    """Least-squares box-counting estimate over several depths, each level
    of `construction` counted at its own square side on the grid of
    `count_boxes`, with the count `count_boxes` gives on the built level.

    Each digit adds an x and a y offset on its own, so a level's centers
    are the product of its x and its y coordinates, and the boxes it meets
    are the columns met times the rows met.  No level is built: each axis
    is counted from the path sums of its distinct offsets per level, 2 per
    axis on the square nest, 4 in x and 1 in y on the 8-adic row; a nest's
    y axis has the bits of its x axis and is not counted again.  They are
    summed in the order of `nest_centers`, so every coordinate has the bits
    of the built level, and the checks of `Construction.level` run in the
    same order.
    """
    if len(depths) < 2:
        raise ValidationError("box counting needs at least two depths")
    if len(set(depths)) < len(depths):
        raise ValidationError(f"box counting needs distinct depths, got "
                              f"{','.join(map(str, depths))}")
    logN, scales = [], []
    for n in depths:
        table = construction._checked_table(n)
        side = table.sides[n]
        offs = np.sort(np.reshape(table.offsets, (n, 4, 2)), axis=1)
        x, y = offs[:, :, 0], offs[:, :, 1]
        columns = _axis_boxes(x, side)
        rows = columns if x.tobytes() == y.tobytes() else _axis_boxes(y, side)
        logN.append(math.log(columns * rows))
        scales.append(side)
    logS = [-math.log(side) for side in scales]
    slope = float(np.polyfit(logS, logN, 1)[0])
    pair = [(b - a) / (d - c)
            for a, b, c, d in zip(logN, logN[1:], logS, logS[1:])]
    value = min(max(slope, 0.0), 2.0)
    return DimensionEstimate(value, min(min(pair), value), max(max(pair), value),
                             "box_counting", tuple(scales))


def frostman_profile(gauge: GaugeSequence, n: int, s: float,
                     samples: int = 32, seed: int = 0) -> list[tuple[float, float]]:
    """Per-radius Frostman ratios for the level-n uniform measure.

    For sampled centers x of level-n squares and dyadic radii eps, the mass
    mu(D(x, eps)) is over-approximated by 4^-n times the number of level
    squares within distance eps of x: the square of center c counts when
    hypot(max(|c - x| - side/2, 0)) <= eps in float64, per coordinate.
    Returns (eps, max ratio mu / eps^s) sorted by decreasing eps.

    No level is built.  The digit tree is walked once for all (sample,
    radius) pairs together, one numpy pass per level.  A level-k node whose
    square lies inside the disk by more than a rounding margin adds its
    4^(n-k) leaves, one outside it by that margin is dropped, and the rest
    split into their children.  Node and sample centers are summed in the
    order of `nest_centers`, so the leaves reach the test above with the
    bits of the built level, and the counts are those of a scan of it.
    A walk that would start from or hold at some level more than
    `_MAX_ROWS` rows, or a level n whose side is 0 in floating point,
    raises `DepthLimitError`.
    """
    if not 0 <= s < 2:
        raise DomainError("need 0 <= s < 2")
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples}")
    if seed < 0:
        raise DomainError(f"need seed >= 0, got {seed}")
    _check_depth(n)
    if n >= 32:
        raise DepthLimitError(f"level {n} has 4^{n} squares, more than an "
                              "int64 index holds")
    table = Construction("lambda", gauge).table(n)
    _check_side(table)
    offsets = np.reshape(table.offsets, (n, 4, 2))
    side = table.sides[n]
    radii = [2.0 ** (-k)
             for k in range(max(1, math.ceil(-math.log2(side))) + 1)]
    count = min(samples, 4 ** n)
    # the root frontier, one row per pair, checked before any is drawn
    if count * len(radii) > _MAX_ROWS:
        raise DepthLimitError(
            f"the Frostman walk would start from {count * len(radii)} rows, "
            f"more than its cap of {_MAX_ROWS}")
    idx = np.random.default_rng(seed).integers(0, 4 ** n, size=count)
    xs = np.zeros((len(idx), 2))
    for k, offs in enumerate(offsets, 1):
        xs = xs + offs[(idx >> 2 * (n - k)) & 3]
    # pair p is (radius p // len(xs), sample p % len(xs)); the frontier is
    # one row per (pair, node): the pair and the node's center
    x_of, r_of = np.tile(xs, (len(radii), 1)), np.repeat(radii, len(xs))
    hits = np.zeros(len(r_of), dtype=np.int64)

    def tally(pair, weight):
        return np.bincount(pair, minlength=len(hits)) * weight

    def leaf_hits(pair, centers):
        d = np.maximum(np.abs(centers - x_of[pair]) - side / 2.0, 0.0)
        return pair[np.hypot(d[:, 0], d[:, 1]) <= r_of[pair]]

    # bounds the rounding of the center sums below a node and of the tests:
    # about (n + 11) / 2 ulps of 1, as all coordinates lie in the unit square
    margin = 16 * (n + 1) * np.finfo(float).eps
    pair, centers = np.arange(len(hits)), np.zeros((len(hits), 2))
    for k, offs in enumerate(offsets):
        a, r, half = np.abs(centers - x_of[pair]), r_of[pair], table.sides[k] / 2
        inside = np.hypot(*(a + half).T) <= r - margin
        hits += tally(pair[inside], 4 ** (n - k))
        near = np.hypot(*np.maximum(a - half, 0.0).T)
        keep = ~inside & (near <= r + margin)
        pair, centers = pair[keep], centers[keep]
        if 4 * len(pair) > _MAX_ROWS:
            raise DepthLimitError(
                f"the Frostman walk would hold {4 * len(pair)} rows at level "
                f"{k + 1}, more than its cap of {_MAX_ROWS}")
        children = centers[:, None, :] + offs
        # a node that its children round back to has every leaf below it at
        # its own center: deeper offsets are smaller and rounding is monotone
        same = (children == centers[:, None, :]).all(axis=(1, 2))
        hits += tally(leaf_hits(pair[same], centers[same]), 4 ** (n - k))
        pair = np.repeat(pair[~same], 4)
        centers = children[~same].reshape(-1, 2)
    hits += tally(leaf_hits(pair, centers), 1)
    hits = hits.reshape(len(radii), len(xs)).tolist()
    return [(eps, max([0.0] + [h * 4.0 ** (-n) / eps ** s for h in row]))
            for eps, row in zip(radii, hits)]
