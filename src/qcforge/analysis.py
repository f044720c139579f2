"""Dilatation-exceedance profiles and exponential-decay verification.

A profile records, exactly, how much area a hierarchical map distorts by at
least each dilatation threshold.  Because all level-k gasket cells are
congruent, the profile is a per-level aggregation — cell area times the
area of the level's parents — and stays cheap at depths far beyond
anything a flattened mesh could reach.  That product rests on one premise
of the maps' `slots`: a parent's instances of each template cover one
parent area, their scales' squares summing to 1 (four annuli at half a
parent's side, or each twist once at its full side), which
`tests/test_level_tree.py::test_the_slots_of_each_template_cover_one_parent`
checks on every case in both directions.  `check_david`
then tests the exponential exceedance bound area{K > K0} <= C exp(-alpha K),
always adding the still-unclassified deepest-level area so a pass is a
statement about the limit map, not just the finite approximant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cantor import Construction, GaugeSequence, _check_table_depth, \
    dimension_bounds, make_gauge
from .errors import DomainError
from .frozen import FROZEN_K0
from .homeo import HierarchicalMap, _gauge_error, invert, \
    max_dilatation_per_level, standard_homeo, theoremB_homeo

__all__ = [
    "DilatationProfile",
    "DavidParams",
    "dilatation_profile",
    "check_david",
    "qc_dimension_bounds",
    "level_ratio",
    "Case",
    "CASES",
    "report",
    "theoremA_report",
    "theoremB_report",
]


@dataclass(frozen=True, eq=False)
class DilatationProfile:
    """Exact exceedance areas of a hierarchical map as float64 columns:
    `thresholds`, the distinct cell dilatations K ascending, and
    `exceedances`, the area strictly above each.  `classified_area` is the
    total gasket area accounted for; `truncation_bound` is the area still
    unclassified at the build depth (the deepest-level squares)."""

    thresholds: np.ndarray
    exceedances: np.ndarray
    classified_area: float
    truncation_bound: float
    side: str  # "domain" or "image"


@dataclass(frozen=True)
class DavidParams:
    C: float
    alpha: float
    K0: float

    def __post_init__(self):
        if not (0 < self.C < math.inf and 0 < self.alpha < math.inf
                and 1 <= self.K0 < math.inf):
            raise DomainError(f"need finite C > 0, alpha > 0, K0 >= 1; got "
                              f"({self.C}, {self.alpha}, {self.K0})")

    def bound(self, K: float) -> float:
        return self.C * math.exp(-self.alpha * K)

    def bounds(self, ks: np.ndarray) -> np.ndarray:
        """`bound` per threshold, by `math.exp`: `np.exp` rounds some apart."""
        return np.array([self.bound(k) for k in ks.tolist()], float)


def _level_masses(m: HierarchicalMap, side: str):
    """The distinct cell dilatations, ascending, and per level k (rows) each
    cell's index into them and its mass, cell area times `areas[k - 1]`,
    in the order profiles and sweeps add them."""
    table = m.src if side == "domain" else m.dst
    t = m.templates
    area = t.domain_areas if side == "domain" else t.image_areas
    ks, which = np.unique(t.dilatations, return_inverse=True)
    # not reshape(depth, -1), which raises at depth 0
    shape = m.depth, math.prod(t.dilatations.shape[1:])
    mass = area * np.reshape(table.areas[:m.depth], (-1, 1, 1))
    return ks, which.reshape(shape), mass.reshape(shape)


def dilatation_profile(m: HierarchicalMap, side: str = "domain"
                       ) -> DilatationProfile:
    """Exact exceedance profile, aggregated per bit-distinct K: a twist
    and its half-turned copy share one K per cell, but mirror-image cells
    inside one template are solved apart and can still split a
    congruence class into several thresholds."""
    if side not in ("domain", "image"):
        raise DomainError(f"side must be 'domain' or 'image', got {side!r}")
    # each K's masses summed in (level, template, cell) order, then the
    # strict exceedance at each threshold as the suffix sum above it, both
    # added one term at a time from 0.0
    ks, which, mass = _level_masses(m, side)
    sums = np.zeros(len(ks))
    np.add.at(sums, which.ravel(), mass.ravel())
    above = np.cumsum(np.concatenate([[0.0], sums[::-1]]))
    table = m.src if side == "domain" else m.dst
    return DilatationProfile(ks, above[-2::-1], float(above[-1]),
                             table.areas[m.depth], side)


def check_david(profile: DilatationProfile, params: DavidParams
                ) -> tuple[bool, float]:
    """Verify area{K_phi >= K} + truncation <= C exp(-alpha K) at every
    threshold K > K0.

    Returns (flag, margin); margin is the minimum of log(bound / area) over
    the checked thresholds, +inf when no threshold exceeds K0 (a vacuous
    pass: nothing above K0 has positive area yet).
    """
    ks = profile.thresholds
    # the closed exceedance at a threshold is the strict one below it
    closed = np.append(profile.classified_area, profile.exceedances)[:-1]
    (flag,), (margin,) = _verdicts(
        (closed + profile.truncation_bound)[None], params.bounds(ks)[None],
        (ks > params.K0)[None])
    return flag, margin


def _verdicts(areas, bounds, mask):
    """Per row of (area, bound) pairs, counting the pairs where `mask`
    holds: whether every area is within its bound, and the minimum of
    log(bound / area), or log(bound) - log(area) past float range, over the
    positive areas (+inf when there is none, -inf where such a bound is 0).

    `math.log` is taken only of the ratios within a relative 1e-12 of the
    row's least, and the least log kept, so margins are those of a loop of
    `math.log`s bit for bit."""
    flags = ~(mask & (areas > bounds)).any(axis=1)
    counted = mask & (areas > 0)
    ratios = np.full(areas.shape, math.inf)
    with np.errstate(over="ignore"):  # a ratio past float range is inf
        np.divide(bounds, areas, out=ratios, where=counted)
        least = ratios.min(axis=1, initial=math.inf)
        cut = np.where(least > 0, least * (1 + 1e-12), -1)
    # no candidate in a row of least ratio 0 (-inf) or no positive area
    margins = np.where(least > 0, math.inf, -math.inf)
    rows, cols = np.nonzero(counted & (ratios <= cut[:, None]))
    bs = np.broadcast_to(bounds, areas.shape)[rows, cols].tolist()
    np.minimum.at(margins, rows, [
        math.log(q) if q < math.inf else math.log(b) - math.log(a) for q, b, a
        in zip(ratios[rows, cols].tolist(), bs, areas[rows, cols].tolist())])
    return flags.tolist(), margins.tolist()


def qc_dimension_bounds(K: float, alpha: float) -> tuple[float, float]:
    """Dimension-distortion interval for a K-quasiconformal image of a set
    of dimension alpha: (1/K)(1/a - 1/2) <= 1/b - 1/2 <= K(1/a - 1/2)."""
    if not K >= 1:
        raise DomainError(f"need K >= 1, got {K}")
    if not (0 <= alpha <= 2):
        raise DomainError(f"need alpha in [0, 2], got {alpha}")
    if alpha == 0.0:
        return (0.0, 0.0)
    t = 1.0 / alpha - 0.5
    return (2.0 / (2.0 * K * t + 1.0), 2.0 / (2.0 * t / K + 1.0))


def level_ratio(src: GaugeSequence, dst: GaugeSequence, k: int) -> float:
    """Level-k annulus modulus mismatch max{a'd/(ad'), ad'/(a'd)} with
    a_k = 2^{-(k+1)}(d_{k-1} - d_k); the per-level dilatation of the
    standard map is comparable to this quantity.  It is the relative
    (1/rho' - 1)/(1/rho - 1) of the ratios rho = d_k/d_{k-1}, with 1/rho - 1
    = 2^(e_k - e_{k-1}) - 1 read from the gauges' level tables."""
    if k < 1:
        raise DomainError(f"level must be >= 1, got {k}")
    _check_table_depth(k)
    tables = [Construction("lambda", g).table(k) for g in (src, dst)]
    ratios = [t.ratio[-1] for t in tables]
    if 0.0 in ratios or 1.0 in ratios:
        raise _gauge_error((src, dst), ratios, k)
    a, ap = (math.expm1((t.e[-1] - t.e[-2]) * math.log(2)) for t in tables)
    r = ap / a
    return max(r, 1.0 / r)


# (depth, threshold) cells per block of `_david_sweep`: 2 MB per float array
_SWEEP_CELLS = 1 << 18


def _david_sweep(m: HierarchicalMap, K0: float):
    """(C, alpha) = (1, 1) checks of the domain profile at depths 3..depth,
    in one pass over the levels.

    `check_david` of the depth-n profile skips every threshold <= K0, and
    the closed exceedance at a threshold is the suffix sum of the masses
    from the top down to it.  So each level's masses are added into the
    profile's sums in the profile's order, and a block of depths takes a
    row each of those sums above K0, top down, with the thresholds not yet
    seen at its depth adding an exact 0.0 and left out of its verdict:
    flags and margins are those of `check_david` bit for bit.
    """
    ks, which, mass = _level_masses(m, "domain")
    # the level at which each threshold is first seen, and the thresholds
    # above K0 from the top down
    born = np.full(len(ks), m.depth)
    np.minimum.at(born, which, np.arange(1, m.depth + 1)[:, None])
    tail = np.flatnonzero(ks > K0)[::-1]
    bounds = DavidParams(1.0, 1.0, K0).bounds(ks[tail])
    sums = np.zeros(len(ks))
    levels = zip(which, mass)
    out = []
    step = max(1, _SWEEP_CELLS // max(1, len(tail)))
    for lo in range(1, m.depth + 1, step):
        hi = min(lo + step, m.depth + 1)
        depths = np.arange(lo, hi)
        seen = born[tail] <= depths[-1]
        cols = tail[seen]
        block = np.empty((len(depths), len(cols)))
        for snapshot, (row, ms) in zip(block, levels):
            np.add.at(sums, row, ms)
            np.take(sums, cols, out=snapshot)
        areas = np.cumsum(block, axis=1, out=block)
        areas += np.array(m.src.areas[lo:hi])[:, None]
        flags, margins = _verdicts(areas, bounds[seen],
                                   born[cols] <= depths[:, None])
        out += [{"depth": n, "passed": flag, "margin": margin}
                for n, flag, margin in zip(depths.tolist(), flags, margins)
                if n >= 3]
    return out


@dataclass(frozen=True)
class Case:
    """A scenario of `report`, `david` and `profile --case`."""

    build: Callable[[int, float | None], HierarchicalMap]  # (n, nu) -> map
    default: float | None  # nu's default; None: no nu, `build` ignores it
    rate: str  # the growth of K_k that `rate_of(k)` computes
    rate_of: Callable[[int], float]
    K0: dict[str, float]  # the frozen David cutoff per direction
    level_params: tuple[tuple[str, str], ...] = ()  # (key, template param)
    endpoints: bool = False  # whether the report gives dimension bounds
    aliases: tuple[str, ...] = ()  # further names the CLI accepts


def _frozen_k0(case: str) -> dict[str, float]:
    return {d: FROZEN_K0[(case, d)] for d in ("forward", "inverse")}


# the scenarios, in the order the CLI lists them: three gauge pairings of
# theorem A (the endpoint dimension pairs) and theorem B's dimension-2 curve
CASES = {
    "slow_to_geometric": Case(
        lambda n, nu: standard_homeo(make_gauge("slow"),
                                     make_gauge("geometric", nu), n),
        1.0, "log k", math.log, _frozen_k0("slow_to_geometric"),
        endpoints=True),
    "geometric_to_fast": Case(
        lambda n, nu: standard_homeo(make_gauge("geometric", nu),
                                     make_gauge("fast"), n),
        1.0, "k^log 2", lambda k: k ** math.log(2.0),
        _frozen_k0("geometric_to_fast"), endpoints=True),
    "slow_to_fast": Case(
        lambda n, nu: standard_homeo(make_gauge("slow"), make_gauge("fast"),
                                     n),
        None, "k^log 2 * log k", lambda k: k ** math.log(2.0) * math.log(k),
        _frozen_k0("slow_to_fast"), endpoints=True),
    "theoremB": Case(
        lambda n, nu: theoremB_homeo(n), None, "sqrt k", math.sqrt,
        _frozen_k0("theoremB"), (("twist_a", "a"),), aliases=("theorem_b",)),
}


def report(case: str, n_max: int, param: float | None = None) -> dict:
    """Per-level K_k, template parameters and K_k / rate(k), endpoint
    bounds if the case has them, and David checks in both directions of
    `CASES[case]` with nu = `param` (None: the default; ignored if none)."""
    row = CASES.get(case)
    if row is None:
        raise DomainError(f"unknown case {case!r}; "
                          f"choose from {sorted(CASES)}")
    if n_max < 3:
        raise DomainError(f"n_max must be >= 3, got {n_max}")
    nu = row.default if param is None else param
    fwd = row.build(n_max, nu)
    cols = [(f, fwd.templates.param(p).tolist()) for f, p in row.level_params]
    levels = [{"level": k, "K": K, **{f: col[k - 1] for f, col in cols},
               "ratio": K / row.rate_of(k) if row.rate_of(k) > 0 else None}
              for k, K in max_dilatation_per_level(fwd)]
    out = {"case": case, **({} if row.default is None else {"nu": nu}),
           "rate": row.rate, "levels": levels}
    if row.endpoints:
        out["endpoints"] = {}
        for side, c in (("source", fwd.source), ("target", fwd.target)):
            b = dimension_bounds(c.gauge, 50)
            out["endpoints"][side] = {"gauge": c.gauge.describe(),
                                      "lower": b.lower, "upper": b.upper}
    out["david"] = {d: {"K0": row.K0[d], "checks": _david_sweep(m, row.K0[d])}
                    for d, m in (("forward", fwd), ("inverse", invert(fwd)))}
    return out


def theoremA_report(case: str, n_max: int, nu: float = 1.0) -> dict:
    """`report` of a theorem A gauge pairing."""
    return report(case, n_max, nu)


def theoremB_report(n_max: int) -> dict:
    """`report` of the 8-adic-to-square-nest map of theorem B."""
    return report("theoremB", n_max)
