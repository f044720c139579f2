"""Exact level arithmetic in `decimal`: an oracle below float range.

At 40 significant digits and with the least exponent `decimal.MIN_EMIN`, a
`Decimal` holds every side 2^(-k) d_k, instance count and mass of a level a
map can have, where a float underflows to 0 or overflows.  The oracle takes
a map's float inputs as they are, since each is representable: the cell
dilatations K, the cell areas of the unit-frame templates and the gauges'
kinds and parameters.  The template scale and the instance count per
template it takes from the constructions' families, not from the map's
slots: 1/2 and four per parent between two square nests, 1 and one per
parent where the 8-adic row is a side.  Everything else is computed here
again, one `Decimal` operation at a time: the gauge
exponents e_k of d_k = 2^(-e_k), the sides, the instance counts, the
masses (cell area times (parent side times template scale)^2 times count),
the truncation area d_n^2, the suffix sums of the masses above each
threshold and the David bounds C e^(-alpha K).
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal

CONTEXT = decimal.Context(prec=40, Emin=decimal.MIN_EMIN,
                          Emax=decimal.MAX_EMAX)


def exponent(gauge, k: int) -> Decimal:
    """e_k of the gauge value d_k = 2^(-e_k), from the gauge's closed
    form: nu k (geometric), k / ln(k + e) (slow), k ln(k + 1) (fast),
    sqrt k (sqrt)."""
    n = Decimal(k)
    with decimal.localcontext(CONTEXT):
        if gauge.kind == "geometric":
            return Decimal(gauge.nu) * n
        if gauge.kind == "slow":
            return n / (n + Decimal(1).exp()).ln()
        if gauge.kind == "fast":
            return n * (n + 1).ln()
        if gauge.kind == "sqrt":
            return n.sqrt()
    raise ValueError(f"unknown gauge kind {gauge.kind!r}")


@dataclass(frozen=True)
class ExactLevels:
    """One side of a map, level by level, in `Decimal`."""

    sides: list[Decimal]  # 2^(-k) d_k, levels 0..depth
    masses: list[list[Decimal]]  # per level 1..depth, per (template, cell)
    truncation: Decimal  # d_depth^2, the area of the deepest squares


def exact_levels(m, side: str) -> ExactLevels:
    """The levels of `m` on its "domain" or "image" side."""
    construction = m.source if side == "domain" else m.target
    t = m.templates
    areas = t.domain_areas if side == "domain" else t.image_areas
    # an annulus sits at half side around each of a parent's four children;
    # a twist, on a map to or from the 8-adic row, once at full side
    twist = "sigma" in (m.source.family, m.target.family)
    copies, scale = (1, Decimal(1)) if twist else (4, Decimal("0.5"))
    with decimal.localcontext(CONTEXT):
        d = [Decimal(2) ** -exponent(construction.gauge, k)
             for k in range(m.depth + 1)]
        sides = [dk / Decimal(2) ** k for k, dk in enumerate(d)]
        counts = [copies * 4 ** (k - 1) for k in range(1, m.depth + 1)]
        masses = [[Decimal(a) * (sides[k - 1] * scale) ** 2 * count
                   for a in areas[k - 1].ravel().tolist()]
                  for k, count in enumerate(counts, 1)]
        return ExactLevels(sides, masses, d[-1] ** 2)


@dataclass(frozen=True)
class ExactProfile:
    """The exceedance profile of one side of a map, in `Decimal`."""

    thresholds: list[float]  # the distinct cell dilatations, ascending
    exceedances: list[Decimal]  # the mass strictly above each
    classified: Decimal  # all the mass
    truncation: Decimal


def exact_profile(m, side: str) -> ExactProfile:
    """Each distinct K's masses summed, then the suffix sums above each."""
    levels = exact_levels(m, side)
    per_k: dict[float, Decimal] = {}
    with decimal.localcontext(CONTEXT):
        for ks, masses in zip(m.templates.dilatations.tolist(),
                              levels.masses):
            for k, mass in zip((k for row in ks for k in row), masses):
                per_k[k] = per_k.get(k, Decimal(0)) + mass
        thresholds = sorted(per_k)
        exceedances, above = [], Decimal(0)
        for k in reversed(thresholds):
            exceedances.append(above)
            above += per_k[k]
    return ExactProfile(thresholds, exceedances[::-1], above,
                        levels.truncation)


def exact_bound(C: float, alpha: float, K: float) -> Decimal:
    """C e^(-alpha K)."""
    with decimal.localcontext(CONTEXT):
        return Decimal(C) * (-Decimal(alpha) * Decimal(K)).exp()
