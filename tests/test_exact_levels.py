"""The float profile path against the exact `decimal` oracle of
`exact_levels.py`.

Where floats are normal, sides, masses, exceedances, areas and bounds agree
with the oracle to a relative 1e-12.  Where they are not, the oracle still
holds the true values, and the strict xfails name what floats give today:
ROADMAP item 1 (exceedance arithmetic in log space) is to mend them.
"""

import decimal
import sys
from decimal import Decimal

import numpy as np
import pytest

from qcforge import analysis
from qcforge.analysis import CASES, DavidParams, dilatation_profile
from qcforge.cantor import dimension_bounds, make_gauge
from qcforge.homeo import invert, standard_homeo

from exact_levels import CONTEXT, exact_bound, exact_levels, \
    exact_profile, exponent

MIN_NORMAL = Decimal(sys.float_info.min)


def _agree(got: float, want: Decimal) -> bool:
    """Whether `got` is within a relative 1e-12 of `want` (0 if it is 0)."""
    with decimal.localcontext(CONTEXT):
        return abs(Decimal(got) - want) <= Decimal("1e-12") * abs(want)


def _disagreeing(got, want) -> list:
    """The indices where the float values `got` and the exact `want`
    disagree; both must have one value per index."""
    got, want = list(got), list(want)
    assert len(got) == len(want)
    return [i for i, (g, w) in enumerate(zip(got, want)) if not _agree(g, w)]


def _map(case, direction, depth):
    m = CASES[case].build(depth, CASES[case].default)
    return invert(m) if direction == "inverse" else m


@pytest.mark.parametrize("side", ["domain", "image"])
@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("case", [*CASES])
def test_the_float_path_agrees_with_the_oracle_at_depth_40(case, direction,
                                                           side):
    m = _map(case, direction, 40)
    exact = exact_levels(m, side)
    table = m.src if side == "domain" else m.dst
    assert _disagreeing(table.sides, exact.sides) == []
    _, _, mass = analysis._level_masses(m, side)
    # every mass is a normal float at depth 40
    assert (mass >= sys.float_info.min).all()
    assert _disagreeing(mass.ravel().tolist(),
                        [w for level in exact.masses for w in level]) == []

    p = dilatation_profile(m, side)
    want = exact_profile(m, side)
    assert p.thresholds.tolist() == want.thresholds
    assert _disagreeing(p.exceedances.tolist(), want.exceedances) == []
    assert _agree(p.classified_area, want.classified)
    assert _agree(p.truncation_bound, want.truncation)
    assert p.truncation_bound >= sys.float_info.min

    # bounds where the exact one is a normal float: at (1, 1), K < 708
    for C, alpha in ((1.0, 1.0), (3.0, 0.01)):
        got = DavidParams(C, alpha, 1.0).bounds(p.thresholds).tolist()
        exact_bounds = [exact_bound(C, alpha, k) for k in want.thresholds]
        normal = [i for i, b in enumerate(exact_bounds) if b >= MIN_NORMAL]
        assert normal
        assert _disagreeing([got[i] for i in normal],
                            [exact_bounds[i] for i in normal]) == []


@pytest.mark.parametrize("side", ["domain", "image"])
@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("case", [*CASES])
def test_every_normal_mass_agrees_with_the_oracle_at_the_table_depth(
        case, direction, side):
    # the table bound at the default guard; a fast gauge underflows at
    # level 203, so its maps stop at 202
    m = _map(case, direction, 202 if "fast" in case else 896)
    _, _, mass = analysis._level_masses(m, side)
    want = [w for level in exact_levels(m, side).masses for w in level]
    normal = [i for i, w in enumerate(want) if w >= MIN_NORMAL]
    assert len(normal) > len(want) // 4
    got = mass.ravel().tolist()
    assert _disagreeing([got[i] for i in normal],
                        [want[i] for i in normal]) == []


def _fast_domain():
    return standard_homeo(make_gauge("fast"), make_gauge("slow"), 100)


def test_the_oracle_holds_what_floats_lose():
    # the true values behind the checks below, each positive
    low, high = Decimal(2) ** -900, Decimal(2) ** -880
    masses = exact_levels(_fast_domain(), "domain").masses[97]
    assert all(low < w < high and w >= MIN_NORMAL for w in masses)
    deep = exact_profile(_map("geometric_to_fast", "inverse", 150), "domain")
    assert deep.exceedances[-1] == 0
    assert all(w > 0 for w in deep.exceedances[:-1])
    assert Decimal("1e-532") < exact_bound(1.0, 1.0, 1223.0) \
        < Decimal("1e-531")
    # the sides behind `dims --gauge fast --levels 300`'s scales, levels
    # 200..300: about 2^-1261 to 2^-2012
    fast = make_gauge("fast")
    with decimal.localcontext(CONTEXT):
        sides = [Decimal(2) ** -(k + exponent(fast, k))
                 for k in range(200, 301)]
    assert all(Decimal(2) ** -2013 < w < Decimal(2) ** -1260 for w in sides)


def test_level_98_masses_of_a_fast_domain_are_not_zero():
    # each is about 2^-890, a normal float: the cell area times the
    # level-97 area d_97^2, with no square of a side below float range
    m = _fast_domain()
    _, _, mass = analysis._level_masses(m, "domain")
    assert _disagreeing(mass[97].tolist(),
                        exact_levels(m, "domain").masses[97]) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1")
def test_deep_inverse_profile_has_no_zero_exceedance_below_its_top():
    # 37 of the 299 below the top are 0 today, true values from about
    # 1e-452 to 1e-324, all below float range
    p = dilatation_profile(_map("geometric_to_fast", "inverse", 150))
    assert np.count_nonzero(p.exceedances[:-1] == 0.0) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1")
def test_theorem_b_bound_at_its_cutoff_is_not_zero():
    # e^-1223 is about 7.2e-532, below float range
    assert _agree(DavidParams(1.0, 1.0, 1223.0).bound(1223.0),
                  exact_bound(1.0, 1.0, 1223.0))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1")
def test_dims_scales_of_a_fast_gauge_at_level_300_are_not_zero():
    # all 101 sides of the tail lie below float range and print as 0 today
    scales = dimension_bounds(make_gauge("fast"), 300).scales_used
    assert len(scales) == 101
    assert all(w > 0 for w in scales)
