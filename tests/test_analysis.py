import decimal
import functools
import itertools
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from qcforge import analysis
from qcforge.analysis import (CASES, DavidParams,
                              DilatationProfile, _david_sweep, check_david,
                              dilatation_profile, level_ratio,
                              qc_dimension_bounds, theoremA_report,
                              theoremB_report)
from qcforge.cantor import Construction, make_gauge
from qcforge.errors import DepthLimitError, DomainError
from qcforge.frozen import DIL_RATIO_BAND, FROZEN_K0
from qcforge.geometry import Triangle
from qcforge.homeo import (invert, max_dilatation_per_level, standard_homeo,
                           theoremB_homeo)

from conftest import gauge_d, profile_bits
from exact_levels import CONTEXT, exponent

SLOW = make_gauge("slow")
GEO1 = make_gauge("geometric", 1.0)
FAST = make_gauge("fast")


def _profile(ks, exceedances, classified, truncation=0.0):
    """A domain profile of the given columns and areas."""
    return DilatationProfile(np.array(ks, float), np.array(exceedances, float),
                             classified, truncation, "domain")


def test_identity_profile_is_flat():
    m = standard_homeo(GEO1, GEO1, 6)
    p = dilatation_profile(m)
    assert p.thresholds.dtype == p.exceedances.dtype == np.float64
    assert p.thresholds.tolist() == [1.0]
    assert p.exceedances.tolist() == [0.0]
    assert check_david(p, DavidParams(1.0, 1.0, 1.0)) == (True, math.inf)


def test_underflowed_bound_gives_minus_infinite_margin():
    # e^-K is 0 in floating point for K above about 745: positive area
    # there is a definite fail, with margin -inf, in both verdict paths
    p = _profile([1.0, 800.0], [0.5, 0.0], 1.0)
    assert check_david(p, DavidParams(1.0, 1.0, 1.0)) == (False, -math.inf)
    checks = _david_sweep(theoremB_homeo(16), FROZEN_K0[("theoremB",
                                                          "forward")])
    assert checks[-1] == {"depth": 16, "passed": False, "margin": -math.inf}


def test_profile_conservation_both_sides():
    for m in (standard_homeo(SLOW, GEO1, 9),
              standard_homeo(GEO1, FAST, 9),
              theoremB_homeo(9)):
        for side in ("domain", "image"):
            p = dilatation_profile(m, side)
            assert p.classified_area + p.truncation_bound \
                == pytest.approx(1.0, abs=1e-9)


def test_image_profile_equals_inverse_domain_profile():
    m = standard_homeo(SLOW, GEO1, 7)
    img = dilatation_profile(m, "image")
    dom_inv = dilatation_profile(invert(m), "domain")
    # every bit but the side's name
    assert profile_bits(img)[:-1] == profile_bits(dom_inv)[:-1]


def test_deeper_profiles_refine():
    """Depth n+1 keeps every depth-n threshold and adds more, and the
    exceedance above a depth-n threshold grows by at most the depth-n
    truncation area."""
    m = standard_homeo(SLOW, GEO1, 10)
    p9 = dilatation_profile(m.truncate(9))
    p10 = dilatation_profile(m)
    at = np.searchsorted(p10.thresholds, p9.thresholds)
    assert p10.thresholds[at].tolist() == p9.thresholds.tolist()
    assert len(p10.thresholds) > len(p9.thresholds)
    # the refinement only adds area at *larger* K, so the strict
    # exceedance grows by at most the level-10 gasket + truncation
    growth = p10.exceedances[at] - p9.exceedances
    assert (growth >= 0).all()
    assert (growth <= p9.truncation_bound + 1e-12).all()


@pytest.mark.parametrize("n", [16, 32])
def test_theoremB_profile_has_one_threshold_per_right_template_K(n):
    # the left twists share the right ones' dilatations bit for bit, so
    # they add no threshold of their own
    m = theoremB_homeo(n)
    right = np.concatenate([lv.templates[0].dilatations for lv in m.levels])
    assert len(dilatation_profile(m).thresholds) == \
        len(np.unique(right.view(np.int64)))


def test_exceedance_monotone():
    p = dilatation_profile(standard_homeo(SLOW, GEO1, 8))
    assert (np.diff(p.thresholds) > 0).all()
    # the area above nothing, then above each threshold in turn
    vals = [p.classified_area, *p.exceedances.tolist()]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] == 0.0


def _synthetic_profile():
    """Closed exceedance exactly e^{-K} at K = 2..9."""
    ks = list(range(2, 10))
    closed = [math.exp(-k) for k in ks]
    return _profile(ks, closed[1:] + [0.0], closed[0])


def test_check_david_on_exact_exponential_tail():
    # area{K >= k} = e^-k exactly: (1, 1) holds at every threshold with
    # margin at most rounding, and any faster decay fails
    p = _synthetic_profile()
    ok, margin = check_david(p, DavidParams(1.0, 1.0, 1.0))
    assert ok and margin == pytest.approx(0.0, abs=1e-12)
    assert check_david(p, DavidParams(1.0, 1.01, 1.0))[0] is False
    assert check_david(p, DavidParams(0.99, 1.0, 1.0))[0] is False


def test_check_david_constant_K_fails_nonvacuously():
    # positive area pinned at K = 10 beats any decaying bound past K0 < 10
    p = _profile([5.0, 10.0], [0.25, 0.0], 0.5)
    ok, margin = check_david(p, DavidParams(1.0, 5.0, 2.0))
    assert not ok
    assert margin < 0


def test_check_david_monotone_in_params():
    m = standard_homeo(SLOW, GEO1, 10)
    p = dilatation_profile(invert(m))
    base = DavidParams(1.0, 1.0, FROZEN_K0[("slow_to_geometric", "inverse")])
    assert check_david(p, base)[0]
    assert check_david(p, DavidParams(base.C * 10, base.alpha, base.K0))[0]
    assert check_david(p, DavidParams(base.C, base.alpha / 2, base.K0))[0]
    assert check_david(p, DavidParams(base.C, base.alpha, base.K0 + 5))[0]


def test_qc_dimension_bounds_examples():
    assert qc_dimension_bounds(1.0, 1.3) == pytest.approx((1.3, 1.3))
    assert qc_dimension_bounds(7.0, 2.0) == pytest.approx((2.0, 2.0))
    lo, hi = qc_dimension_bounds(2.0, 1.0)
    assert (lo, hi) == pytest.approx((2 / 3, 4 / 3))
    assert qc_dimension_bounds(3.0, 0.0) == (0.0, 0.0)


def test_qc_dimension_bounds_nest():
    inner = qc_dimension_bounds(1.5, 0.8)
    outer = qc_dimension_bounds(2.0, 0.8)
    assert outer[0] <= inner[0] <= inner[1] <= outer[1]
    with pytest.raises(DomainError):
        qc_dimension_bounds(0.5, 1.0)


def test_qc_dimension_bounds_reject_a_nan_K():
    with pytest.raises(DomainError, match="need K >= 1, got nan"):
        qc_dimension_bounds(math.nan, 1.0)
    assert qc_dimension_bounds(math.inf, 1.0) == (0.0, 2.0)


def test_david_params_are_finite():
    for bad in ((math.inf, 1.0, 1.0), (1.0, math.inf, 1.0),
                (1.0, 1.0, math.inf), (math.nan, 1.0, 1.0)):
        with pytest.raises(DomainError):
            DavidParams(*bad)


def test_level_ratio_bounds_dilatation():
    for src, dst in ((SLOW, GEO1), (GEO1, FAST), (SLOW, FAST)):
        m = standard_homeo(src, dst, 12)
        for k, K in max_dilatation_per_level(m):
            r = K / level_ratio(src, dst, k)
            assert DIL_RATIO_BAND[0] <= r <= DIL_RATIO_BAND[1], (k, r)


def test_level_ratio_names_a_flat_or_underflowed_gauge():
    with pytest.raises(DomainError, match="gauge geometric:1e-300 is flat "
                       "at level 3: d_3/d_2 is 1 in floating point"):
        level_ratio(make_gauge("geometric", 1e-300), SLOW, 3)
    with pytest.raises(DepthLimitError, match="gauge fast underflows at level "
                       "250: d_250 is 0 in floating point"):
        level_ratio(SLOW, FAST, 250)


def test_level_ratio_past_the_float_range_of_its_products():
    # a_k d'_k underflows to 0 from level 196, while d'_196 is about 2e-312
    with decimal.localcontext(CONTEXT):
        d = [[Decimal(2) ** -exponent(g, k) for k in (195, 196)]
             for g in (SLOW, FAST)]
        (s0, s1), (t0, t1) = d
        r = (t0 - t1) * s1 / ((s0 - s1) * t1)
        want = max(r, 1 / r)
    a = gauge_d(SLOW, 195) - gauge_d(SLOW, 196)
    assert a > 0 and gauge_d(FAST, 196) > 0
    assert a * gauge_d(FAST, 196) == 0.0
    got = level_ratio(SLOW, FAST, 196)
    assert abs(Decimal(got) - want) <= Decimal("1e-9") * want


# every kind of gauge, and geometric ones from steep to nearly flat
RATIO_GAUGES = [SLOW, FAST, make_gauge("sqrt"), GEO1] + \
    [make_gauge("geometric", nu) for nu in (2.0, 0.01, 1e-6)]


@functools.lru_cache(maxsize=None)
def _exact_insets(g, n=896):
    """(2^(e_k - e_{k-1}) - 1, whether d_k is normal) of levels 1..n, in
    `Decimal`: a_k/(2^-(k+1) d_k) = d_{k-1}/d_k - 1 from the gauge's
    closed form."""
    with decimal.localcontext(CONTEXT):
        e = [exponent(g, k) for k in range(n + 1)]
        return [(Decimal(2) ** (b - a) - 1, b <= 1022)
                for a, b in zip(e, e[1:])]


@pytest.mark.parametrize("src, dst", itertools.permutations(RATIO_GAUGES, 2),
                         ids=lambda g: g.describe())
def test_level_ratio_matches_the_exact_mismatch(src, dst, monkeypatch):
    # every level up to the table-depth bound where d_{k-1} and d_k are
    # normal on both sides
    want = []
    for (a, normal), (ap, normal_p) in zip(_exact_insets(src),
                                           _exact_insets(dst)):
        if not (normal and normal_p):
            break
        with decimal.localcontext(CONTEXT):
            want.append(max(ap / a, a / ap))
    deepest = level_ratio(src, dst, len(want))
    # the table of depth k is the first k levels of the depth-896 one, bit
    # for bit (`test_truncate_matches_direct_build`): build that one once
    full = functools.lru_cache(maxsize=None)(Construction.table)
    monkeypatch.setattr(Construction, "table",
                        lambda c, n: full(c, 896).truncate(n))
    got = [level_ratio(src, dst, k) for k in range(1, len(want) + 1)]
    assert got[-1] == deepest
    for k, (g, w) in enumerate(zip(got, want), 1):
        assert abs(Decimal(g) / w - 1) <= Decimal("1e-10"), k


def test_level_ratio_has_the_table_depth_bound():
    with pytest.raises(DepthLimitError,
                       match="^depth 897 is unreasonably large$"):
        level_ratio(SLOW, FAST, 897)
    assert level_ratio(SLOW, GEO1, 896) > 1.0


def test_geometric_pair_ratio_constant():
    # both gauges geometric: the modulus mismatch is independent of level
    g2 = make_gauge("geometric", 2.0)
    vals = [level_ratio(GEO1, g2, k) for k in range(1, 12)]
    expect = (2.0 ** 2 - 1) / (2.0 ** 1 - 1)
    assert all(v == pytest.approx(expect) for v in vals)
    m = standard_homeo(GEO1, g2, 12)
    ks = [K for _, K in max_dilatation_per_level(m)]
    assert max(ks[1:]) == pytest.approx(min(ks[1:]))  # bounded K


def test_theoremA_report_shape():
    rep = theoremA_report("slow_to_geometric", 8)
    assert rep["rate"] == "log k"
    assert len(rep["levels"]) == 8
    assert all(c["passed"] for c in rep["david"]["forward"]["checks"])
    # the frozen cutoffs are calibrated for depths >= 6; shallow inverse
    # checks may fail honestly because the truncation area is still large
    assert all(c["passed"] for c in rep["david"]["inverse"]["checks"]
               if c["depth"] >= 6)
    t = rep["endpoints"]["target"]
    assert t["lower"] <= 1.0 <= t["upper"]
    with pytest.raises(DomainError):
        theoremA_report("nope", 8)
    with pytest.raises(DomainError):
        theoremA_report("slow_to_fast", 2)


def test_theoremB_report_shape():
    rep = theoremB_report(6)
    assert [e["level"] for e in rep["levels"]] == [1, 2, 3, 4, 5, 6]
    assert rep["levels"][0]["twist_a"] == pytest.approx(0.125)
    assert all(c["passed"] for c in rep["david"]["forward"]["checks"])


def _cellwise_profile(m, side):
    """The profile summed cell by cell from `Triangle` areas, each mass
    scaled by the exact integer instance count."""
    masses = {}
    construction = m.source if side == "domain" else m.target
    table = construction.table(m.depth)
    # an annulus is drawn at half its parent's side around each of the four
    # children, a twist (to or from the 8-adic row) once at the full side
    twist = "sigma" in (m.source.family, m.target.family)
    for lv in m.levels:
        parent = table.sides[lv.k - 1]
        scale2 = (parent if twist else parent / 2.0) ** 2
        per_template = (1 if twist else 4) * 4 ** (lv.k - 1)
        for t in lv.templates:
            for (cell, amap), K in zip(t.pieces, t.dilatations.tolist()):
                area = cell.area if side == "domain" else \
                    Triangle(*(amap(v) for v in cell.vertices)).area
                masses[K] = masses.get(K, 0.0) + area * scale2 * per_template
    ks, strict, suffix = sorted(masses), [], 0.0
    for k in reversed(ks):
        strict.append(suffix)
        suffix += masses[k]
    return DilatationProfile(np.array(ks, float), np.array(strict[::-1]),
                             suffix, table.areas[m.depth], side)


def _reference_verdict(checks):
    """(flag, margin) of a David check's (area, bound) pairs, one pair at a
    time: whether every area is within its bound, and the minimum of
    log(bound / area) over the positive areas (+inf when there is none),
    taken as log(bound) - log(area) where the ratio overflows."""
    ok, margin = True, math.inf
    for area, b in checks:
        if area > b:
            ok = False
        if area > 0:
            # the bound can underflow to 0 for huge K; that is a definite fail
            q = math.log(b / area) if b > 0 else -math.inf
            if q == math.inf:
                q = math.log(b) - math.log(area)
            if q < margin:
                margin = q
    return ok, margin


def _reference_check(profile, params):
    """`check_david` as a loop over the thresholds above K0."""
    closed, above = [], profile.classified_area
    for k, strict in zip(profile.thresholds.tolist(),
                         profile.exceedances.tolist()):
        closed.append((k, above))
        above = strict
    return _reference_verdict((area + profile.truncation_bound,
                               params.bound(k))
                              for k, area in closed if k > params.K0)


def _reference_sweep(m, K0):
    """`_david_sweep` as a loop over the depths: each level's masses added
    into the profile's sums, then the seen thresholds above K0 summed from
    the top down and checked one at a time."""
    params = DavidParams(1.0, 1.0, K0)
    ks, which, mass = analysis._level_masses(m, "domain")
    sums = np.zeros(len(ks))
    seen = np.zeros(len(ks), bool)
    first = int(np.searchsorted(ks, K0, side="right"))
    tail_sums, tail_seen = sums[first:], seen[first:]
    bounds = np.array([params.bound(k) for k in ks[first:].tolist()])
    out = []
    for n, (row, ms, truncation) in enumerate(
            zip(which, mass, m.src.areas[1:]), 1):
        np.add.at(sums, row, ms)
        seen[row] = True
        if n < 3:
            continue
        top_down = np.flatnonzero(tail_seen)[::-1]
        areas = np.cumsum(tail_sums[top_down]) + truncation
        flag, margin = _reference_verdict(zip(areas.tolist(),
                                              bounds[top_down].tolist()))
        out.append({"depth": n, "passed": flag, "margin": margin})
    return out


def _bits(checks):
    return [(c["depth"], c["passed"], float.hex(c["margin"]))
            for c in checks]


def _resweep(m, K0):
    """The sweep's checks recomputed by the reference loop from the full
    profile at each depth."""
    params = DavidParams(1.0, 1.0, K0)
    out = []
    for n in range(3, m.depth + 1):
        passed, margin = _reference_check(dilatation_profile(m.truncate(n)),
                                          params)
        out.append({"depth": n, "passed": passed, "margin": margin})
    return out


def _case_map(case, depth):
    return CASES[case].build(depth, CASES[case].default)


@pytest.mark.parametrize("case", [*CASES])
def test_incremental_sweep_matches_reprofiling(case):
    fwd = _case_map(case, 48)
    for direction, m in (("forward", fwd), ("inverse", invert(fwd))):
        K0 = FROZEN_K0[(case, direction)]
        assert _bits(_david_sweep(m, K0)) == _bits(_resweep(m, K0))
        # from n = 32 on, a level's 4^(n-1) instances pass 2^63
        for n in (1, 31, 32, 48):
            for side in ("domain", "image"):
                assert profile_bits(dilatation_profile(m.truncate(n), side)) \
                    == profile_bits(_cellwise_profile(m.truncate(n), side))


@pytest.mark.parametrize("case", [*CASES])
def test_sweep_matches_check_david_beyond_frozen_cutoffs(case):
    # the sweep keeps only the thresholds above K0; cover K0 = 1 (nearly
    # all of them), K0 on a threshold (the strict >: nothing lies above the
    # top one at full depth), and K0 above all of them (vacuous at every
    # depth), at depth 64 for theorem B, against the reference check of
    # each depth's profile
    fwd = _case_map(case, 64 if case == "theoremB" else 48)
    for m in (fwd, invert(fwd)):
        ks = dilatation_profile(m).thresholds.tolist()
        for K0 in (1.0, ks[len(ks) // 2], ks[-1], 2.0 * ks[-1]):
            assert _bits(_david_sweep(m, K0)) == _bits(_resweep(m, K0))
        assert _david_sweep(m, ks[-1])[-1]["margin"] == math.inf
        assert all(c["passed"] and c["margin"] == math.inf
                   for c in _david_sweep(m, 2.0 * ks[-1]))
        assert any(c["margin"] < math.inf for c in _david_sweep(m, 1.0))


@pytest.mark.parametrize("case", ["slow_to_fast", "theoremB"])
def test_deep_sweep_matches_check_david(case):
    # at depth 200 masses, truncation areas and bounds reach 0 in floating
    # point (at theorem B's frozen K0 most margins are -inf): the sweep must
    # still read what the reference check of each profile reads
    fwd = _case_map(case, 200)
    for direction, m in (("forward", fwd), ("inverse", invert(fwd))):
        for K0 in (FROZEN_K0[(case, direction)], 1.0):
            assert _bits(_david_sweep(m, K0)) == _bits(_resweep(m, K0))


@pytest.mark.parametrize("cells", [analysis._SWEEP_CELLS, 5000])
@pytest.mark.parametrize("case", [*CASES])
def test_sweep_matches_the_reference_loop_to_depth_200(monkeypatch, case,
                                                       cells):
    # every depth 3..200, in blocks of the default size and in blocks of a
    # few depths (one depth where a block row holds more than 5000 cells)
    monkeypatch.setattr(analysis, "_SWEEP_CELLS", cells)
    fwd = _case_map(case, 200)
    for direction, m in (("forward", fwd), ("inverse", invert(fwd))):
        for K0 in (FROZEN_K0[(case, direction)], 1.0):
            assert _bits(_david_sweep(m, K0)) == \
                _bits(_reference_sweep(m, K0))


def _tied_profiles(rng):
    """Profiles whose ratios bound / area tie exactly or to a few ulps,
    some with zero areas at the top and some with positive areas at
    thresholds where the bound underflows to 0, with the (C, alpha) they
    were made for."""
    for i in range(200):
        n = int(rng.integers(1, 10))
        ks = 1.0 + np.cumsum(rng.uniform(0.0, 3.0, n) + 1e-9)
        if i % 4 == 3:
            ks *= 200.0
        C, alpha = [(1.0, 1.0), (3.0, 0.5), (1e-16, 2.0)][i % 3]
        bounds = np.array([C * math.exp(-alpha * k) for k in ks.tolist()])
        # ratio 2 exactly, or 1.5 off by up to two ulps
        scale = 0.5 if i % 2 else \
            (1 + rng.integers(-2, 3, n) * 2.0 ** -52) / 1.5
        closed = bounds * scale
        if i % 4 == 3:
            # positive areas where bounds underflow
            closed = np.maximum(closed, np.linspace(0.5, 0.1, n))
        closed[n - int(rng.integers(0, 3)):] = 0.0
        truncation = 0.0 if i % 5 else float(closed[-1]) / 4
        yield _profile(ks, np.append(closed[1:], 0.0), float(closed[0]),
                       truncation), C, alpha


def test_check_david_matches_the_reference_loop(rng):
    margins = set()
    for p, C, alpha in _tied_profiles(rng):
        ks = p.thresholds.tolist()
        # K0 below, on and above every threshold
        for K0 in (1.0, *ks, 2.0 * ks[-1]):
            params = DavidParams(C, alpha, K0)
            got = check_david(p, params)
            want = _reference_check(p, params)
            assert (got[0], float.hex(got[1])) == \
                (want[0], float.hex(want[1])), (p, params)
            margins.add(got[1])
    assert {math.inf, -math.inf} <= margins
    assert any(math.isfinite(q) for q in margins)


def test_verdicts_take_a_log_difference_where_every_ratio_overflows():
    def verdict(areas, bounds):
        return analysis._verdicts(np.array([areas]), np.array([bounds]),
                                  np.array([[True] * len(areas)]))

    # 1 / 1e-310 is past float range; log 1 - log 1e-310 is about 713.8
    flags, (margin,) = verdict([1e-310], [1.0])
    assert flags == [True]
    assert margin == -math.log(1e-310)
    assert margin == _reference_verdict([(1e-310, 1.0)])[1]
    # a finite ratio in the row is the least, bit for bit as before
    assert verdict([1e-310, 0.25], [1.0, 0.5]) == ([True], [math.log(2.0)])
    assert verdict([1e-310, 0.0], [0.0, 1.0]) == ([False], [-math.inf])


def test_verdicts_take_bounds_from_math_exp_and_margins_from_math_log(
        monkeypatch):
    # on this profile np.exp differs from math.exp in the last bit at some
    # thresholds (161 of 3,684 at (C, alpha) = (2, 0.01) on x86-64 with
    # numpy 2.4)
    p = dilatation_profile(invert(theoremB_homeo(200)))
    ks = p.thresholds.tolist()
    calls = []
    kernel = analysis._verdicts

    def spy(areas, bounds, mask):
        calls.append((areas[0].tolist(), bounds[0].tolist()))
        return kernel(areas, bounds, mask)

    def checked(params, exp, log):
        """Whether the kernel's bounds were C exp(-alpha K) and its margin
        the log of the least ratio, with `exp` and `log` the functions it
        is to use."""
        _, margin = check_david(p, params)
        areas, bounds = calls.pop()
        want = [params.C * exp(-params.alpha * k) for k in ks]
        least = min(b / a for k, a, b in zip(ks, areas, want)
                    if k > params.K0 and a > 0)
        return bounds == want, margin == log(least)

    monkeypatch.setattr(analysis, "_verdicts", spy)
    for params in (DavidParams(1.0, 0.1, 1.0), DavidParams(2.0, 0.01, 1.0),
                   DavidParams(1.0, 0.1, ks[len(ks) // 2])):
        assert checked(params, math.exp, math.log) == (True, True)
    # a kernel that took its functions from anywhere but `math` would not
    # see them moved by an ulp
    nudged = type(math)("math")
    nudged.__dict__.update(vars(math))
    nudged.exp = lambda x: math.nextafter(math.exp(x), math.inf)
    nudged.log = lambda x: math.nextafter(math.log(x), math.inf)
    monkeypatch.setattr(analysis, "math", nudged)
    assert checked(DavidParams(2.0, 0.01, 1.0), nudged.exp, nudged.log) == \
        (True, True)


def test_sweep_peak_memory_is_bounded_by_its_blocks():
    # one unblocked array of the depth-400 theorem B inverse sweep is
    # 400 x 2,978 thresholds above K0 x 8 bytes, 9.5 MB
    m = invert(theoremB_homeo(400))
    tracemalloc.start()
    try:
        _david_sweep(m, FROZEN_K0[("theoremB", "inverse")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20
