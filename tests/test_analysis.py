import math

import numpy as np
import pytest

from qcforge.analysis import (CASES, DavidParams,
                              DilatationProfile, _david_sweep, check_david,
                              dilatation_profile, level_ratio,
                              qc_dimension_bounds, theoremA_report,
                              theoremB_report)
from qcforge.cantor import make_gauge
from qcforge.errors import DomainError
from qcforge.frozen import DIL_RATIO_BAND, FROZEN_K0
from qcforge.geometry import Triangle
from qcforge.homeo import (invert, max_dilatation_per_level, standard_homeo,
                           theoremB_homeo)

SLOW = make_gauge("slow")
GEO1 = make_gauge("geometric", 1.0)
FAST = make_gauge("fast")


def test_identity_profile_is_flat():
    m = standard_homeo(GEO1, GEO1, 6)
    p = dilatation_profile(m)
    assert p.thresholds == (1.0,)
    assert p.entries[0][1] == 0.0
    assert p.exceedance(1.0) == 0.0
    assert check_david(p, DavidParams(1.0, 1.0, 1.0)) == (True, math.inf)


def test_underflowed_bound_gives_minus_infinite_margin():
    # e^-K is 0 in floating point for K above about 745: positive area
    # there is a definite fail, with margin -inf, in both verdict paths
    p = DilatationProfile(((1.0, 0.5), (800.0, 0.0)), 1.0, 0.0, "domain")
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
    assert img.entries == dom_inv.entries
    assert img.truncation_bound == dom_inv.truncation_bound


def test_deeper_profiles_refine():
    """Depth n+1 adds thresholds but leaves the exceedance above any level
    <= n threshold unchanged."""
    m = standard_homeo(SLOW, GEO1, 10)
    p9 = dilatation_profile(m.truncate(9))
    p10 = dilatation_profile(m)
    for k in p9.thresholds:
        assert p10.exceedance(k) >= p9.exceedance(k)
        # the refinement only adds area at *larger* K, so the strict
        # exceedance grows by at most the level-10 gasket + truncation
        assert p10.exceedance(k) - p9.exceedance(k) \
            <= p9.truncation_bound + 1e-12


@pytest.mark.parametrize("n", [16, 32])
def test_theoremB_profile_has_one_threshold_per_right_template_K(n):
    # the left twists share the right ones' dilatations bit for bit, so
    # they add no threshold of their own
    m = theoremB_homeo(n)
    right = np.concatenate([lv.templates[0].dilatations for lv in m.levels])
    assert len(dilatation_profile(m).entries) == \
        len(np.unique(right.view(np.int64)))


def test_exceedance_monotone():
    p = dilatation_profile(standard_homeo(SLOW, GEO1, 8))
    ks = [0.5] + list(p.thresholds) + [1e9]
    vals = [p.exceedance(k) for k in ks]
    assert vals == sorted(vals, reverse=True)
    assert vals[-1] == 0.0


def _synthetic_profile():
    """Closed exceedance exactly e^{-K} at K = 2..9."""
    ks = list(range(2, 10))
    closed = [math.exp(-k) for k in ks]
    entries = tuple((k, closed[i + 1] if i + 1 < len(ks) else 0.0)
                    for i, k in enumerate(ks))
    return DilatationProfile(entries, closed[0], 0.0, "domain")


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
    p = DilatationProfile(((5.0, 0.25), (10.0, 0.0)), 0.5, 0.0, "domain")
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
    for lv in m.levels:
        # annulus templates are drawn at half their parent's side, twist
        # templates at its full side
        parent = construction.side(lv.k - 1)
        scale2 = (parent / 2.0 if m.kind == "standard" else parent) ** 2
        per_template = len(lv.placements) * 4 ** (lv.k - 1) \
            // len(lv.templates)
        for t in lv.templates:
            for (cell, amap), K in zip(t.pieces, t.dilatations.tolist()):
                area = cell.area if side == "domain" else \
                    Triangle(*(amap(v) for v in cell.vertices)).area
                masses[K] = masses.get(K, 0.0) + area * scale2 * per_template
    entries, suffix = [], 0.0
    for k in sorted(masses, reverse=True):
        entries.append((k, suffix))
        suffix += masses[k]
    return DilatationProfile(tuple(reversed(entries)), suffix,
                             construction.level_area(m.depth), side)


def _resweep(m, K0):
    """The sweep's checks recomputed from the full profile at each depth."""
    params = DavidParams(1.0, 1.0, K0)
    out = []
    for n in range(3, m.depth + 1):
        passed, margin = check_david(dilatation_profile(m.truncate(n)), params)
        out.append({"depth": n, "passed": passed, "margin": margin})
    return out


def _case_map(case, depth):
    return CASES[case].build(depth, CASES[case].default)


@pytest.mark.parametrize("case", [*CASES])
def test_incremental_sweep_matches_reprofiling(case):
    fwd = _case_map(case, 48)
    for direction, m in (("forward", fwd), ("inverse", invert(fwd))):
        K0 = FROZEN_K0[(case, direction)]
        assert _david_sweep(m, K0) == _resweep(m, K0)
        # from n = 32 on, a level's 4^(n-1) instances pass 2^63
        for n in (1, 31, 32, 48):
            for side in ("domain", "image"):
                assert dilatation_profile(m.truncate(n), side) == \
                    _cellwise_profile(m.truncate(n), side)


@pytest.mark.parametrize("case", [*CASES])
def test_sweep_matches_check_david_beyond_frozen_cutoffs(case):
    # the sweep keeps only the thresholds above K0; cover K0 = 1 (nearly
    # all of them), K0 on a threshold (the strict >: nothing lies above the
    # top one at full depth), and K0 above all of them (vacuous at every
    # depth), at depth 64 for theorem B
    fwd = _case_map(case, 64 if case == "theoremB" else 48)
    for m in (fwd, invert(fwd)):
        ks = dilatation_profile(m).thresholds
        for K0 in (1.0, ks[len(ks) // 2], ks[-1], 2.0 * ks[-1]):
            assert _david_sweep(m, K0) == _resweep(m, K0)
        assert _david_sweep(m, ks[-1])[-1]["margin"] == math.inf
        assert all(c["passed"] and c["margin"] == math.inf
                   for c in _david_sweep(m, 2.0 * ks[-1]))
        assert any(c["margin"] < math.inf for c in _david_sweep(m, 1.0))


@pytest.mark.parametrize("case", ["slow_to_fast", "theoremB"])
def test_deep_sweep_matches_check_david(case):
    # at depth 200 masses, truncation areas and bounds reach 0 in floating
    # point (at theorem B's frozen K0 most margins are -inf): the sweep must
    # still read what `check_david` of each profile reads
    fwd = _case_map(case, 200)
    for direction, m in (("forward", fwd), ("inverse", invert(fwd))):
        for K0 in (FROZEN_K0[(case, direction)], 1.0):
            assert _david_sweep(m, K0) == _resweep(m, K0)


