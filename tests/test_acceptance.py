"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; each assertion pins the stated tolerance.
"""

import math
import time

import numpy as np

from qcforge.analysis import (DavidParams, check_david, dilatation_profile)
from qcforge.cantor import (Construction, box_dimension, build_level,
                            build_sigma_level, frostman_profile, make_gauge)
from qcforge.frozen import (ANNULUS_BAND, FROSTMAN_BOUND, FROZEN_K0,
                            THEOREM_A_RATE_BANDS, THEOREM_B_RATE_BAND,
                            TWIST_BAND)
from qcforge.geometry import Point, Triangle, affine_three_point, dilatation
from qcforge.homeo import (curve_box_dimension, evaluate, invert,
                           max_dilatation_per_level, standard_homeo,
                           theoremB_homeo)
from qcforge.qcmaps import (annulus_extension, annulus_extension_any,
                            twist_extension, validate)

from conftest import dilatation_three_point, gauge_d, random_affines, \
    svd_dilatation

SLOW = make_gauge("slow")
FAST = make_gauge("fast")
SQRT = make_gauge("sqrt")
GEO1 = make_gauge("geometric", 1.0)

CASES = {
    "slow_to_geometric": (SLOW, GEO1, lambda k: math.log(k)),
    "geometric_to_fast": (GEO1, FAST, lambda k: k ** math.log(2.0)),
    "slow_to_fast": (SLOW, FAST,
                     lambda k: k ** math.log(2.0) * math.log(k)),
}


def _verdict(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_dilatation_oracle():
    t0 = time.perf_counter()
    worst = max(abs(dilatation(m) - svd_dilatation(m))
                for m in random_affines(10_000, seed=42))
    rng = np.random.default_rng(43)
    worst_kl = 0.0
    for _ in range(500):
        z = Point(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
        w = Point(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
        m = affine_three_point(Triangle(Point(0, 0), Point(1, 0), z),
                               Triangle(Point(0, 0), Point(1, 0), w))
        worst_kl = max(worst_kl, abs(dilatation_three_point(z, w)
                                     - dilatation(m)))
    dt = time.perf_counter() - t0
    _verdict(1, worst <= 1e-9 and worst_kl <= 1e-9 and dt < 1.0,
             f"svd diff {worst:.2e}, three-point diff {worst_kl:.2e}, "
             f"{dt:.2f}s")


def test_criterion_02_exact_areas():
    t0 = time.perf_counter()
    gauges = [make_gauge("geometric", nu) for nu in (0.5, 1.0, 2.0)] \
        + [SLOW, FAST, SQRT]
    worst = 0.0
    for g in gauges:
        for n in range(0, 11):
            worst = max(worst, abs(build_level(g, n).total_area
                                   - gauge_d(g, n) ** 2))
    worst_s = max(abs(build_sigma_level(n).total_area - 16.0 ** (-n))
                  for n in range(0, 11))
    dt = time.perf_counter() - t0
    _verdict(2, worst <= 1e-12 and worst_s <= 1e-12 and dt < 5.0,
             f"square-nest defect {worst:.2e}, 8-adic defect {worst_s:.2e}, "
             f"{dt:.2f}s")


def test_criterion_03_dimension_estimators():
    from qcforge.cantor import dimension_bounds
    t0 = time.perf_counter()
    ok = True
    details = []
    for nu in (0.5, 1.0, 2.0):
        est = dimension_bounds(make_gauge("geometric", nu), 50)
        target = 2.0 / (nu + 1.0)
        ok &= est.upper - target <= 0.05 and target - est.lower <= 0.05
        details.append(f"nu={nu:g}:[{est.lower:.3f},{est.upper:.3f}]")
    box = box_dimension(Construction("sigma"), [4, 6, 8])
    ok &= abs(box.value - 2.0 / 3.0) <= 0.05
    low = max(r for _, r in frostman_profile(GEO1, 8, 0.9, seed=12345))
    prof = frostman_profile(GEO1, 8, 1.1, seed=12345)
    half = len(prof) // 2
    trend = max(r for _, r in prof[half:]) > 1.5 * max(r for _, r in
                                                       prof[:half])
    ok &= low <= FROSTMAN_BOUND and trend
    dt = time.perf_counter() - t0
    _verdict(3, ok and dt < 30.0,
             f"{' '.join(details)}, box {box.value:.3f}, frostman "
             f"{low:.3f}<= {FROSTMAN_BOUND} & growing, {dt:.1f}s")


def test_criterion_04_annulus_band():
    t0 = time.perf_counter()
    grid = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
    ratios = []
    for a in grid:
        for b in grid:
            if a == b:
                continue
            form = max(b * (1 - 2 * a) / (a * (1 - 2 * b)),
                       a * (1 - 2 * b) / (b * (1 - 2 * a)))
            ratios.append(annulus_extension_any(a, b).max_dilatation / form)
    in_band = all(ANNULUS_BAND[0] <= r <= ANNULUS_BAND[1] for r in ratios)
    identity_exact = all(annulus_extension(a, a).max_dilatation == 1.0
                         for a in grid)
    band_ratio = max(ratios) / min(ratios)
    dt = time.perf_counter() - t0
    _verdict(4, in_band and band_ratio <= 16 and identity_exact and dt < 5.0,
             f"K/form in [{min(ratios):.3f},{max(ratios):.3f}], spread "
             f"{band_ratio:.2f} <= 16, a=b exact, {dt:.2f}s")


def test_criterion_05_twist_band():
    t0 = time.perf_counter()
    ok = True
    kas = []
    for a in np.arange(0.02, 0.1801, 0.02):
        a = float(a)
        t = twist_extension(a)
        rep = validate(t, target_area=0.5 - 2 * (0.5 - 2 * a) ** 2, tol=1e-9)
        ok &= rep.continuous and rep.oriented \
            and rep.surjective_area_defect <= 1e-9
        kas.append(t.max_dilatation * a)
    in_band = all(TWIST_BAND[0] <= v <= TWIST_BAND[1] for v in kas)
    spread = max(kas) / min(kas)
    dt = time.perf_counter() - t0
    _verdict(5, ok and in_band and spread <= 16 and dt < 10.0,
             f"K*a in [{min(kas):.2f},{max(kas):.2f}], spread "
             f"{spread:.2f} <= 16, all validate, {dt:.2f}s")


def test_criterion_06_standard_homeo_contract():
    rng = np.random.default_rng(44)
    pairs = [(SLOW, GEO1), (GEO1, FAST), (SQRT, make_gauge("geometric", 2.0))]
    ok = True
    worst_rt = 0.0
    for src, dst in pairs:
        m = standard_homeo(src, dst, 10)
        # property (i): once a point resolves in a gasket, deeper maps agree
        for k in range(2, 11):
            shallow = m.truncate(k - 1)
            deep = m.truncate(k)
            done = 0
            while done < 200:
                z = Point(*rng.uniform(-0.5, 0.5, 2))
                r0 = evaluate(shallow, z)
                if r0.error_bound != 0.0:
                    continue
                ok &= evaluate(deep, z).point.dist(r0.point) <= 1e-12
                done += 1
        # property (ii): corners of level-10 squares land on target corners
        src_c, dst_c = m.corresponding_centers(10)
        hs = m.source.table(10).sides[10] / 2
        hd = m.target.table(10).sides[10] / 2
        for i in rng.integers(0, len(src_c), 300):
            for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
                z = Point(src_c[i][0] + sx * hs, src_c[i][1] + sy * hs)
                expect = Point(dst_c[i][0] + sx * hd, dst_c[i][1] + sy * hd)
                ok &= evaluate(m, z).point.dist(expect) <= 1e-12
        # round trip and exact inverse dilatations
        mi = invert(m)
        ok &= max_dilatation_per_level(mi) == max_dilatation_per_level(m)
        for _ in range(1000):
            z = Point(*rng.uniform(-0.5, 0.5, 2))
            fwd = evaluate(m, z)
            back = evaluate(mi, fwd.point)
            slack = fwd.error_bound + back.error_bound + 1e-9
            worst_rt = max(worst_rt, back.point.dist(z) - slack)
            ok &= back.point.dist(z) <= slack
    _verdict(6, ok, "properties (i)+(ii) at 1e-12, 3 gauge pairs, "
                    "3000 round trips within bounds, inverse K exact")


def test_criterion_07_theoremA_rates():
    t0 = time.perf_counter()
    ok = True
    details = []
    for case, (src, dst, rate) in CASES.items():
        lo, hi = THEOREM_A_RATE_BANDS[case]
        for m in (standard_homeo(src, dst, 14),
                  invert(standard_homeo(src, dst, 14))):
            for k, K in max_dilatation_per_level(m):
                if 3 <= k <= 14:
                    ok &= lo <= K / rate(k) <= hi
        details.append(f"{case}:[{lo},{hi}]")
    dt = time.perf_counter() - t0
    _verdict(7, ok and dt < 60.0,
             f"K_k/rate within {' '.join(details)} for k in [3,14], "
             f"both directions, {dt:.1f}s")


def test_criterion_08_theoremA_david():
    t0 = time.perf_counter()
    ok = True
    margins = []
    for case, (src, dst, _) in CASES.items():
        base = standard_homeo(src, dst, 12)
        for direction, m in (("forward", base), ("inverse", invert(base))):
            params = DavidParams(1.0, 1.0, FROZEN_K0[(case, direction)])
            for n in range(6, 13):
                passed, margin = check_david(
                    dilatation_profile(m.truncate(n)), params)
                ok &= passed
                margins.append(margin)
    finite = [m for m in margins if math.isfinite(m)]
    dt = time.perf_counter() - t0
    _verdict(8, ok and dt < 60.0,
             f"(1,1,frozen K0) passes at depths 6-12 both directions; "
             f"min finite margin {min(finite):.3f}, {dt:.1f}s")


def test_criterion_09_theoremB():
    t0 = time.perf_counter()
    b20 = theoremB_homeo(20)
    ok = all(a < 0.2 for a in b20.templates.param("a").tolist())
    deep = theoremB_homeo(16)  # profile engine well past the list guard
    for k, K in max_dilatation_per_level(b20):
        if 2 <= k <= 20:
            ok &= THEOREM_B_RATE_BAND[0] <= K / math.sqrt(k) \
                <= THEOREM_B_RATE_BAND[1]
    params = DavidParams(1.0, 1.0, FROZEN_K0[("theoremB", "forward")])
    for n in range(6, 13):
        ok &= check_david(dilatation_profile(deep.truncate(n)), params)[0]
    dims = []
    for n in (4, 9, 16):
        est = curve_box_dimension(deep, n)
        target = 2.0 / (1.0 + n ** -0.5)
        ok &= abs(est - target) <= 0.1
        dims.append(f"n={n}:{est:.3f}")
    prof16 = dilatation_profile(deep)
    ok &= abs(prof16.classified_area + prof16.truncation_bound - 1.0) <= 1e-9
    dt = time.perf_counter() - t0
    _verdict(9, ok and dt < 120.0,
             f"a_k < 1/5, K_k/sqrt(k) in band, David passes 6-12, curve "
             f"dims {' '.join(dims)}, depth-16 profile exact, {dt:.1f}s")


def test_criterion_10_profile_conservation():
    ok = True
    worst = 0.0
    scenarios = [standard_homeo(s, d, 12) for s, d, _ in CASES.values()]
    scenarios.append(theoremB_homeo(12))
    for m in scenarios:
        for n in range(0, 13):
            for side in ("domain", "image"):
                p = dilatation_profile(m.truncate(n), side)
                defect = abs(p.classified_area + p.truncation_bound - 1.0)
                worst = max(worst, defect)
                ok &= defect <= 1e-9
    _verdict(10, ok, f"classified + truncation = 1, worst defect "
                     f"{worst:.2e} <= 1e-9 (4 scenarios x 13 depths x "
                     f"2 sides)")
