import dataclasses
import decimal
import math
import pickle
from decimal import Decimal

import numpy as np
import pytest

from qcforge.cantor import build_level, build_sigma_level, make_gauge
from qcforge.errors import DomainError
from qcforge.frozen import THEOREM_B_RATE_BAND
from qcforge.geometry import Point
from qcforge.homeo import (EvalResult, curve_box_dimension, curve_polyline,
                           evaluate, invert, max_dilatation_per_level,
                           standard_homeo, theoremB_homeo)

from conftest import gauge_d
from exact_levels import CONTEXT, exponent

SQRT = make_gauge("sqrt")
GEO1 = make_gauge("geometric", 1.0)


def test_identity_gauge_pair():
    m = standard_homeo(GEO1, GEO1, 5)
    assert all(K == 1.0 for _, K in max_dilatation_per_level(m))
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = Point(*rng.uniform(-0.5, 0.5, 2))
        r = evaluate(m, z)
        assert r.point.dist(z) < 1e-12


def test_eval_result_has_the_value_semantics_of_a_frozen_dataclass():
    m = theoremB_homeo(3)
    deep = Point(*m.corresponding_centers(3)[0][5].tolist())
    # a gasket image and a deepest-square image with its bound
    for z in (Point(0.45, 0.4), deep):
        r = evaluate(m, z)
        assert type(r) is EvalResult and type(r.point) is Point
        assert [f.name for f in dataclasses.fields(EvalResult)] == \
            ["point", "error_bound"]
        same = EvalResult(Point(r.point.x, r.point.y), r.error_bound)
        assert r == same and hash(r) == hash(same)
        assert r == EvalResult(point=r.point, error_bound=r.error_bound)
        assert r != EvalResult(r.point, r.error_bound + 1.0)
        assert repr(r) == (f"EvalResult(point=Point(x={r.point.x!r}, "
                           f"y={r.point.y!r}), error_bound={r.error_bound!r})")
        assert dataclasses.replace(r, error_bound=2.0) == \
            EvalResult(r.point, 2.0)
        for attr in ("point", "error_bound"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, attr, None)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(r, protocol))
            assert type(back) is EvalResult and back == r
    assert evaluate(m, deep).error_bound > 0.0
    assert repr(EvalResult(Point(0.5, 0.25), 0.0)) == \
        "EvalResult(point=Point(x=0.5, y=0.25), error_bound=0.0)"
    with pytest.raises(TypeError):
        EvalResult(Point(0.5, 0.25))


def test_identity_outside_unit_square():
    m = standard_homeo(SQRT, GEO1, 4)
    r = evaluate(m, Point(10.0, 10.0))
    assert (r.point.x, r.point.y, r.error_bound) == (10.0, 10.0, 0.0)


def test_square_centers_correspond():
    m = standard_homeo(SQRT, GEO1, 6)
    src, dst = m.corresponding_centers(6)
    # descending through a source center must land on the matching target
    # center with zero residual error at the final level
    for i in (0, 17, 500, 4095):
        r = evaluate(m, Point(*src[i]))
        assert r.point.dist(Point(*dst[i])) < 1e-12
        assert r.error_bound > 0


def test_centers_enumerate_levels():
    m = standard_homeo(SQRT, GEO1, 3)
    src, dst = m.corresponding_centers(3)
    assert np.array_equal(src, build_level(SQRT, 3).centers)
    assert np.array_equal(dst, build_level(GEO1, 3).centers)


@pytest.mark.parametrize("k", [-1, 4, 5])
def test_centers_past_the_depth_raise(k):
    # the level-k centres of a depth-3 map do not exist: no silent
    # level-3 list
    m = standard_homeo(SQRT, GEO1, 3)
    with pytest.raises(DomainError, match=r"need 0 <= k <= 3"):
        m.corresponding_centers(k)


def test_property_i_depth_stability():
    """Gasket points resolved at level <= k-1 get identical images from the
    depth-(k-1) and depth-k maps."""
    rng = np.random.default_rng(12)
    maps = [standard_homeo(SQRT, GEO1, n) for n in range(0, 9)]
    # k = 1 is trivial (the depth-0 map is the identity); start at 2
    for k in range(2, 9):
        checked = 0
        while checked < 200:
            z = Point(*rng.uniform(-0.5, 0.5, 2))
            prev = evaluate(maps[k - 1], z)
            if prev.error_bound != 0.0:
                continue  # still inside a level-(k-1) square
            cur = evaluate(maps[k], z)
            assert cur.error_bound == 0.0
            assert cur.point.dist(prev.point) < 1e-12
            checked += 1


def test_property_ii_corner_images():
    """Corners of every level-n source square map onto the corresponding
    target square's corners."""
    n = 5
    m = standard_homeo(SQRT, GEO1, n)
    src, dst = m.corresponding_centers(n)
    hs = m.source.table(n).sides[n] / 2.0
    hd = m.target.table(n).sides[n] / 2.0
    for i in range(0, len(src), 37):
        for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
            z = Point(src[i][0] + sx * hs, src[i][1] + sy * hs)
            r = evaluate(m, z)
            expect = Point(dst[i][0] + sx * hd, dst[i][1] + sy * hd)
            assert r.point.dist(expect) < 1e-12


def test_roundtrip_within_error_bounds():
    m = standard_homeo(SQRT, GEO1, 6)
    mi = invert(m)
    rng = np.random.default_rng(13)
    for _ in range(1000):
        z = Point(*rng.uniform(-0.5, 0.5, 2))
        fwd = evaluate(m, z)
        back = evaluate(mi, fwd.point)
        assert back.point.dist(z) <= fwd.error_bound + back.error_bound + 1e-9


def test_evaluate_deep_point_between_child_and_gasket():
    # level-13 squares of this map are 5.7e-15 wide; the child test and the
    # gasket lookup once rounded this point differently, so it fell in
    # neither and evaluate raised DomainError
    fwd = standard_homeo(make_gauge("slow"), make_gauge("fast"), 14)
    z = Point(0.18437152827265096, -0.34252745171565646)
    r = evaluate(invert(fwd), z)
    assert evaluate(fwd, r.point).point.dist(z) < 1e-15


def test_inverse_levels_exact():
    m = standard_homeo(SQRT, make_gauge("geometric", 2.0), 7)
    mi = invert(m)
    assert max_dilatation_per_level(mi) == max_dilatation_per_level(m)
    assert (invert(mi).source, invert(mi).target) == (m.source, m.target)


def test_inverse_matches_swapped_construction():
    mi = invert(standard_homeo(SQRT, GEO1, 5))
    ms = standard_homeo(GEO1, SQRT, 5)
    rng = np.random.default_rng(14)
    for _ in range(1000):
        z = Point(*rng.uniform(-0.5, 0.5, 2))
        a = evaluate(mi, z)
        b = evaluate(ms, z)
        assert a.point.dist(b.point) <= a.error_bound + b.error_bound + 1e-9


def test_running_max_nondecreasing():
    for m in (standard_homeo(make_gauge("slow"), GEO1, 10),
              theoremB_homeo(10)):
        ks = [K for _, K in max_dilatation_per_level(m)]
        running = [max(ks[:i + 1]) for i in range(len(ks))]
        assert running == sorted(running)


def test_theoremB_level_one_correspondence():
    m = theoremB_homeo(1)
    d1 = gauge_d(SQRT, 1)
    # leftmost 8-adic square -> NW target square; rightmost -> SE
    r = evaluate(m, Point(-0.375, 0.0))
    assert r.point.dist(Point(-0.25, 0.25)) < 1e-12
    r = evaluate(m, Point(0.375, 0.0))
    assert r.point.dist(Point(0.25, -0.25)) < 1e-12
    assert r.error_bound == pytest.approx(0.5 * d1 * math.sqrt(2.0))


def test_theoremB_twist_parameters():
    a = theoremB_homeo(20).templates.param("a").tolist()
    assert len(a) == 20
    assert a[0] == pytest.approx(0.125)
    assert all(0 < x < 0.2 for x in a)
    # (1 - d_k/d_{k-1}) / 4 from the exact exponents of the sqrt gauge
    with decimal.localcontext(CONTEXT):
        for k, got in enumerate(a, 1):
            ratio = Decimal(2) ** (exponent(SQRT, k - 1) - exponent(SQRT, k))
            want = (1 - ratio) / 4
            assert abs(Decimal(got) - want) <= Decimal("1e-12") * want, k


def test_theoremB_gasket_region_count():
    m = theoremB_homeo(8)
    for lv in m.levels:
        assert len(m.slots) * 4 ** (lv.k - 1) == 2 ** (2 * lv.k - 1)


def test_theoremB_rate_band():
    m = theoremB_homeo(20)
    for k, K in max_dilatation_per_level(m):
        if k >= 2:
            assert THEOREM_B_RATE_BAND[0] <= K / math.sqrt(k) \
                <= THEOREM_B_RATE_BAND[1]


def test_theoremB_sigma_centers():
    m = theoremB_homeo(2)
    src, dst = m.corresponding_centers(2)
    assert np.array_equal(src, build_sigma_level(2).centers)
    lt = build_level(SQRT, 2)
    assert sorted(map(tuple, dst)) == sorted(map(tuple, lt.centers))


def test_theoremB_roundtrip():
    m = theoremB_homeo(5)
    mi = invert(m)
    rng = np.random.default_rng(15)
    for _ in range(300):
        z = Point(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        fwd = evaluate(m, z)
        back = evaluate(mi, fwd.point)
        assert back.point.dist(z) <= fwd.error_bound + back.error_bound + 1e-9


@pytest.mark.parametrize("inverse", [False, True])
def test_theoremB_map_is_exactly_odd(inverse):
    # the left twist is the exact half-turn of the right one, and both
    # level trees are symmetric under z -> -z, so phi(-z) = -phi(z) to the bit
    m = theoremB_homeo(12)
    m = invert(m) if inverse else m
    rng = np.random.default_rng(29)
    # half the points near the midline, where the 8-adic squares nest
    pts = np.concatenate([rng.uniform(-0.5, 0.5, (600, 2)),
                          rng.uniform([-0.5, -1 / 32], [0.5, 1 / 32],
                                      (600, 2))])
    for x, y in pts.tolist():
        r, s = evaluate(m, Point(x, y)), evaluate(m, Point(-x, -y))
        assert (s.point.x, s.point.y, s.error_bound) == \
            (-r.point.x, -r.point.y, r.error_bound), (x, y)


def test_curve_depth_zero_is_segment():
    pl = curve_polyline(theoremB_homeo(0))
    assert np.array_equal(pl.vertices, [[-0.5, 0.0], [0.5, 0.0]])


def test_curve_requires_forward_twist_map():
    with pytest.raises(DomainError):
        curve_polyline(standard_homeo(SQRT, GEO1, 2))
    with pytest.raises(DomainError):
        curve_polyline(invert(theoremB_homeo(2)))


def test_curve_parameters_monotone_and_continuous():
    m = theoremB_homeo(3)
    pl = curve_polyline(m)
    ts = np.array(pl.params)
    assert ts[0] == -0.5 and ts[-1] == 0.5
    assert np.all(np.diff(ts) > 0)
    # each edge is the image of one affine piece: the source midpoint must
    # map onto the segment midpoint
    V = pl.vertices
    for i in range(0, len(ts) - 1, 7):
        r = evaluate(m, Point(0.5 * (ts[i] + ts[i + 1]), 0.0))
        mid = 0.5 * (V[i] + V[i + 1])
        assert math.hypot(r.point.x - mid[0], r.point.y - mid[1]) < 1e-9


def test_curve_visits_target_squares_in_order():
    n = 3
    m = theoremB_homeo(n)
    pl = curve_polyline(m)
    src, dst = m.corresponding_centers(n)
    half_s = m.source.table(n).sides[n] / 2.0
    half_d = m.target.table(n).sides[n] / 2.0
    ts = np.array(pl.params)
    V = pl.vertices
    order = np.argsort(src[:, 0])  # source squares left to right = t order
    for i in order:
        lo, hi = src[i][0] - half_s, src[i][0] + half_s
        inside = (ts >= lo - 1e-12) & (ts <= hi + 1e-12)
        assert inside.any()
        pts = V[inside]
        assert np.all(np.abs(pts - dst[i]) <= half_d + 1e-9), i


def test_curve_box_dimension_values():
    m = theoremB_homeo(16)
    for n in range(1, 17):
        assert curve_box_dimension(m, n) == pytest.approx(
            2.0 / (1.0 + n ** -0.5), abs=1e-12)
    assert curve_box_dimension(m) == curve_box_dimension(m, 16)
    # the levels of the map only, not the gauge past it
    for n in (0, 17):
        with pytest.raises(DomainError, match="level must be in 1..16"):
            curve_box_dimension(m, n)
    with pytest.raises(DomainError):
        curve_box_dimension(theoremB_homeo(3), 4000)
    # the inverse map's source is the square nest: its midline is no curve
    # of this dimension, and `curve_polyline` refuses it too
    with pytest.raises(DomainError, match="curve dimension applies to the "
                       "forward 8-adic map"):
        curve_box_dimension(invert(m))
    with pytest.raises(DomainError, match="midline tracing needs the "
                       "forward 8-adic map"):
        curve_polyline(invert(m))


def test_summary_json_shape():
    obj = theoremB_homeo(2).summary_json_obj()
    assert obj["depth"] == 2
    assert obj["source"] == "sigma"
    assert obj["target"] == "lambda(sqrt)"
    assert [e["level"] for e in obj["per_level"]] == [1, 2]
    assert all(e["gasket_cells"] == 48 for e in obj["per_level"])
