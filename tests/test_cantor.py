import math
import tracemalloc
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qcforge import cantor
from qcforge.cantor import (CantorLevel, Construction, DimensionEstimate,
                            box_dimension,
                            build_level, build_sigma_level, count_boxes,
                            count_segment_boxes, depth_guard,
                            dimension_bounds, frostman_profile, make_gauge)
from qcforge.errors import DepthLimitError, DomainError, ValidationError

from conftest import TableGauge, gauge_d
from exact_levels import exponent

ALL_GAUGES = [
    make_gauge("geometric", 0.5),
    make_gauge("geometric", 1.0),
    make_gauge("geometric", 2.0),
    make_gauge("slow"),
    make_gauge("fast"),
    make_gauge("sqrt"),
]


def test_gauge_values():
    g = make_gauge("geometric", 1.0)
    assert gauge_d(g, 0) == 1.0
    assert gauge_d(g, 3) == 0.125
    assert gauge_d(make_gauge("sqrt"), 4) == 0.25
    assert gauge_d(make_gauge("slow"), 0) == 1.0


def test_gauges_strictly_decreasing():
    for g in ALL_GAUGES:
        vals = [gauge_d(g, n) for n in range(0, 20)]
        assert all(b < a for a, b in zip(vals, vals[1:])), g.describe()


def test_builtin_gauges_match_the_readme_formulas_bit_for_bit():
    readme = {
        "slow": lambda n: 2.0 ** (-n / math.log(n + math.e)),
        "fast": lambda n: 2.0 ** (-n * math.log(n + 1)),
        "sqrt": lambda n: 2.0 ** (-math.sqrt(n)),
    }
    for nu in (0.5, 1.0, 1.37, 2.0, 50.0):
        readme[f"geometric:{nu:g}"] = lambda n, nu=nu: 2.0 ** (-nu * n)
    for name, formula in readme.items():
        kind, _, nu = name.partition(":")
        g = make_gauge(kind, float(nu) if nu else None)
        for n in range(201):
            assert gauge_d(g, n) == formula(n), (name, n)


def test_neg_log_d_matches_log():
    # -log d_n read from the table's exponent column, where the side
    # 2^-n d_n > 0
    for g in ALL_GAUGES:
        table = Construction("lambda", g).table(12)
        for n in (0, 1, 5, 12):
            assert table.sides[n] > 0.0
            assert table.e[n] * math.log(2.0) == pytest.approx(
                -math.log(table.sides[n]) - n * math.log(2.0), abs=1e-12)


def test_neg_log_d_survives_underflow():
    g = make_gauge("fast")
    table = Construction("lambda", g).table(400)
    # past the denormal floor
    assert table.ratio[399] == table.sides[400] == table.areas[400] == 0.0
    want = exponent(g, 400)
    assert math.isfinite(table.e[400])
    assert abs(Decimal(table.e[400]) - want) <= Decimal("1e-12") * want


def test_custom_gauge_validation():
    with pytest.raises(ValidationError):
        make_gauge("custom")  # every gauge is a closed form
    with pytest.raises(ValidationError):
        make_gauge("geometric")  # missing nu
    with pytest.raises(ValidationError):
        make_gauge("nope")


@pytest.mark.parametrize("kind, nu", [("slow", 7.0), ("fast", 0.5),
                                      ("sqrt", 2.0)])
def test_a_parameterless_gauge_refuses_a_parameter(kind, nu):
    with pytest.raises(ValidationError) as e:
        make_gauge(kind, nu)
    assert str(e.value) == f"{kind} gauge takes no parameter, got {nu:g}"
    assert make_gauge(kind) == make_gauge(kind, None)


def test_level_count_and_exact_area():
    for g in ALL_GAUGES:
        for n in (0, 1, 4, 7):
            lv = build_level(g, n)
            assert lv.count == 4 ** n
            assert lv.total_area == gauge_d(g, n) ** 2  # exact in IEEE


def test_children_at_parent_quarter_points():
    g = make_gauge("sqrt")
    parent = build_level(g, 2)
    child = build_level(g, 3)
    off = 2.0 ** (-4) * gauge_d(g, 2)
    expected = (parent.centers[:, None, :]
                + np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)])[None] * off)
    assert np.array_equal(child.centers, expected.reshape(-1, 2))


def test_children_nested_in_parents():
    for g in ALL_GAUGES:
        parent = build_level(g, 3)
        child = build_level(g, 4)
        ph = parent.side / 2
        ch = child.side / 2
        for i, (cx, cy) in enumerate(child.centers):
            px, py = parent.centers[i // 4]
            assert abs(cx - px) + ch <= ph + 1e-15
            assert abs(cy - py) + ch <= ph + 1e-15


def test_sigma_level():
    lv = build_sigma_level(1)
    assert np.allclose(sorted(lv.centers[:, 0]),
                       [-0.375, -0.125, 0.125, 0.375])
    assert np.all(lv.centers[:, 1] == 0.0)
    lv2 = build_sigma_level(2)
    assert lv2.count == 16
    assert min(lv2.centers[:, 0]) == pytest.approx(-27 / 64)
    assert lv2.total_area == pytest.approx(16.0 ** -2, abs=1e-15)


def test_depth_guard(monkeypatch):
    with pytest.raises(DepthLimitError):
        build_level(make_gauge("sqrt"), depth_guard() + 1)
    monkeypatch.setenv("QCFORGE_DEPTH_GUARD", "2")
    with pytest.raises(DepthLimitError):
        build_sigma_level(3)
    build_sigma_level(2)
    with pytest.raises(DomainError):
        build_sigma_level(-1)


def test_dimension_bounds_geometric():
    for nu in (0.5, 1.0, 2.0):
        est = dimension_bounds(make_gauge("geometric", nu), 50)
        target = 2.0 / (nu + 1.0)
        assert est.lower <= target + 1e-12 <= est.upper + 0.05
        assert est.upper - target <= 0.05
        assert target - est.lower <= 0.05


def test_dimension_bounds_shape():
    for g in ALL_GAUGES:
        est = dimension_bounds(g, 60)
        assert 0.0 <= est.lower <= est.value <= est.upper <= 2.0
    with pytest.raises(DomainError):
        dimension_bounds(make_gauge("sqrt"), 2)


def test_dimension_bounds_depth_limit(monkeypatch):
    # N has the bound of map depths, 64 per unit of the guard
    monkeypatch.setenv("QCFORGE_DEPTH_GUARD", "2")
    assert dimension_bounds(make_gauge("sqrt"), 128).upper <= 2.0
    with pytest.raises(DepthLimitError):
        dimension_bounds(make_gauge("sqrt"), 129)


def test_dimension_bounds_name_an_infinite_exponent():
    # nu n overflows to inf from n = 2; inf / inf would make the bounds NaN
    with pytest.raises(DomainError, match=r"-log d_34 .* not finite"):
        dimension_bounds(make_gauge("geometric", 1e308), 50)
    est = dimension_bounds(make_gauge("geometric", 1e300), 50)
    assert (est.value, est.lower, est.upper) == (0.0, 0.0, 0.0)


def test_the_8adic_row_is_the_geometric_2_gauge():
    row = Construction("sigma")
    assert row.gauge == make_gauge("geometric", 2.0)
    assert row == Construction("sigma") == replace(row)
    assert Construction("sigma", make_gauge("geometric", 2.0)) == row
    for g in (make_gauge("slow"), make_gauge("geometric", 1.0)):
        with pytest.raises(DomainError, match="geometric:2"):
            Construction("sigma", g)


def test_construction_refuses_an_unknown_family_and_a_nest_without_gauge():
    with pytest.raises(DomainError, match="unknown family 'lamda'"):
        Construction("lamda", make_gauge("slow"))
    with pytest.raises(DomainError, match="square nest needs a gauge"):
        Construction("lambda")
    assert Construction("lambda", make_gauge("slow")).describe() == \
        "lambda(slow)"


def test_dimension_bounds_sqrt_approaches_two():
    est = dimension_bounds(make_gauge("sqrt"), 400)
    assert est.upper >= 1.9


def test_dimension_bounds_fast_decays():
    # the upper bound falls toward 0 but only logarithmically: it is still
    # ~0.3 at N = 400, and dropping below 0.2 needs N in the thousands
    g = make_gauge("fast")
    ests = [dimension_bounds(g, N).upper for N in (50, 150, 400)]
    assert ests == sorted(ests, reverse=True)
    assert ests[-1] <= 0.35


def test_box_counting_sigma():
    est = box_dimension(Construction("sigma"), [4, 6, 8])
    assert est.value == pytest.approx(2.0 / 3.0, abs=0.05)


def test_box_counting_geometric():
    g = make_gauge("geometric", 1.0)
    est = box_dimension(Construction("lambda", g), [4, 6, 8])
    assert est.value == pytest.approx(1.0, abs=0.05)


def test_count_boxes_unit_square():
    lv = CantorLevel("lambda", 0, 1.0, np.zeros((1, 2)))
    assert count_boxes(lv, 0.25) == 16
    with pytest.raises(DomainError):
        count_boxes(lv, 0.0)


def _boxes_by_set(lv, box):
    """Reference count: the set of (i, j) index pairs of the boxes met."""
    half = lv.side / 2.0
    keys = set()
    for cx, cy in lv.centers.tolist():
        i0, j0 = math.floor((cx - half) / box), math.floor((cy - half) / box)
        i1 = max(math.ceil((cx + half) / box) - 1, i0)
        j1 = max(math.ceil((cy + half) / box) - 1, j0)
        keys.update((i, j) for i in range(i0, i1 + 1)
                    for j in range(j0, j1 + 1))
    return len(keys)


def test_count_boxes_keys_are_injective():
    # boxes (0, 1_000_000_007) and (1, 0) shared one key in an earlier hash
    lv = CantorLevel("lambda", 1, 5e-11,
                     np.array([[0.5e-10, 0.1000000007 + 0.5e-10],
                               [1.5e-10, 0.5e-10]]))
    assert count_boxes(lv, 1e-10) == 2
    # index ranges whose product passes 2^63 take the pairwise sort
    far = CantorLevel("lambda", 1, 5e-11, np.array([[-0.4, -0.4], [0.4, 0.4],
                                                    [0.4, -0.4]]))
    assert count_boxes(far, 1e-10) == _boxes_by_set(far, 1e-10)


@pytest.mark.parametrize("kind,n", [("geometric", 5), ("fast", 4),
                                    ("sqrt", 5), ("sigma", 4)])
def test_count_boxes_matches_the_set_of_index_pairs(kind, n):
    lv = build_sigma_level(n) if kind == "sigma" else \
        build_level(make_gauge(kind, 1.0 if kind == "geometric" else None), n)
    for box in (lv.side, lv.side * 3.3, lv.side / 2.7, 0.0371):
        assert count_boxes(lv, box) == _boxes_by_set(lv, box)
        moved = CantorLevel(lv.family, lv.level, lv.side,
                            lv.centers + [-0.123, 0.0456])
        assert count_boxes(moved, box) == _boxes_by_set(moved, box)


BOX_CONSTRUCTIONS = (
    [Construction("sigma")]
    + [Construction("lambda", make_gauge("geometric", nu))
       for nu in (0.05, 0.6113, 1.0, 1.4, 3.0, 5.0)]
    + [Construction("lambda", make_gauge(k)) for k in ("slow", "fast", "sqrt")])


def _diagonal(c, n):
    """Centers of the level-n squares of SW and NE digits (the whole row on
    the 8-adic set)."""
    order = (0, 1, 2, 3) if c.family == "sigma" else (0, 2)
    return cantor.nest_centers(c.table(n, order).offsets)


@pytest.mark.parametrize("c", BOX_CONSTRUCTIONS, ids=Construction.describe)
def test_box_dimension_equals_the_count_of_built_levels(c):
    levels = [c.level(n) for n in range(10)]
    logN = [math.log(count_boxes(lv)) for lv in levels]
    logS = [-math.log(lv.side) for lv in levels]
    for a in range(10):
        for b in range(a + 1, 10):
            slope = float(np.polyfit([logS[a], logS[b]],
                                     [logN[a], logN[b]], 1)[0])
            value = min(max(slope, 0.0), 2.0)
            pair = (logN[b] - logN[a]) / (logS[b] - logS[a])
            want = DimensionEstimate(value, min(pair, value),
                                     max(pair, value), "box_counting",
                                     (levels[a].side, levels[b].side))
            assert box_dimension(c, [a, b]) == want


@pytest.mark.parametrize("c, per_depth", [
    (Construction("lambda", make_gauge("geometric", 1.0)), 1),
    (Construction("lambda", make_gauge("slow")), 1),
    (Construction("sigma"), 2)], ids=lambda v: getattr(v, "family", v))
def test_box_dimension_counts_a_repeated_axis_once(c, per_depth,
                                                    monkeypatch):
    # the square nest's y offsets have the bits of its x offsets, so its
    # row count is its column count; the 8-adic row counts both axes
    calls = []
    real = cantor._axis_boxes

    def counting(offsets, side):
        calls.append(offsets)
        return real(offsets, side)

    monkeypatch.setattr(cantor, "_axis_boxes", counting)
    depths = [5, 7, 9]
    got = box_dimension(c, depths)
    assert len(calls) == per_depth * len(depths)
    levels = [c.level(n) for n in depths]
    logN = [math.log(count_boxes(lv)) for lv in levels]
    logS = [-math.log(lv.side) for lv in levels]
    value = min(max(float(np.polyfit(logS, logN, 1)[0]), 0.0), 2.0)
    pair = [(n1 - n0) / (s1 - s0)
            for n0, n1, s0, s1 in zip(logN, logN[1:], logS, logS[1:])]
    assert got == DimensionEstimate(value, min(min(pair), value),
                                    max(max(pair), value), "box_counting",
                                    tuple(lv.side for lv in levels))


@pytest.mark.parametrize("c", BOX_CONSTRUCTIONS, ids=Construction.describe)
def test_level_is_the_product_of_its_diagonal_axes(c):
    for n in range(8):
        diag = _diagonal(c, n)
        xs, ys = set(diag[:, 0].tolist()), set(diag[:, 1].tolist())
        assert set(map(tuple, c.level(n).centers.tolist())) == \
            {(x, y) for x in xs for y in ys}


@pytest.mark.parametrize("c", [Construction("sigma"),
                               Construction("lambda", make_gauge("sqrt"))],
                         ids=Construction.describe)
def test_box_dimension_builds_no_level(c, monkeypatch):
    def refuse(*args):
        raise AssertionError("box counting built a level")

    for owner, name in ((Construction, "level"), (cantor, "build_level"),
                        (cantor, "build_sigma_level"),
                        (cantor, "count_boxes"), (cantor, "nest_centers")):
        monkeypatch.setattr(owner, name, refuse)
    box_dimension(c, [0, 3, 9])
    # the 4^10 squares of the 8-adic row's level 10 take 16 MB as centers
    tracemalloc.start()
    try:
        box_dimension(c, [9, 10])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@given(st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 8)),
                min_size=1, max_size=12))
@example([(3, 0)])  # a single one-integer interval
@example([(9, 2), (0, 3)])  # unsorted
@example([(0, 10), (2, 3), (4, 1)])  # nested
@example([(0, 2), (3, 2), (5, 0)])  # touching: no integer between them
@example([(1, 3), (1, 3), (1, 3)])  # duplicates
@example([(2 ** 62 - 9, 3), (-2 ** 62, 4)])  # near the int64 range's ends
@settings(max_examples=200, deadline=None)
def test_union_size_counts_the_integers_covered(spans):
    lo = np.array([a for a, _ in spans], dtype=np.int64)
    hi = lo + np.array([n for _, n in spans], dtype=np.int64)
    want = {i for a, n in spans for i in range(a, a + n + 1)}
    assert cantor._union_size(lo, hi) == len(want)


@given(st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 8)),
                min_size=1, max_size=40), st.lists(st.integers(1, 12),
                                                   max_size=8))
@example([(0, 2), (1, 0), (1, 5), (9, 0)], [1, 1, 1])  # reach across blocks
@settings(max_examples=200, deadline=None)
def test_union_size_adds_up_over_consecutive_blocks(spans, cuts):
    spans.sort(key=lambda span: span[0])
    lo = np.array([a for a, _ in spans], dtype=np.int64)
    hi = lo + np.array([n for _, n in spans], dtype=np.int64)
    ends = sorted({0, len(spans)} | {min(c, len(spans)) for c in
                                     np.cumsum(cuts).tolist()})
    count, top = 0, -2 ** 63
    for a, b in zip(ends, ends[1:]):
        # each block reversed: the blocks are ordered, not their rows
        count += cantor._union_size(lo[a:b][::-1], hi[a:b][::-1], top)
        top = max(top, int(hi[a:b].max()))
    assert count == cantor._union_size(lo, hi)


@pytest.mark.parametrize("n", [10, 11])
def test_streamed_row_axis_counts_the_whole_axis(n):
    # the 8-adic row's x axis up to the row cap: its 4^n sums come in 4^(n-6)
    # blocks, and their count is that of the whole axis built as one array,
    # each center's own sum in digit-path order, and the closed form 2 * 4^n
    table = Construction("sigma").table(n)
    x_offsets = np.reshape(table.offsets, (n, 4, 2))[:, :, 0]
    side = table.sides[n]
    streamed = cantor._axis_boxes(x_offsets, side)
    xs = np.zeros(1)
    for offs in x_offsets:
        xs = (xs[:, None] + offs).ravel()
    assert len(xs) == 4 ** n
    lo, hi = cantor._grid_ranges(xs, side / 2.0, side)
    del xs
    assert cantor._union_size(lo, hi) == streamed == 2 * 4 ** n


def test_count_segment_boxes():
    seg = np.array([[0.0, 0.0], [1.0, 0.0]])
    # closed-endpoint convention: the endpoint at x = 1 opens a 9th box
    assert count_segment_boxes(seg, 0.125) == 9
    diag = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert count_segment_boxes(diag, 0.25) >= 4


def test_frostman_bounded_below_dimension():
    g = make_gauge("geometric", 1.0)  # dimension 1
    assert max(r for _, r in frostman_profile(g, 8, 0.9, seed=12345)) <= 1.5


def test_frostman_unbounded_trend_above_dimension():
    g = make_gauge("geometric", 1.0)
    prof = frostman_profile(g, 8, 1.1, seed=12345)
    half = len(prof) // 2
    big = max(r for _, r in prof[:half])      # larger radii
    small = max(r for _, r in prof[half:])    # smaller radii
    assert small > 1.5 * big


def _frostman_by_scan(gauge, n, s, samples, seed):
    """Reference ratios: the built level scanned once per sample, every
    square against the disk test at every radius."""
    level = build_level(gauge, n)
    idx = np.random.default_rng(seed).integers(
        0, level.count, size=min(samples, level.count))
    half = level.side / 2.0
    kmax = max(1, math.ceil(-math.log2(level.side)))
    radii = [2.0 ** (-k) for k in range(kmax + 1)]
    worst = [0.0] * len(radii)
    for x in level.centers[idx]:
        d = np.maximum(np.abs(level.centers - x) - half, 0.0)
        dist = np.hypot(d[:, 0], d[:, 1])
        for i, eps in enumerate(radii):
            hits = int(np.count_nonzero(dist <= eps))
            worst[i] = max(worst[i], hits * 4.0 ** (-n) / eps ** s)
    return list(zip(radii, worst))


WALK_GAUGES = [make_gauge("geometric", nu) for nu in (0.6, 1.0, 1.4)] + \
    [make_gauge(kind) for kind in ("slow", "fast", "sqrt")]


@pytest.mark.parametrize("gauge", WALK_GAUGES, ids=lambda g: g.describe())
@pytest.mark.parametrize("n", range(9))
def test_frostman_walk_equals_the_scan(gauge, n):
    # 6 samples exceed the 1 and 4 squares of levels 0 and 1
    for seed, s in ((0, 0.5), (5, 0.9), (12345, 1.7)):
        assert frostman_profile(gauge, n, s, 6, seed) == \
            _frostman_by_scan(gauge, n, s, 6, seed)


def test_frostman_row_cap_only_stops_the_walk(monkeypatch):
    # each error names rows past the cap; raised to them, the walk goes on
    # and ends with the ratios of an uncapped walk
    g = make_gauge("geometric", 1.0)
    want = frostman_profile(g, 8, 0.5, 2)
    monkeypatch.setattr(cantor, "_MAX_ROWS", 64)
    raised = 0
    while True:
        try:
            got = frostman_profile(g, 8, 0.5, 2)
            break
        except DepthLimitError as e:
            rows = int(str(e).split(" rows")[0].split()[-1])
            assert rows > cantor._MAX_ROWS
            monkeypatch.setattr(cantor, "_MAX_ROWS", rows)
            raised += 1
    assert raised > 1 and got == want


@pytest.mark.parametrize("table,seeds", [
    # past a gauge drop to 1e-17 a child offset is below half an ulp of its
    # parent's center, so whole subtrees share that center's bits
    ([1.0, 0.3, 1e-18, 5e-19, 1e-19, 5e-20, 1e-20], (0, 5)),
    ([1.0, 0.9, 0.8, 1e-17, 9e-18, 8e-18, 1e-33], (0, 5)),
    # centers just above and below 0.25 have ulps a factor 2 apart: the
    # level-3 offsets round away in x but not in y
    ([1.0, 8e-10, 3.2e-16, 3e-16, 2.9e-16, 2.8e-16, 2.7e-16], (2, 3)),
    # sides near 1e-14 put level-6 distances within a few ulps of the
    # radii, where a node test without the rounding margin goes wrong
    ([1.0, 0.8116108252089649, 7.0196703617691956e-15,
      6.960209099111273e-15, 4.640989604886832e-15, 4.639851055264102e-15,
      4.212324577082991e-15], (147,)),
    ([1.0, 0.6271951866301556, 0.37723960291778047, 1.0202759603465752e-14,
      9.036476210852963e-15, 8.917741862691946e-15, 7.820008622892374e-15],
     (105,)),
], ids=["drop-1", "drop-3", "ulp-split", "margin-1", "margin-2"])
def test_frostman_walk_equals_the_scan_at_float_resolution(table, seeds):
    g = TableGauge(tuple(table))
    for seed in seeds:
        assert frostman_profile(g, 6, 0.9, 8, seed) == \
            _frostman_by_scan(g, 6, 0.9, 8, seed)


def test_frostman_level_9_counts_are_exact():
    # hits by sorting each sample's distances and counting those <= eps
    g, n, s = make_gauge("geometric", 1.0), 9, 0.9
    level = build_level(g, n)
    idx = np.random.default_rng(7).integers(0, level.count, size=32)
    radii = np.array([eps for eps, _ in frostman_profile(g, n, s, 32, 7)])
    hits = []
    for x in level.centers[idx]:
        d = np.maximum(np.abs(level.centers - x) - level.side / 2.0, 0.0)
        dist = np.sort(np.hypot(d[:, 0], d[:, 1]))
        hits.append(np.searchsorted(dist, radii, side="right").tolist())
    want = [(eps, max(h[i] * 4.0 ** (-n) / eps ** s for h in hits))
            for i, eps in enumerate(radii.tolist())]
    assert frostman_profile(g, n, s, 32, 7) == want


def test_frostman_level_14_builds_no_level(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a level was built")
    monkeypatch.setattr(cantor, "build_level", refuse)
    monkeypatch.setattr(cantor, "nest_centers", refuse)
    monkeypatch.setattr(Construction, "level", refuse)
    g, n, s = make_gauge("sqrt"), 14, 1.5
    prof = frostman_profile(g, n, s, 32, 0)
    side = 2.0 ** -n * gauge_d(g, n)
    assert [eps for eps, _ in prof] == \
        [2.0 ** -k for k in range(math.ceil(-math.log2(side)) + 1)]
    # each disk holds its own square and at most all 4^n of them
    for eps, ratio in prof:
        assert 4.0 ** -n / eps ** s <= ratio <= 1 / eps ** s


def test_frostman_past_int64_indices_is_a_depth_error(monkeypatch):
    monkeypatch.setenv("QCFORGE_DEPTH_GUARD", "40")
    with pytest.raises(DepthLimitError, match="int64"):
        frostman_profile(make_gauge("geometric", 1.0), 32, 0.5, 2)
    with pytest.raises(DepthLimitError, match="guard"):
        frostman_profile(make_gauge("geometric", 1.0), 41, 0.5, 2)


@given(st.sampled_from(["geometric", "slow", "fast", "sqrt"]),
       st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_area_is_gauge_squared(kind, n):
    g = make_gauge(kind, 1.0 if kind == "geometric" else None)
    lv = build_level(g, n)
    assert lv.total_area == pytest.approx(gauge_d(g, n) ** 2, rel=1e-12)


@given(st.integers(1, 7), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3))
@settings(max_examples=25, deadline=None)
def test_translation_preserves_counting(n, dx, dy):
    """Grid box counts of a translated level stay within the 4x bracket of
    the aligned count (covering number robustness)."""
    lv = build_sigma_level(n)
    base = count_boxes(lv)
    moved = count_boxes(CantorLevel(lv.family, lv.level, lv.side,
                                    lv.centers + [dx, dy]))
    assert base / 4 <= moved <= 4 * base
