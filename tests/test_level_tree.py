"""Level geometry shared by both map kinds, placements, and the numeric
edges of the command line."""

import dataclasses
import decimal
import functools
import math
import struct
import sys
from decimal import Decimal

import numpy as np
import pytest

from qcforge.analysis import CASES, dilatation_profile, level_ratio
from qcforge.cantor import _NEST_DIRECTIONS, _ROW_DIRECTIONS, Construction, \
    GaugeSequence, LevelTable, box_dimension, depth_guard, make_gauge
from qcforge.cli import run
from qcforge.errors import ValidationError
from qcforge.geometry import Point
from qcforge.homeo import _NW_SW_NE_SE, evaluate, invert, standard_homeo, \
    theoremB_homeo

from conftest import TableGauge, profile_bits
from exact_levels import CONTEXT, exponent


@pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
def test_non_finite_gauge_parameter_is_rejected(nu, tmp_path):
    with pytest.raises(ValidationError):
        make_gauge("geometric", nu)
    out = tmp_path / "level.json"
    text = "nan" if math.isnan(nu) else ("-inf" if nu < 0 else "inf")
    assert run(["cantor", "--gauge", f"geometric:{text}", "--depth", "1",
                "--out", str(out)]) == 1
    assert not out.exists()


def test_non_integer_depth_guard(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("QCFORGE_DEPTH_GUARD", "abc")
    with pytest.raises(ValidationError):
        depth_guard()
    assert run(["cantor", "--gauge", "slow", "--depth", "1",
                "--out", str(tmp_path / "level.json")]) == 1
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["david", "--case", "slow-to-geometric:50", "--depth", "10"],
    ["annulus", "--a", "0.1", "--b", "0.4999999999999999"],
])
def test_degenerate_dilatation_is_an_error(argv, tmp_path):
    assert run(argv + ["--out", str(tmp_path / "out.json")]) == 1


def test_repeated_box_depths_are_rejected(tmp_path, capsys):
    with pytest.raises(ValidationError):
        box_dimension(Construction("sigma"), [3, 4, 3])
    out = tmp_path / "dims.json"
    assert run(["dims", "--family", "sigma", "--box-depths", "4,4",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: box counting needs distinct depths, got 4,4\n"
    assert not out.exists()


def test_gauge_underflow_is_named(tmp_path, capsys):
    # d_203 of the fast gauge is 2^-1079.6, which is 0 in double precision
    assert run(["homeo", "--src", "geometric:1", "--dst", "fast", "--depth",
                "205", "--out", str(tmp_path / "homeo.json")]) == 1
    assert capsys.readouterr().err == \
        "error: gauge fast underflows at level 203: d_203 is 0 in " \
        "floating point\n"


def _images(m, points):
    """(x, y, error bound) rows of `evaluate` at the points."""
    return np.array([(r.point.x, r.point.y, r.error_bound)
                     for r in (evaluate(m, z) for z in points)])


@pytest.mark.parametrize("build", [
    lambda n: standard_homeo(make_gauge("slow"), make_gauge("fast"), n),
    theoremB_homeo,
], ids=["standard", "theoremB"])
def test_truncate_matches_direct_build(build):
    m = build(9)
    points = [Point(x, y) for x, y in
              np.random.default_rng(7).uniform(-0.55, 0.55, (200, 2))]
    for n in (0, 3, 6, 9):
        for side in ("domain", "image"):
            for cut, fresh in ((m.truncate(n), build(n)),
                               (invert(m).truncate(n), invert(build(n)))):
                assert profile_bits(dilatation_profile(cut, side)) \
                    == profile_bits(dilatation_profile(fresh, side))
        for cut, fresh in ((m.truncate(n), build(n)),
                           (invert(m).truncate(n), invert(build(n)))):
            assert cut.src == fresh.src and cut.dst == fresh.dst
            assert _images(cut, points).tobytes() \
                == _images(fresh, points).tobytes()
            for got, want in zip(cut.corresponding_centers(n),
                                 fresh.corresponding_centers(n)):
                assert got.tobytes() == want.tobytes()


# one map's gauge of every kind, a table of chosen values, and the 8-adic
# row (gauge None)
TABLE_GAUGES = [make_gauge("geometric", 0.7), make_gauge("slow"),
                make_gauge("fast"), make_gauge("sqrt"),
                TableGauge(tuple(1.0 / (k + 1) for k in range(897))), None]


@functools.lru_cache(maxsize=None)
def _exact_table(gauge, n=896):
    """(e_k, d_k, side 2^-k d_k, area d_k^2) of levels 0..n in `Decimal`:
    e_k from the gauge's closed form, or from the chosen value d_k of a
    table gauge."""
    rows = []
    with decimal.localcontext(CONTEXT):
        for k in range(n + 1):
            if isinstance(gauge, TableGauge):
                d = Decimal(gauge.table[k])
                e = -d.ln() / Decimal(2).ln()
            else:
                e = exponent(gauge, k)
                d = Decimal(2) ** -e
            rows.append((e, d, d / Decimal(2) ** k, d * d))
    return rows


def _close(got, want):
    with decimal.localcontext(CONTEXT):
        return abs(Decimal(got) - want) <= Decimal("1e-12") * abs(want)


@pytest.mark.parametrize("gauge", TABLE_GAUGES,
                         ids=lambda g: "sigma" if g is None else g.describe())
@pytest.mark.parametrize("order", [(0, 1, 2, 3), _NW_SW_NE_SE])
def test_level_table_matches_the_scalar_definitions(gauge, order):
    # each level against the exact oracle; sides and areas where the
    # oracle's value is a normal float, and d_k/d_{k-1} where d_k (and so
    # d_{k-1}) is
    c = Construction("sigma") if gauge is None else \
        Construction("lambda", gauge)
    dirs = _ROW_DIRECTIONS if gauge is None else _NEST_DIRECTIONS
    exact = _exact_table(c.gauge)
    normal = Decimal(sys.float_info.min)
    # up to the table-depth bound at the default guard, where the 8-adic
    # sides are subnormal from level 341 and 0 from level 359
    for n in (0, 1, 48, 200, 896):
        table = c.table(n, order)
        assert len(table.e) == len(table.sides) == len(table.areas) == n + 1
        assert len(table.ratio) == len(table.offsets) == n
        for k in range(n + 1):
            want = exact[k]
            assert _close(table.e[k], want[0]), k
            for got, w in zip((table.sides[k], table.areas[k]), want[2:]):
                assert w < normal or _close(got, w), k
            if gauge is None:
                # the row's closed forms, apart from its gauge's formula
                assert _bits(table.sides[k]) == _bits(8.0 ** (-k))
                assert _bits(table.areas[k]) == _bits(16.0 ** (-k))
        for k in range(1, n + 1):
            d0, d1 = exact[k - 1][1], exact[k][1]
            if d1 >= normal:
                with decimal.localcontext(CONTEXT):
                    assert abs(Decimal(table.ratio[k - 1]) - d1 / d0) \
                        <= Decimal("1e-12") * d1 / d0, k
            if gauge is None:
                # d_k = 4^-k is a float down to 2^-1074 at level 537
                assert table.ratio[k - 1] == (0.25 if k <= 537 else 0.0), k
            side = table.sides[k - 1]
            want = [[dirs[j][0] * side, dirs[j][1] * side] for j in order]
            assert [[_bits(x) for x in row] for row in table.offsets[k - 1]] \
                == [[_bits(x) for x in row] for row in want]


@pytest.mark.parametrize("family", ["lambda", "sigma"])
def test_level_table_evaluates_each_gauge_exponent_once(family, monkeypatch):
    calls = []
    real = GaugeSequence._exponent

    def counted(gauge, k):
        calls.append(k)
        return real(gauge, k)

    monkeypatch.setattr(GaugeSequence, "_exponent", counted)
    c = Construction(family, make_gauge("fast") if family == "lambda"
                     else None)
    for n in (0, 1, 50, 896):
        calls.clear()
        c.table(n)
        assert calls == list(range(n + 1)), n


def _eager_offsets(table, dirs, order):
    """The child offsets as one broadcast product of the ordered
    directions and every side but the last: the reference of the offsets
    a table forms on first read."""
    return (np.asarray(dirs)[list(order)]
            * np.reshape(table.sides[:-1], (-1, 1, 1))).tolist()


@pytest.mark.parametrize("gauge", TABLE_GAUGES,
                         ids=lambda g: "sigma" if g is None else g.describe())
@pytest.mark.parametrize("order", [(0, 1, 2, 3), _NW_SW_NE_SE])
def test_level_table_forms_its_offsets_on_first_read(gauge, order):
    c = Construction("sigma") if gauge is None else \
        Construction("lambda", gauge)
    dirs = _ROW_DIRECTIONS if gauge is None else _NEST_DIRECTIONS
    for n in (0, 1, 48, 896):
        table = c.table(n, order)
        assert "offsets" not in vars(table), n
        want = _eager_offsets(table, dirs, order)
        got = table.offsets
        assert table.offsets is got and len(got) == n, n
        assert all(np.shape(row) == (4, 2) for row in got), n
        assert np.array(got, float).tobytes() \
            == np.array(want, float).tobytes(), n
        # a truncated table forms its own, from its sides, also when the
        # whole table has formed them
        for cut in sorted({0, min(1, n), n // 2, n}):
            short = table.truncate(cut)
            assert "offsets" not in vars(short), (n, cut)
            assert np.array(short.offsets, float).tobytes() \
                == np.array(want[:cut], float).tobytes(), (n, cut)
            assert short == c.table(cut, order), (n, cut)


def _counting_offsets(monkeypatch):
    """Record each table that forms its offsets."""
    formed, real = [], LevelTable.__dict__["offsets"].func

    def counted(table):
        formed.append(table)
        return real(table)

    prop = functools.cached_property(counted)
    prop.__set_name__(LevelTable, "offsets")
    monkeypatch.setattr(LevelTable, "offsets", prop)
    return formed


def _words(argv):
    """A test id of a command line: its words, option dashes dropped."""
    return " ".join(a.lstrip("-") for a in argv)


@pytest.mark.parametrize("argv", [
    ["report", "--case", "slow-to-fast", "--depth", "12"],
    ["report", "--case", "theoremB", "--depth", "12"],
    ["david", "--case", "geometric-to-fast", "--depth", "12",
     "--direction", "inverse"],
    ["profile", "--case", "theoremB", "--depth", "12", "--side", "image",
     "--format", "csv"],
    ["homeo", "--src", "slow", "--dst", "fast", "--depth", "12"],
    ["homeo", "--theorem-b", "--depth", "12"],
    ["dims", "--gauge", "fast", "--levels", "300"],
], ids=_words)
def test_table_only_commands_form_no_offsets(argv, monkeypatch, tmp_path):
    formed = _counting_offsets(monkeypatch)
    assert run(argv + ["--out", str(tmp_path / "out")]) in (0, 2)
    assert (tmp_path / "out").exists() and formed == []
    level_ratio(make_gauge("slow"), make_gauge("fast"), 196)
    assert formed == []


@pytest.mark.parametrize("argv", [
    ["cantor", "--gauge", "slow", "--depth", "4"],
    ["sigma", "--depth", "4"],
    ["dims", "--family", "sigma", "--box-depths", "3,4"],
    ["dims", "--gauge", "slow", "--box-depths", "3,4"],
    ["dims", "--gauge", "slow", "--frostman-s", "1.0",
     "--frostman-level", "4"],
    ["curve", "--depth", "3"],
], ids=_words)
def test_commands_that_place_squares_form_offsets(argv, monkeypatch,
                                                  tmp_path):
    formed = _counting_offsets(monkeypatch)
    assert run(argv + ["--out", str(tmp_path / "out")]) == 0
    assert formed


def test_the_first_evaluate_forms_the_offsets_of_both_tables(monkeypatch):
    formed = _counting_offsets(monkeypatch)
    for m in (standard_homeo(make_gauge("slow"), make_gauge("fast"), 6),
              invert(theoremB_homeo(6))):
        formed.clear()
        evaluate(m, Point(0.3, 0.2))
        assert len(formed) == 2 and {id(t) for t in formed} \
            == {id(m.src), id(m.dst)}
        evaluate(m, Point(-0.2, 0.1))
        assert len(formed) == 2


def test_maps_read_the_tables_of_their_constructions():
    slow, fast = make_gauge("slow"), make_gauge("fast")
    m = standard_homeo(slow, fast, 6)
    assert m.src == Construction("lambda", slow).table(6)
    assert m.dst == Construction("lambda", fast).table(6)
    b = theoremB_homeo(6)
    assert b.src == Construction("sigma").table(6)
    assert b.dst == Construction("lambda", make_gauge("sqrt")).table(
        6, _NW_SW_NE_SE)
    assert invert(b).src == b.dst and invert(b).dst == b.src
    # one annulus at half side around each child; the right, then the left
    # twist over the whole parent; the same slots on either side
    assert m.slots == tuple((0, x, y, 0.5) for x, y in _NEST_DIRECTIONS)
    assert b.slots == ((0, 0.0, 0.0, 1.0), (1, 0.0, 0.0, 1.0))
    assert invert(m).slots == m.slots and invert(b).slots == b.slots


def _slot_faults(m):
    """Where the slots break the premise of the level masses: a slot that
    names no template, a template without a slot, or a template whose
    slots' squared scales do not sum to exactly 1 (one parent area)."""
    count = len(m.templates.kinds)
    faults = [f"slot {i} names template {ti}" for i, (ti, *_) in
              enumerate(m.slots) if ti not in range(count)]
    for j in range(count):
        scales = [scale for ti, _, _, scale in m.slots if ti == j]
        if not scales:
            faults.append(f"template {j} has no slot")
        elif math.fsum(scale ** 2 for scale in scales) != 1.0:
            faults.append(f"template {j} covers {scales} of a parent")
    return faults


@pytest.mark.parametrize("case", list(CASES))
def test_the_slots_of_each_template_cover_one_parent(case):
    # `_level_masses` weighs a level's cells by the area of its parents,
    # which holds only if each template's instances cover one parent area
    row = CASES[case]
    fwd = row.build(4, row.default)
    for m in (fwd, invert(fwd)):
        assert _slot_faults(m) == [], case
    # a wrong scale in one slot, which the masses would not see
    ti, x, y, scale = fwd.slots[-1]
    bad = dataclasses.replace(fwd, slots=fwd.slots[:-1] + (
        (ti, x, y, scale * 1.5),))
    faults = _slot_faults(bad)
    assert len(faults) == 1 and faults[0].startswith(f"template {ti} covers")


def _bits(x):
    return struct.pack("<d", x)


def _placement_images(m, z):
    """Images of a level-1 gasket point through every placement whose
    template box holds it."""
    lv, s, d = m.levels[0], m.src.sides[0], m.dst.sides[0]
    out = []
    for ti, x, y, scale in m.slots:
        t, sscale, dscale = lv.templates[ti], s * scale, d * scale
        u = Point((z.x - x * s) / sscale, (z.y - y * s) / sscale)
        (x0, y0), (x1, y1) = t.cells.min(axis=(0, 1)), t.cells.max(axis=(0, 1))
        if x0 - 1e-12 <= u.x <= x1 + 1e-12 and y0 - 1e-12 <= u.y <= y1 + 1e-12:
            v = t.apply(u, tol=1e-9)
            out.append(Point(x * d + v.x * dscale, y * d + v.y * dscale))
    return out


@pytest.mark.parametrize("m, line", [
    (theoremB_homeo(3), "x"),
    (standard_homeo(make_gauge("slow"), make_gauge("fast"), 3), "x"),
    (standard_homeo(make_gauge("slow"), make_gauge("fast"), 3), "y"),
    (invert(standard_homeo(make_gauge("sqrt"), make_gauge("slow"), 3)), "x"),
], ids=["theoremB", "standard-x", "standard-y", "standard-inverse"])
def test_placements_agree_on_shared_edges(m, line):
    # x = 0 splits a level-1 8-adic gasket into its two twist regions, and
    # x = 0 / y = 0 are edges between the annuli of a square-nest gasket
    for s in np.linspace(-0.5, 0.5, 41):
        z = Point(0.0, float(s)) if line == "x" else Point(float(s), 0.0)
        images = _placement_images(m, z)
        assert len(images) >= 2
        w = evaluate(m, z).point
        assert max(w.dist(p) for p in images) <= 1e-12
        # points just off the edge, on either side, land next to it
        dx, dy = (1e-9, 0.0) if line == "x" else (0.0, 1e-9)
        for sign in (-1.0, 1.0):
            near = evaluate(m, Point(z.x + sign * dx, z.y + sign * dy)).point
            assert near.dist(w) <= 1e-6
