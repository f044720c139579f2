import itertools
import json
import os
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcforge import export
from qcforge.cantor import build_level, build_sigma_level, make_gauge
from qcforge.cli import run
from qcforge.export import _DECADES, _PREFIXES, _SCALE, _SCALE_HI, \
    _SCALE_LO, Columns, _csv_cell, _digits, _plan, _two_product, \
    format_float, format_rows, json_dumps, row_blocks, rows_to_csv, \
    write_parts
from qcforge.homeo import curve_polyline, theoremB_homeo

EDGE_VALUES = [-0.0, 0.0, 1.0, -3.0, 1e15, 9999999999999998.0, 1e16,
               5e-324, 0.1, float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("v", EDGE_VALUES)
def test_format_rows_matches_format_float(v):
    assert format_rows(np.array([[v]]), "%s", ",") == format_float(v)


def test_format_rows_on_a_finite_and_a_non_finite_array():
    finite = [v for v in EDGE_VALUES if np.isfinite(v)]
    a = np.array(finite).reshape(-1, 3)
    assert format_rows(a, "[%s,%s,%s]", ";") == ";".join(
        "[" + ",".join(format_float(v) for v in row) + "]"
        for row in a.tolist())
    b = np.array(EDGE_VALUES).reshape(-1, 2)
    assert format_rows(b, "%s %s", "\n") == "\n".join(
        " ".join(format_float(v) for v in row) for row in b.tolist())


def _capture(capsys, argv):
    assert run(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("cmd,level", [
    (["cantor", "--gauge", "geometric:1"],
     lambda: build_level(make_gauge("geometric", 1.0), 3)),
    (["cantor", "--gauge", "sqrt"], lambda: build_level(make_gauge("sqrt"), 3)),
    (["sigma"], lambda: build_sigma_level(3)),
])
def test_level_artifacts_equal_the_per_value_output(capsys, cmd, level):
    lv = level()
    out = _capture(capsys, cmd + ["--depth", "3", "--format", "csv"])
    assert out == "cx,cy\n" + "".join(
        f"{format_float(x)},{format_float(y)}\n"
        for x, y in lv.centers.tolist())
    out = _capture(capsys, cmd + ["--depth", "3", "--format", "json"])
    assert out == json_dumps({
        "family": lv.family, "level": lv.level, "side": lv.side,
        "squares": lv.centers.tolist()})
    assert np.array_equal(np.array(json.loads(out)["squares"]), lv.centers)


def _per_value(a, row, sep, cell=format_float):
    return sep.join(row % tuple(map(cell, r)) for r in a.tolist())


_NAN, _INF = float("nan"), float("inf")
# columns of 8 rows; a column with at most 4 distinct values is gathered
_COLUMNS = {
    "all-equal": [0.1] * 8,
    "half": [0.1, 1.0, -2.5, 1e-300, 1.0, 0.1, 1e-300, -2.5],
    "half-plus-one": [0.1, 1.0, -2.5, 1e-300, 7.0, 0.1, 1e-300, -2.5],
    "all-distinct": [0.1 * k + 0.05 for k in range(8)],
    "signed-zeros": [-0.0, 0.0, -0.0, 0.0, 1.5, -0.0, 1.5, 0.0],
    "ulp-apart": [0.1, np.nextafter(0.1, 1.0), 5e-324, 0.0, 0.1,
                  np.nextafter(0.1, 1.0), 0.0, 5e-324],
    "signed-zeros-distinct": [-0.0, 0.0, 1.5, 2.5, 3.5, 4.5, -0.0, 5.5],
    "integral": [1e16, 1e16, 2e16, 9999999999999998.0, 9999999999999998.0,
                 5e-324, 5e-324, -1e16],
    "integral-distinct": [1e16, 3e16, 2e16, 9999999999999998.0, -1e15,
                          5e-324, 1e300, -1e16],
}


@pytest.mark.parametrize("left,right", [
    (left, right) for left in _COLUMNS for right in _COLUMNS
    if left < right])
def test_format_rows_column_pairs_match_per_value(left, right):
    # every pair of a gathered and a direct column, in both orders
    a = np.array([_COLUMNS[left], _COLUMNS[right]]).T
    for b in (a, a[:, ::-1], a[::2]):
        for row in ("%s,%s", "{\"x\":%s,\"y\":%s}"):
            assert format_rows(b, row, "\n") == _per_value(b, row, "\n")
            assert format_rows(b, row, ",", _csv_cell) == \
                _per_value(b, row, ",", _csv_cell)


def test_format_rows_non_finite_values_with_repeats():
    a = np.array([[_NAN, 1.0, _INF], [_NAN, 1.0, -_INF], [0.1, _INF, _INF],
                  [-0.0, _NAN, 1.0]])
    assert format_rows(a, "[%s,%s,%s]", ",") == \
        _per_value(a, "[%s,%s,%s]", ",")
    assert rows_to_csv(("a", "b", "c"), a) == "a,b,c\n" + _per_value(
        a, "%s,%s,%s", "\n", _csv_cell) + "\n"
    assert "nan,1,inf\nnan,1,-inf\n" in rows_to_csv(("a", "b", "c"), a)


@pytest.mark.parametrize("a", [
    np.array([[0.1, 2.0], [0.1, 3.0], [0.1, 2.0]]),
    np.array([[_NAN, 2.0], [0.1, 3.0]])], ids=["finite", "non-finite"])
def test_csv_header_is_literal_text(a):
    # a % in the header must not be read as a conversion of the row
    # template
    header = ("100%s", "%d")
    assert rows_to_csv(header, a) == "100%s,%d\n" + _per_value(
        a, "%s,%s", "\n", _csv_cell) + "\n"
    assert rows_to_csv(header, a[:0]) == "100%s,%d\n"


@pytest.mark.parametrize("a", [
    np.array([[0.1, -0.0, 1e16]]), np.array([[5e-324, 2.0, 0.0]]),
    np.empty((0, 3))], ids=["one-row", "one-row-integral", "zero-rows"])
def test_format_rows_one_and_zero_rows(a):
    assert format_rows(a, "%s;%s;%s", "\n") == _per_value(a, "%s;%s;%s",
                                                          "\n")


def _block_columns(n):
    # a gathered column (two distinct values, with -0.0 among the zeros), a
    # direct one, and one whose non-finite values fall in the second and
    # third block of three rows
    gathered = [(0.1, -0.0, 0.1, 0.0)[i % 4] for i in range(n)]
    direct = [0.1 * i + 0.05 for i in range(n)]
    rough = [(_NAN, -_INF, 1.5)[i % 3] if i in (4, 6) else -0.0 * i
             for i in range(n)]
    return np.array([gathered, direct, rough]).T.reshape(n, 3)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
def test_row_blocks_at_block_boundaries(monkeypatch, n):
    monkeypatch.setattr(export, "_BLOCK_ROWS", 3)
    a = _block_columns(n)
    for b in (a[:, :2], a):  # finite, then with non-finite values
        row = ",".join(["%s"] * b.shape[1])
        for sep, cell in (("\n", format_float), (";", _csv_cell)):
            parts = list(row_blocks(list(b.T), row, sep, cell))
            assert len(parts) == -(-n // 3)
            assert "".join(parts) == _per_value(b, row, sep, cell)
            assert format_rows(b, row, sep, cell) == "".join(parts)
        assert rows_to_csv(("100%s", "%d", "c")[:b.shape[1]], b) == \
            ",".join(("100%s", "%d", "c")[:b.shape[1]]) + "\n" + "".join(
                _per_value(r[None], row, "", _csv_cell) + "\n" for r in b)
    assert json_dumps(a) == "[" + _per_value(a, "[%s,%s,%s]", ",") + "]\n"


def test_curve_csv_equals_json_across_blocks(monkeypatch, capsys):
    monkeypatch.setattr(export, "_BLOCK_ROWS", 3)
    pl = curve_polyline(theoremB_homeo(2))
    rows = np.column_stack([pl.params, pl.vertices])
    assert len(rows) > 6 and len(rows) % 3
    csv_text = _capture(capsys, ["curve", "--depth", "2", "--format", "csv"])
    json_text = _capture(capsys, ["curve", "--depth", "2", "--format", "json"])
    assert csv_text == "t,x,y\n" + _per_value(rows, "%s,%s,%s\n", "")
    # every JSON object holds the texts of its CSV row
    objects = re.findall(r'\{"t":([^,]*),"x":([^,]*),"y":([^}]*)\}',
                         json_text)
    assert [",".join(o) for o in objects] == csv_text.splitlines()[1:]
    assert json_text == '{"depth":2,"vertices":[' + _per_value(
        rows, '{"t":%s,"x":%s,"y":%s}', ",") + "]}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_curve_export_peak_stays_near_the_build(tmp_path, fmt):
    # the export adds to the build's traced peak at most a tenth of the
    # file: the rows are formatted and written in blocks
    path = str(tmp_path / f"curve.{fmt}")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pl = curve_polyline(theoremB_homeo(7))
        build = tracemalloc.get_traced_memory()[1] - base
        del pl
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert run(["curve", "--depth", "7", "--format", fmt,
                    "--out", path]) == 0
        job = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert job <= build + os.path.getsize(path) / 10


@pytest.mark.parametrize("before", [None, "old text"])
def test_write_parts_that_raise_leave_no_temp_file(tmp_path, before):
    path = tmp_path / "a.txt"
    if before is not None:
        path.write_text(before)

    def parts():
        yield "x" * (1 << 17)  # written before the raise
        raise RuntimeError("no second part")

    with pytest.raises(RuntimeError, match="no second part"):
        write_parts(str(path), parts())
    assert not (tmp_path / "a.txt.tmp").exists()
    assert (path.read_text() if path.exists() else None) == before


def test_record_array_json_matches_per_value():
    cols = [_COLUMNS["all-distinct"], _COLUMNS["half"],
            _COLUMNS["signed-zeros"], _COLUMNS["integral"]]
    # named columns, as `profile` writes its entries
    rec = Columns(tuple(np.array(cols)), ("t", "x", "y", "z"))
    want = "[" + ",".join(
        "{" + ",".join(f'"{k}":{format_float(v)}' for k, v in zip("txyz", r))
        + "}" for r in np.array(cols).T.tolist()) + "]"
    assert json_dumps({"v": rec}) == '{"v":' + want + "}\n"
    assert json_dumps(np.array(cols).T) == \
        "[" + _per_value(np.array(cols).T, "[%s,%s,%s,%s]", ",") + "]\n"


# the piece tables: gathered columns joined, the others %-formatted

_GATHERED_POOL = [-0.0, 0.0, 3.0, -7.0, 1e16, 0.1, -2.5e-7]
_IN_DIGIT_DOMAIN = st.one_of(st.sampled_from([0.0, -0.0]),
                             st.floats(1e-4, 1.0, exclude_max=True),
                             st.floats(-1.0, -1e-4, exclude_min=True))
_OTHER = st.one_of(st.floats(1.0, 1e308), st.floats(-1e308, -1.0),
                   st.floats(5e-324, 1e-5), st.floats(-1e-5, -5e-324),
                   st.just(-0.0))
_SPECS = {"gathered": "%s", "digit": "%d", "other": "%.17g"}


@st.composite
def _column(draw, kind, n):
    if kind == "gathered":
        # at most n // 2 distinct values, so n >= 2 rows are gathered
        pool = draw(st.lists(st.sampled_from(_GATHERED_POOL), min_size=1,
                             max_size=max(1, n // 2), unique=True))
        return [pool[i % len(pool)] for i in range(n)]
    # distinct values, so the column is never gathered
    return draw(st.lists(_IN_DIGIT_DOMAIN if kind == "digit" else _OTHER,
                         min_size=n, max_size=n, unique=True))


@pytest.mark.parametrize("kinds", [
    *itertools.permutations(("gathered", "digit", "other")),
    ("gathered",), ("gathered", "gathered"), ("digit", "gathered"),
    ("other", "gathered")])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mixed_columns_match_per_value_in_every_block(kinds, data):
    n = data.draw(st.sampled_from([0, 1, 2, 3, 7, 10]), "n")
    cols = [data.draw(_column(kind, n), kind) for kind in kinds]
    if n >= 7 and "other" in kinds and data.draw(st.booleans(), "rough"):
        # a non-finite block between finite ones
        cols[kinds.index("other")][4] = data.draw(
            st.sampled_from([_NAN, _INF, -_INF]))
    elif n >= 2:
        assert [_plan(np.array(c))[0] for c in cols] == \
            [_SPECS[kind] for kind in kinds]
    a = np.array(cols, dtype=np.float64).T.reshape(n, len(kinds))
    for c in a.T:
        spec, g = _plan(c)
        assert g is None or not any("%" in t for t in g[1].tolist())
    keys = ",".join(f'"c{j}":%s' for j in range(len(kinds)))
    templates = [(",".join(["%s"] * len(kinds)) + "\n", "", _csv_cell),
                 ("{" + keys + "}", ",", format_float)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(export, "_BLOCK_ROWS", 3)
        for row, sep, cell in templates:
            parts = list(row_blocks(list(a.T), row, sep, cell))
            assert len(parts) == -(-n // 3)
            for i, part in enumerate(parts):
                assert part == (sep if i else "") + _per_value(
                    a[3 * i:3 * i + 3], row, sep, cell)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gathered_texts_match_per_value_in_and_out_of_the_digit_domain(
        data):
    # a gathered column of values in the domain of `_digits` gets its texts
    # from it; the same column with one value moved out of the domain gets
    # them from %.17g
    n = data.draw(st.integers(2, 12), "n")
    pool = data.draw(st.lists(_IN_DIGIT_DOMAIN, min_size=1,
                              max_size=n // 2), "pool")
    # every value of the pool is in at least two of the n rows
    rows = data.draw(st.permutations([i % len(pool) for i in range(n)]),
                     "rows")
    outside = pool.copy()
    outside[data.draw(st.integers(0, len(pool) - 1), "moved")] = \
        data.draw(st.sampled_from([1.5, -1.5, 5e-5, -5e-5]), "to")
    a = np.array([[pool[i] for i in rows], [outside[i] for i in rows]]).T
    for c, digit in zip(a.T, (True, False)):
        assert export._in_digit_domain(c) is digit
        spec, (values, texts) = _plan(c)
        assert spec == "%s"
        assert texts.tolist() == [format_float(v) for v in values.tolist()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(export, "_BLOCK_ROWS", 3)
        for row, sep, cell in (("%s,%s\n", "", _csv_cell),
                               ('{"c0":%s,"c1":%s}', ",", format_float)):
            text = "".join(row_blocks(list(a.T), row, sep, cell))
            assert text == _per_value(a, row, sep, cell)


@pytest.mark.parametrize("a", [
    np.array([[0.5, 3.0], [0.5, 3.0], [-0.0, 3.0], [0.5, 3.0]]),
    np.array([[0.5, 3.0], [0.25, 4.0], [0.125, 3.0], [0.0625, 4.0]])],
    ids=["all-gathered", "digit-and-gathered"])
def test_escaped_percent_in_the_row_prints_once(a):
    # with no %-format call, the literals are still printed as `row %
    # cells` prints them
    row = "%s%%;%s%%"
    assert format_rows(a, row, ",") == _per_value(a, row, ",")
    assert "%%" not in format_rows(a, row, ",")


def test_gathered_square_level_export_is_joined_per_block(tmp_path):
    # both columns of a square nest are gathered; the text of 65,536 rows
    # is about 2.7 MB, and each block is joined and written on its own
    centers = build_level(make_gauge("sqrt"), 8).centers
    assert len(centers) == 65_536
    assert [_plan(c)[0] for c in centers.T] == ["%s", "%s"]
    path = str(tmp_path / "level.csv")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_parts(path, export.csv_parts(("x", "y"), centers.T))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert os.path.getsize(path) > 2_500_000
    assert peak < 1.5e6


def test_plan_reads_a_level_block_by_block():
    # `_plan` counts distinct values per block, so the export of a million
    # rows holds no copy of a whole column (8 MB each)
    centers = build_level(make_gauge("sqrt"), 10).centers
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        size = sum(map(len, export.csv_parts(("x", "y"), centers.T)))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert size > 40_000_000
    assert peak < 2e6


def test_plan_stops_counting_at_a_block_of_mostly_distinct_values(
        monkeypatch):
    # a column of one repeated value after a block of distinct ones has at
    # most half as many distinct values as rows, but is not gathered; one
    # whose blocks each repeat a value is
    monkeypatch.setattr(export, "_BLOCK_ROWS", 4)
    distinct_first = np.array([0.5, 0.25, 0.125, 0.0625] + [0.5] * 12)
    assert _plan(distinct_first)[0] == "%d"
    repeats = np.repeat([0.5, 0.25, 0.125, 0.0625], 4)
    spec, (values, texts) = _plan(repeats)
    assert spec == "%s" and values.tolist() == [0.0625, 0.125, 0.25, 0.5]
    assert texts.tolist() == ["0.0625", "0.125", "0.25", "0.5"]


# the digit path, held to Python's own %.17g


def _digit_texts(v):
    n, i = _digits(np.asarray(v, dtype=np.float64) + 0.0)
    return [_PREFIXES[j] + str(k) for j, k in zip(i.tolist(), n.tolist())]


def _python_texts(v):
    # what the path prints: v + 0.0, whose zeros are all +0.0
    want = ["%.17g" % (x + 0.0) for x in v]
    assert want == [format_float(x) for x in v]
    return want


def test_digits_match_python_on_a_million_values():
    rng = np.random.default_rng(27)
    for _ in range(10):
        v = np.concatenate([rng.uniform(-1.0, 1.0, 50_000),
                            rng.choice((-1.0, 1.0), 50_000)
                            * 10.0 ** rng.uniform(-4.0, 0.0, 50_000)])
        v = v[(np.abs(v) >= 1e-4) & (np.abs(v) < 1.0)].tolist()
        assert len(v) > 99_000
        assert _digit_texts(v) == _python_texts(v)


@pytest.mark.parametrize("z", [0, 1, 2, 3])
def test_digits_round_exact_ties_half_to_even(z):
    # k / 2^(18+z) in [10^-(z+1), 10^-z) for odd k has 18 significant
    # digits, the last a 5: each is a tie at the 17th digit
    lo, hi = 2 ** (18 + z) / 10 ** (z + 1), 2 ** (18 + z) / 10 ** z
    k = np.arange(int(lo) + 1, int(hi) + 1)
    k = k[(k % 2 == 1) & (k < hi)]
    v = k / 2.0 ** (18 + z)
    assert 10.0 ** -(z + 1) <= v.min() and v.max() < 10.0 ** -z
    scaled = [Fraction(x) * 10 ** (17 + z) for x in v[::97].tolist()]
    assert all(x.denominator == 2 for x in scaled)
    v = np.concatenate([v, -v]).tolist()
    texts = _digit_texts(v)
    assert texts == _python_texts(v)
    # v * 10^(17+z) = k * 5^(17+z) / 2 ends in 12.5 or 37.5 (odd k times
    # ...25, halved): half to even keeps ...2 and rounds up to ...8, and
    # both occur
    assert {t[-1] for t in texts} == {"2", "8"}


@pytest.mark.parametrize("z", [0, 1, 2, 3])
def test_digits_just_below_a_power_of_ten(z):
    v = [float(f"1e-{z}")]
    for _ in range(64):
        v.append(float(np.nextafter(v[-1], 0.0)))
    v = v[1:]
    # no double below 10^-z rounds up to it at 17 digits: no carry
    assert Fraction(v[0]) * 10 ** (17 + z) < 10 ** 17 - Fraction(1, 2)
    assert _digit_texts(v) == _python_texts(v)
    assert all(t.startswith("0." + "0" * z + "9") for t in _digit_texts(v))


def test_digits_at_the_ends_of_the_domain():
    v = [1e-4, -1e-4, float(np.nextafter(1.0, 0.0)), 0.0, -0.0]
    assert _digit_texts(v) == ["0.0001", "-0.0001", "0.99999999999999989",
                               "0", "0"]
    below = float(np.nextafter(1e-4, 0.0))
    assert format_float(below) == "9.9999999999999991e-05"
    # distinct values, so no column is gathered
    inside = [1e-4, 0.5, 0.25, -0.125, 0.0, float(np.nextafter(1.0, 0.0))]
    assert _plan(np.array(inside))[0] == "%d"
    for out in (below, -below, 1.0, -1.0, 5e-324, 2.0):
        c = np.array(inside + [out])
        assert _plan(c)[0] == "%.17g"
        assert format_rows(c[:, None], "%s", ",") == \
            ",".join(map(format_float, c.tolist()))


def test_digit_premises_are_exact():
    # each power of ten and each of its Veltkamp halves is exact
    for d in range(1, 5):
        assert _SCALE[d] == 10 ** (21 - d)
        assert Fraction(_SCALE_HI[d]) + Fraction(_SCALE_LO[d]) == \
            10 ** (21 - d)
    # float(10^-k) is the least double >= 10^-k, so d counts decades
    for k, x in zip((4, 3, 2, 1), _DECADES.tolist()):
        assert Fraction(float(np.nextafter(x, 0.0))) < Fraction(1, 10 ** k) \
            <= Fraction(x)
    rng = np.random.default_rng(271)
    a = np.concatenate([10.0 ** rng.uniform(-4.0, 0.0, 2000),
                        rng.uniform(0.0, 1.0, 2000), [1e-4, 0.1, 0.0]])
    a = a[(a == 0.0) | ((a >= 1e-4) & (a < 1.0))]
    d = np.searchsorted(_DECADES, a, side="right")
    hi, lo = _two_product(a, d)
    for x, k, h, l in zip(a.tolist(), d.tolist(), hi.tolist(), lo.tolist()):
        exact = Fraction(x) * Fraction(10 ** (21 - k))
        assert Fraction(h) + Fraction(l) == exact
        assert x == 0.0 or 10 ** 16 <= exact < 10 ** 17


@given(st.lists(st.one_of(st.floats(-1.0, 1.0), st.floats()), min_size=1,
                max_size=40))
def test_columns_biased_to_the_digit_domain_match_per_value(values):
    a = np.array(values)[:, None]
    assert format_rows(a, "%s", ",") == ",".join(map(format_float, values))
    inside = [v for v in values if v == 0.0 or 1e-4 <= abs(v) < 1.0]
    assert _digit_texts(inside) == _python_texts(inside)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 8])
def test_digit_columns_at_block_boundaries(monkeypatch, n):
    # a digit column; one whose only value out of the domain falls in the
    # last block, so it takes %.17g in every block; and one with non-finite
    # values in the second and third block
    monkeypatch.setattr(export, "_BLOCK_ROWS", 3)
    digit = [(-1) ** i * (0.9 - 0.11 * i) / 10 ** (i % 4) for i in range(n)]
    mixed = [0.3 + 0.01 * i for i in range(n)]
    if n:
        mixed[-1] = 1.5e-5
    rough = [_NAN if i == 4 else -_INF if i == 6 else 0.5 - 0.01 * i
             for i in range(n)]
    a = np.array([digit, mixed, rough]).T.reshape(n, 3)
    if n:
        assert [_plan(c)[0] for c in a.T] == \
            ["%d", "%.17g", "%d" if n <= 4 else "%.17g"]
    for b in (a[:, :2], a, a[:, ::-1]):
        row = "{" + ",".join(["%s"] * b.shape[1]) + "}"
        for sep, cell in (("\n", format_float), (";", _csv_cell)):
            parts = list(row_blocks(list(b.T), row, sep, cell))
            assert len(parts) == -(-n // 3)
            assert "".join(parts) == _per_value(b, row, sep, cell)


def test_the_curve_parameters_take_the_digit_path():
    pl = curve_polyline(theoremB_homeo(4))
    assert [_plan(c)[0] for c in (pl.params, *pl.vertices.T)] == \
        ["%d", "%s", "%s"]
