import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from qcforge import export
from qcforge.cantor import build_level, build_sigma_level, make_gauge
from qcforge.cli import run
from qcforge.export import Columns, _csv_cell, format_float, format_rows, \
    json_dumps, row_blocks, rows_to_csv, write_parts
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
        yield "x" * (export._CHUNK_CHARS + 1)  # written before the raise
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
