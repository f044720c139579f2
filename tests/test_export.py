import json

import numpy as np
import pytest

from qcforge.cantor import build_level, build_sigma_level, make_gauge
from qcforge.cli import run
from qcforge.export import format_float, format_rows, json_dumps

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
