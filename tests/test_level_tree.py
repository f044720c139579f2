"""Level geometry shared by both map kinds, placements, and the numeric
edges of the command line."""

import math

import numpy as np
import pytest

from qcforge.analysis import dilatation_profile
from qcforge.cantor import box_dimension, build_sigma_level, depth_guard, \
    make_gauge
from qcforge.cli import run
from qcforge.errors import ValidationError
from qcforge.geometry import Point
from qcforge.homeo import evaluate, invert, standard_homeo, theoremB_homeo


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
        box_dimension(build_sigma_level, [3, 4, 3])
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


@pytest.mark.parametrize("build", [
    lambda n: standard_homeo(make_gauge("slow"), make_gauge("fast"), n),
    theoremB_homeo,
], ids=["standard", "theoremB"])
def test_truncate_matches_direct_build(build):
    m = build(9)
    for n in (0, 3, 6, 9):
        for side in ("domain", "image"):
            assert dilatation_profile(m.truncate(n), side) \
                == dilatation_profile(build(n), side)
            assert dilatation_profile(invert(m).truncate(n), side) \
                == dilatation_profile(invert(build(n)), side)


def _placement_images(m, z):
    """Images of a level-1 gasket point through every placement whose
    template box holds it."""
    lv = m.levels[0]
    sscale, dscale = lv.scales
    out = []
    for ti, (ox, oy), (dox, doy) in lv.placements:
        t = lv.templates[ti]
        u = Point((z.x - ox) / sscale, (z.y - oy) / sscale)
        x0, x1, y0, y1 = t.bbox
        if x0 - 1e-12 <= u.x <= x1 + 1e-12 and y0 - 1e-12 <= u.y <= y1 + 1e-12:
            v = t.apply(u, tol=1e-9)
            out.append(Point(dox + v.x * dscale, doy + v.y * dscale))
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
