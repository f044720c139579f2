"""Maps keep their templates as one level-stacked array set.

The CLI's map commands read the stack whole and make no per-template
object, and `evaluate` makes none; `m.levels` makes every level's templates
on first read, and each one has the bits of its single-template builder.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from qcforge import analysis, cli
from qcforge.cantor import make_gauge
from qcforge.geometry import Point
from qcforge.homeo import evaluate, invert, standard_homeo, theoremB_homeo
from qcforge.qcmaps import PiecewiseAffineMap, annulus_extension_any, \
    invert_piecewise, twist_extension

from conftest import gauge_d

ARRAYS = ("cells", "maps", "dilatations", "images", "domain_areas",
          "image_areas")


@pytest.fixture
def made(monkeypatch):
    """The number of `PiecewiseAffineMap`s constructed so far."""
    count = [0]
    init = PiecewiseAffineMap.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PiecewiseAffineMap, "__init__", counting)
    return count


@pytest.mark.parametrize("argv", [
    ["report", "--case", "slow-to-fast", "--depth", "12"],
    ["report", "--case", "theoremB", "--depth", "12"],
    ["david", "--case", "theoremB", "--depth", "12", "--direction",
     "inverse"],
    ["david", "--case", "slow-to-geometric", "--depth", "12", "--direction",
     "inverse"],
    ["profile", "--case", "geometric-to-fast", "--depth", "12",
     "--direction", "inverse", "--side", "image"],
    ["profile", "--case", "theoremB", "--depth", "12", "--direction",
     "inverse", "--side", "image", "--format", "csv"],
    ["homeo", "--src", "slow", "--dst", "fast", "--depth", "12"],
    ["homeo", "--theorem-b", "--depth", "12"],
], ids=lambda argv: "-".join(argv[:3]))
def test_map_commands_make_no_template_objects(argv, made, tmp_path):
    assert cli.run(argv + ["--out", str(tmp_path / "out")]) in (0, 2)
    assert made[0] == 0


def _points(m, rng, count=300):
    """Half uniform over a box wider than the unit square, half jittered
    around the centres of source squares of levels 1..6."""
    pts = rng.uniform(-0.55, 0.55, (count, 2)).tolist()
    for i in range(count):
        k = 1 + i % 6
        centers = m.corresponding_centers(k)[0]
        c = centers[rng.integers(len(centers))]
        pts.append((c + rng.uniform(-0.75, 0.75, 2) * m.src.sides[k]).tolist())
    return pts


# blake2b digests of the (x, y, error bound) rows of `evaluate`, recorded
# when every level's templates were still built with the map
@pytest.mark.parametrize("case, direction, digest", [
    ("slow_to_fast", "inverse", "2cdc6a7ad010cb068836afd935c2769a"),
    ("theoremB", "inverse", "64342cc5909e642d5342e2fdbe1cb39f"),
    ("geometric_to_fast", "inverse", "fa0d8858c27ca2d9b3386c849e0dd5c4"),
    ("slow_to_fast", "forward", "3eb2127f64b1b85d2f6dc42a21162668"),
])
def test_evaluate_keeps_its_bits_on_a_map_profiled_without_templates(
        case, direction, digest, made):
    m = analysis.CASES[case].build(12, 1.0)
    m = invert(m) if direction == "inverse" else m
    profile = analysis.dilatation_profile(m, "image")
    analysis.check_david(analysis.dilatation_profile(m),
                         analysis.DavidParams(1.0, 1.0, 2.0))
    assert m.depth == 12 and len(profile.thresholds) > 12
    assert made[0] == 0
    rng = np.random.default_rng([20261019, len(case)])
    rows = [(r.point.x, r.point.y, r.error_bound) for r in
            (evaluate(m, Point(x, y)) for x, y in _points(m, rng))]
    assert hashlib.blake2b(np.array(rows).tobytes(),
                           digest_size=16).hexdigest() == digest
    # evaluation reads the stack's locators, and makes no template
    assert made[0] == 0 and m.templates._locators


def _half_turn(t):
    return replace(t, cells=-t.cells, images=-t.images,
                   maps=t.maps * (1, 1, 1, 1, -1, -1), domain_kind="composite")


def _assert_bits(got, want):
    for name in ARRAYS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), \
            name
    assert (got.domain_kind, got.params) == (want.domain_kind, want.params)


def _gauge(text):
    kind, _, nu = text.partition(":")
    return make_gauge(kind, float(nu) if nu else None)


def _standard_singles(g, h, k):
    """Level k's template of the map g -> h and of its inverse, each from
    the single-template builders."""
    t = annulus_extension_any(
        (1.0 - gauge_d(g, k) / gauge_d(g, k - 1)) / 2.0,
        (1.0 - gauge_d(h, k) / gauge_d(h, k - 1)) / 2.0)
    return [t], [invert_piecewise(t)]


def _theoremB_singles(k):
    """Level k's two twists of theorem B's map and of its inverse, each
    from the single-template builders."""
    sqrt = make_gauge("sqrt")
    right = twist_extension(
        (1.0 - gauge_d(sqrt, k) / gauge_d(sqrt, k - 1)) / 4.0)
    left = _half_turn(right)
    # the inverse's left half is inverted itself, not the right inverse
    # turned: a sum that cancels to +0.0 would turn into -0.0
    return [right, left], [invert_piecewise(right), invert_piecewise(left)]


@pytest.mark.parametrize("depth, truncated", [(64, None), (90, 40)])
@pytest.mark.parametrize("src, dst", [
    ("slow", "fast"), ("geometric:1.1", "fast"),
    ("geometric:4", "geometric:0.25"), (None, None)])
def test_lazy_templates_equal_the_single_template_builders(src, dst, depth,
                                                           truncated):
    if src is None:
        m = theoremB_homeo(depth)
        singles = _theoremB_singles
    else:
        g, h = _gauge(src), _gauge(dst)
        m = standard_homeo(g, h, depth)
        singles = lambda k: _standard_singles(g, h, k)  # noqa: E731
    if truncated is not None:
        m = m.truncate(truncated)
    inverse = invert(m)
    assert len(m.levels) == len(inverse.levels) == m.depth
    for k in range(1, m.depth + 1):
        forward, backward = singles(k)
        for lv, want in ((m.levels[k - 1], forward),
                         (inverse.levels[k - 1], backward)):
            assert lv.k == k and len(lv.templates) == len(want)
            for got, w in zip(lv.templates, want):
                _assert_bits(got, w)
