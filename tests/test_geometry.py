import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcforge.errors import DomainError, GeometryError, OrientationError
from qcforge.geometry import (AffineMap, Point, Triangle, affine_three_point,
                              dilatation, invert_affine)

from conftest import dilatation_three_point, random_affines, svd_dilatation


def test_dilatation_matches_svd_oracle():
    for m in random_affines(500, seed=1):
        assert abs(dilatation(m) - svd_dilatation(m)) <= 1e-9


def test_similarity_has_dilatation_one():
    # rotation by 0.7 composed with scaling by 3 is conformal
    c, s = math.cos(0.7), math.sin(0.7)
    m = AffineMap(3 * c, -3 * s, 3 * s, 3 * c, 1.0, -2.0)
    assert dilatation(m) == 1.0


def test_dilatation_rejects_orientation_reversal():
    with pytest.raises(OrientationError):
        dilatation(AffineMap(1.0, 0.0, 0.0, -1.0))
    with pytest.raises(OrientationError):
        dilatation(AffineMap(1.0, 2.0, 1.0, 2.0))  # rank one


def test_stretch_dilatation_exact():
    assert dilatation(AffineMap(4.0, 0.0, 0.0, 1.0)) == pytest.approx(4.0)


def test_invert_preserves_dilatation():
    for m in random_affines(100, seed=3):
        assert dilatation(invert_affine(m)) == pytest.approx(
            dilatation(m), rel=1e-9)


def test_invert_composes_to_identity():
    m = AffineMap(2.0, 0.5, -0.3, 1.5, 0.7, -0.2)
    inv = invert_affine(m)
    for p in (Point(0.0, 0.0), Point(1.0, 0.0), Point(-0.4, 2.5)):
        assert m(inv(p)).dist(p) <= 1e-12


def test_three_point_map_hits_targets():
    src = Triangle(Point(0, 0), Point(1, 0), Point(0, 1))
    dst = Triangle(Point(2, 1), Point(3, 1), Point(2, 4))
    m = affine_three_point(src, dst)
    for a, b in zip(src.vertices, dst.vertices):
        assert m(a).dist(b) < 1e-12


def test_three_point_dilatation_formula():
    """The closed-form dilatation of the map fixing 0, 1 and sending z to w
    agrees with the constructed matrix."""
    rng = np.random.default_rng(4)
    for _ in range(200):
        z = Point(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
        w = Point(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
        src = Triangle(Point(0, 0), Point(1, 0), z)
        dst = Triangle(Point(0, 0), Point(1, 0), w)
        m = affine_three_point(src, dst)
        assert dilatation_three_point(z, w) == pytest.approx(
            dilatation(m), abs=1e-9, rel=1e-9)


def test_three_point_dilatation_needs_upper_half_plane():
    with pytest.raises(DomainError):
        dilatation_three_point(Point(0.5, -1.0), Point(0.5, 1.0))


def test_triangle_normalizes_orientation():
    t = Triangle(Point(0, 0), Point(0, 1), Point(1, 0))  # clockwise input
    assert t.area > 0
    with pytest.raises(GeometryError):
        Triangle(Point(0, 0), Point(1, 1), Point(2, 2))


def test_triangle_contains():
    t = Triangle(Point(0, 0), Point(1, 0), Point(0, 1))
    assert t.contains(Point(0.2, 0.2))
    assert t.contains(Point(0.5, 0.5))  # on the hypotenuse
    assert not t.contains(Point(0.6, 0.6))


def test_point_rejects_nonfinite():
    with pytest.raises(GeometryError):
        Point(float("nan"), 0.0)


@pytest.mark.parametrize("v,text", [(math.nan, "nan"), (math.inf, "inf"),
                                    (-math.inf, "-inf")])
def test_point_names_its_nonfinite_coordinates(v, text):
    for (x, y), want in (((v, 0.0), f"({text}, 0.0)"),
                         ((0.0, v), f"(0.0, {text})"),
                         ((v, v), f"({text}, {text})")):
        with pytest.raises(GeometryError) as e:
            Point(x, y)
        assert str(e.value) == f"non-finite point {want}"
    with pytest.raises(GeometryError):
        dataclasses.replace(Point(0.5, 0.5), y=v)


def test_point_has_the_value_semantics_of_a_frozen_dataclass():
    p = Point(0.5, -0.25)
    assert [f.name for f in dataclasses.fields(Point)] == ["x", "y"]
    assert (p.x, p.y) == (0.5, -0.25) and dataclasses.astuple(p) == (0.5,
                                                                      -0.25)
    # equality and hash by value, of the fields in order
    assert p == Point(0.5, -0.25) and hash(p) == hash(Point(0.5, -0.25))
    assert p != Point(-0.25, 0.5) and p != (0.5, -0.25)
    assert Point(0.0, 1.0) == Point(-0.0, 1.0)
    assert len({p, Point(0.5, -0.25), Point(0.5, 0.25)}) == 2
    assert repr(p) == "Point(x=0.5, y=-0.25)"
    assert Point(x=0.5, y=-0.25) == p and Point(0.5, y=-0.25) == p
    # the fields keep the objects given, as the generated init kept them
    q = dataclasses.replace(p, y=3)
    assert type(q) is Point and (q.x, q.y) == (0.5, 3) and type(q.y) is int
    with pytest.raises(TypeError):
        Point(0.5)
    for attr in ("x", "y", "z"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, attr, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del p.x
    assert (p.x, p.y) == (0.5, -0.25)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        r = pickle.loads(pickle.dumps(p, protocol))
        assert type(r) is Point and r == p
        assert math.copysign(1.0, pickle.loads(pickle.dumps(
            Point(-0.0, 1e-300), protocol)).x) == -1.0


@given(st.floats(0.05, 2.0), st.floats(-2.0, 2.0), st.floats(0.05, 2.0))
def test_kl_formula_symmetry(y, wx, wy):
    """Swapping z and w leaves the dilatation unchanged (the map and its
    inverse have the same K)."""
    z, w = Point(0.3, y), Point(wx, wy)
    assert dilatation_three_point(z, w) == pytest.approx(
        dilatation_three_point(w, z), rel=1e-9)


@given(st.floats(-1.5, 1.5), st.floats(0.1, 1.5))
def test_kl_formula_identity_floor(x, y):
    z = Point(x, y)
    assert dilatation_three_point(z, z) == 1.0
