import math

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
