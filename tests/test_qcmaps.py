from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcforge import qcmaps
from qcforge.analysis import CASES
from qcforge.errors import DomainError
from qcforge.frozen import ANNULUS_BAND, TWIST_BAND
from qcforge.geometry import Point
from qcforge.homeo import invert
from qcforge.qcmaps import (ValidationReport, _signed_area2,
                            annulus_extension, annulus_extension_any,
                            annulus_templates, invert_piecewise,
                            twist_extension, twist_templates, validate)

GRID = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]


def _annulus_form(a, b):
    return max(b * (1 - 2 * a) / (a * (1 - 2 * b)),
               a * (1 - 2 * b) / (b * (1 - 2 * a)))


def test_annulus_identity_is_exactly_conformal():
    for a in (0.1, 0.25, 0.4):
        t = annulus_extension(a, a)
        assert t.max_dilatation == 1.0
        assert (t.dilatations == 1.0).all()


def test_annulus_parameter_validation():
    with pytest.raises(DomainError):
        annulus_extension(0.0, 0.2)
    with pytest.raises(DomainError):
        annulus_extension(0.3, 0.1)  # plain builder needs a <= b
    with pytest.raises(DomainError):
        annulus_extension_any(0.2, 0.5)


def test_annulus_dilatation_tracks_modulus_ratio():
    for a in GRID:
        for b in GRID:
            if a == b:
                continue
            t = annulus_extension_any(a, b)
            r = t.max_dilatation / _annulus_form(a, b)
            assert ANNULUS_BAND[0] <= r <= ANNULUS_BAND[1], (a, b, r)


def test_annulus_validates_on_grid():
    for a in (0.1, 0.25, 0.4):
        for b in (0.1, 0.25, 0.4):
            t = annulus_extension_any(a, b)
            rep = validate(t, target_area=1.0 - (1.0 - 2 * b) ** 2)
            assert rep.ok, (a, b, rep)


def test_annulus_boundary_maps():
    t = annulus_extension(0.1, 0.3)
    # outer boundary fixed pointwise
    for p in (Point(0.5, 0.5), Point(-0.5, 0.2), Point(0.31, -0.5)):
        assert t.apply(p).dist(p) < 1e-12
    # inner boundary scaled by (1-2b)/(1-2a)
    s = (1 - 0.6) / (1 - 0.2)
    for p in (Point(0.4, 0.4), Point(-0.4, 0.1)):
        q = t.apply(p)
        assert q.dist(p.scale(s)) < 1e-12


def test_annulus_any_swaps_cleanly():
    """a > b is the cell-wise inverse of the swapped template."""
    t = annulus_extension_any(0.3, 0.1)
    assert t.param("a") == 0.3 and t.param("b") == 0.1
    back = annulus_extension(0.1, 0.3)
    assert t.max_dilatation == back.max_dilatation


def test_inverse_dilatations_bitwise_equal():
    for t in (annulus_extension(0.1, 0.3), twist_extension(0.07)):
        ti = invert_piecewise(t)
        assert ti.dilatations.tolist() == t.dilatations.tolist()
        assert ti.max_dilatation == t.max_dilatation


def test_inverse_roundtrip():
    t = annulus_extension(0.15, 0.35)
    ti = invert_piecewise(t)
    rng = np.random.default_rng(8)
    done = 0
    while done < 100:
        p = Point(*rng.uniform(-0.5, 0.5, 2))
        if t.locate(p) < 0:
            continue
        assert ti.apply(t.apply(p)).dist(p) < 1e-12
        done += 1


def test_twist_parameter_range():
    for bad in (0.0, 0.2, 0.5, -0.1):
        with pytest.raises(DomainError):
            twist_extension(bad)


def test_twist_cell_count():
    assert len(twist_extension(0.1).pieces) == 24


def test_twist_validates_and_dilatation_band():
    for a in np.arange(0.02, 0.1801, 0.02):
        t = twist_extension(float(a))
        target = 0.5 - 2 * (0.5 - 2 * a) ** 2
        rep = validate(t, target_area=target, tol=1e-9)
        assert rep.ok, (a, rep)
        assert TWIST_BAND[0] <= t.max_dilatation * a <= TWIST_BAND[1]


def test_twist_boundary_fixed():
    t = twist_extension(0.1)
    for p in (Point(0.0, -0.3), Point(0.5, 0.2), Point(0.25, 0.5),
              Point(0.37, -0.5)):
        assert t.apply(p).dist(p) < 1e-12


def test_twist_hole_correspondence():
    """Left hole boundary -> top hole boundary, right -> bottom, by the
    axis-respecting similarity."""
    a = 0.1
    t = twist_extension(a)
    s = (0.5 - 2 * a) / 0.125  # hole scale factor
    cases = [
        (Point(0.125, 0.0), Point(0.25, 0.25)),   # left -> top
        (Point(0.375, 0.0), Point(0.25, -0.25)),  # right -> bottom
    ]
    for center, image_center in cases:
        for dx, dy in ((0.0625, 0.0), (0.0, -0.0625), (0.0625, 0.0625)):
            p = Point(center.x + dx, center.y + dy)
            expect = Point(image_center.x + s * dx, image_center.y + s * dy)
            assert t.apply(p).dist(expect) < 1e-12


def test_twist_json_shape():
    obj = twist_extension(0.05).to_json_obj()
    assert obj["domain_kind"] == "twist(a=0.05)"
    assert len(obj["pieces"]) == 24
    assert len(obj["pieces"][0]["map"]) == 6


def test_validate_flags_area_mismatch():
    t = twist_extension(0.1)
    rep = validate(t, target_area=0.3)
    assert not rep.ok
    assert rep.surjective_area_defect > 1e-9


def test_validate_flags_a_discontinuous_annulus():
    # the cell-wise inverse of the 1e-12 -> 0.1 template, whose cells of
    # width 1e-12 carry map entries near 1e11: the inverses disagree on
    # shared edges by between 1e-6 and 1e-4
    rep = validate(annulus_extension_any(0.1, 1e-12),
                   target_area=1.0 - (1.0 - 2 * 1e-12) ** 2)
    assert not rep.continuous and not rep.ok


def test_validate_flags_annulus_boundary_data():
    # an inner square closer than tol to the outer one: its vertices are
    # held to the side-0.8 square, not to the identity 0.14 away from it
    target = 1.0 - (1.0 - 2 * 0.1) ** 2
    t = annulus_extension_any(1e-10, 0.1)
    rep = validate(t, target, tol=1e-6)
    assert rep.continuous and rep.oriented and rep.boundary_ok
    # an inner corner's image moved by 1e-5 breaks the boundary data
    inner = np.flatnonzero((abs(abs(t.cells) - (0.5 - 1e-10)) <= 1e-15)
                           .all(axis=-1).any(axis=-1))
    maps = t.maps.copy()
    maps[inner[0], 4] += 1e-5
    assert not validate(replace(t, maps=maps), target, tol=1e-6).boundary_ok
    # at a = 1e-12 the cell solve loses the inner corners' images by 2.2e-6:
    # a true miss at tol 1e-9, none at 1e-5
    t = annulus_extension_any(1e-12, 0.1)
    rep = validate(t, target)
    assert rep.continuous and rep.oriented
    assert not rep.boundary_ok and not rep.ok
    assert validate(t, target, tol=1e-5).boundary_ok


def test_validate_flags_a_shifted_twist_cell():
    t = twist_extension(0.1)
    maps = t.maps.copy()
    maps[5, 4] += 1e-6
    rep = validate(replace(t, maps=maps),
                   target_area=0.5 - 2 * (0.5 - 2 * 0.1) ** 2)
    assert not rep.continuous and not rep.ok


def test_validate_builds_no_pieces():
    for t in (annulus_extension_any(0.3, 0.1), twist_extension(0.1)):
        validate(t, target_area=0.0)
        assert "pieces" not in t.__dict__


def _validate_on_pieces(pmap, target_area, tol):
    """`validate` as a walk over `pieces`, vertex by vertex: the
    reference the array pass must equal."""
    edges = {}
    for i, (cell, _) in enumerate(pmap.pieces):
        vs = cell.vertices
        for u, v in ((vs[0], vs[1]), (vs[1], vs[2]), (vs[2], vs[0])):
            key = frozenset(((u.x, u.y), (v.x, v.y)))
            edges.setdefault(key, []).append((i, u, v))
    continuous = True
    for (i0, u, v), *rest in edges.values():
        m0 = pmap.pieces[i0][1]
        for i, _, _ in rest:
            m = pmap.pieces[i][1]
            if m(u).dist(m0(u)) > tol or m(v).dist(m0(v)) > tol:
                continuous = False
    oriented = all(m.det > 0 for _, m in pmap.pieces)
    defect = abs(sum(pmap.image_areas.tolist()) - target_area)
    boundary_ok = True
    for cell, m in pmap.pieces:
        for v in cell.vertices:
            w = m(v)
            expect = None
            if pmap.domain_kind == "annulus":
                a, b = pmap.param("a"), pmap.param("b")
                cheb = max(abs(v.x), abs(v.y))
                if abs(cheb - 0.5) <= min(tol, a / 2):
                    expect = [v]
                elif abs(cheb - (0.5 - a)) <= tol:
                    expect = [v.scale((0.5 - b) / (0.5 - a))]
            elif pmap.domain_kind == "twist":
                scale = (0.5 - 2 * pmap.param("a")) / 0.125
                if (abs(v.x) <= tol or abs(v.x - 0.5) <= tol
                        or abs(abs(v.y) - 0.5) <= tol):
                    expect = [v]
                else:  # left hole -> top hole, right -> bottom
                    expect = [
                        Point(0.25 + (v.x - hx) * scale, iy + v.y * scale)
                        for hx, iy in ((0.125, 0.25), (0.375, -0.25))
                        if max(abs(v.x - hx), abs(v.y)) <= 0.0625 + tol]
            if any(w.dist(e) > tol for e in expect or ()):
                boundary_ok = False
    return ValidationReport(continuous, oriented, defect, boundary_ok)


def test_validate_equals_the_walk_over_pieces():
    cases = []
    for a in (1e-15, 1e-12, 1e-3, 0.1, 0.3, 0.45):
        for b in (1e-15, 1e-12, 0.1, 0.25, 0.45):
            t = annulus_extension_any(a, b)
            cases.append((t, 1.0 - (1.0 - 2 * b) ** 2))
    for a in (1e-12, 1e-6, 0.01, 0.1, 0.1999):
        t = twist_extension(a)
        target = 0.5 - 2 * (0.5 - 2 * a) ** 2
        cases += [(t, target), (t, 0.3), (invert_piecewise(t), target)]
        for i in (0, 13, 23):
            shifted, reflected = t.maps.copy(), t.maps.copy()
            shifted[i, 4] += 1e-6
            reflected[i, :2] = -reflected[i, :2]
            cases += [(replace(t, maps=shifted), target),
                      (replace(t, maps=reflected), target)]
    seen = set()
    for t, target in cases:
        for tol in (1e-9, 1e-12):
            rep = validate(t, target, tol)
            assert rep == _validate_on_pieces(t, target, tol), (t.params, tol)
            seen.add((rep.continuous, rep.oriented, rep.boundary_ok,
                      bool(rep.surjective_area_defect <= 1e-9)))
    # each of the four checks fails somewhere on this grid
    assert not any(all(flags) for flags in zip(*seen))


@given(st.floats(0.02, 0.48), st.floats(0.02, 0.48))
@settings(max_examples=30, deadline=None)
def test_annulus_always_validates(a, b):
    t = annulus_extension_any(a, b)
    rep = validate(t, target_area=1.0 - (1.0 - 2 * b) ** 2)
    assert rep.continuous and rep.oriented
    assert rep.surjective_area_defect < 1e-9


@given(st.floats(0.005, 0.195))
@settings(max_examples=30, deadline=None)
def test_twist_always_oriented(a):
    t = twist_extension(a)
    rep = validate(t, target_area=0.5 - 2 * (0.5 - 2 * a) ** 2)
    assert rep.continuous and rep.oriented and rep.boundary_ok


def _swapped(t):
    """The swap formula `_oriented` gives where some triangle is
    clockwise, applied to every input."""
    s = _signed_area2(t)
    cw = s < 0
    return (np.where(cw[..., None, None], t[..., [0, 2, 1], :], t),
            np.where(cw, -s, s))


def test_oriented_gives_the_bits_of_the_swap_formula():
    ccw = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cw = ccw[[0, 2, 1]]
    # twice the signed areas 0.0 and -0.0: (b - a) * (c - a) terms that
    # are 0 and -0 (-0.0 - 0.0 is -0.0)
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    neg_flat = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, 1.0]])
    assert _signed_area2(flat) == 0.0 and not np.signbit(_signed_area2(flat))
    assert np.signbit(_signed_area2(neg_flat))
    for rows in ([ccw, flat, neg_flat], [ccw, cw, flat, neg_flat],
                 [cw, cw], [cw], [ccw]):
        t = np.array(rows)
        for shape in ((len(rows), 3, 2), (1, len(rows), 1, 3, 2)):
            t = t.reshape(shape)
            got, want = qcmaps._oriented(t), _swapped(t)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes(), rows
            # without a clockwise triangle, the input itself
            if not (_signed_area2(t) < 0).any():
                assert got[0] is t


def _counting_oriented(monkeypatch):
    """Record, per call of `qcmaps._oriented`, how many of its triangles
    are clockwise."""
    seen, real = [], qcmaps._oriented

    def counted(t):
        seen.append(int((_signed_area2(t) < 0).sum()))
        return real(t)

    monkeypatch.setattr(qcmaps, "_oriented", counted)
    return seen


def test_templates_of_every_case_have_no_clockwise_triangle(monkeypatch):
    # the premise of `_oriented`'s path without a copy: no map of a case
    # gives it a clockwise cell or image, in either direction; nu at its
    # default and at the ends of perfbench's `reports` ranges
    seen = _counting_oriented(monkeypatch)
    for name, row in CASES.items():
        for nu in [row.default] + ([0.75, 0.8, 1.45, 1.6]
                                   if row.default is not None else []):
            fwd = row.build(12, nu)
            for m in (fwd, invert(fwd)):
                t = m.templates
                assert (_signed_area2(t.cells) > 0).all(), (name, nu)
                assert (_signed_area2(t.images) > 0).all(), (name, nu)
                for k in range(m.depth):
                    for j in range(len(t.kinds)):
                        t.locator(k, j)
    assert seen and not any(seen)


def test_cli_templates_have_no_clockwise_triangle(monkeypatch):
    # annulus templates over perfbench's `reports` range [0.02, 0.45] in
    # both orders, twists over [0.02, 0.19], validated as the CLI does
    seen = _counting_oriented(monkeypatch)
    grid = np.linspace(0.02, 0.45, 12)
    a, b = (g.ravel() for g in np.meshgrid(grid, grid))
    twists = np.linspace(0.02, 0.19, 12)
    for stack in (annulus_templates(a, b), twist_templates(twists)):
        assert (_signed_area2(stack.cells) > 0).all()
        assert (_signed_area2(stack.images) > 0).all()
    for x, y in zip(a.tolist(), b.tolist()):
        t = annulus_templates([x], [y]).template(0, 0)
        assert validate(t, 1.0 - (1.0 - 2.0 * y) ** 2).ok, (x, y)
    for x in twists.tolist():
        t = twist_templates([x]).template(0, 0)
        assert validate(t, 0.5 - 2.0 * (0.5 - 2.0 * x) ** 2).ok, x
    assert seen and not any(seen)
