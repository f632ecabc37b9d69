"""Triangle and line-triple invariants against their closed forms."""

import pytest

from tetrig import (DegeneratePlane, FieldSpec, NullCross, NullDirection,
                    NullNormal, Plane, Point3, SymmetricForm, Tetrahedron,
                    Triangle, TriLines, Vector3, archimedes, b_cross,
                    dihedral_spread, dihedral_spread_common_edge,
                    dual_solid_spread, line_through, quadrance, quadrance_vec,
                    quadrea, quadrume, quadrume_from_gram,
                    quadrume_from_quadrances, scalar_triple, solid_spread,
                    spread, spread_vectors, displacement)
from support import Q, rand_element, rand_form, rand_point, rand_vector, rng

F7 = FieldSpec.prime(7)
F11 = FieldSpec.prime(11)
F13 = FieldSpec.prime(13)


def vec(spec, x, y, z):
    return Vector3.of(spec, x, y, z)


def pt(spec, x, y, z):
    return Point3.of(spec, x, y, z)


def diag123(spec):
    return SymmetricForm.diagonal(spec.element(1), spec.element(2), spec.element(3))


def unit_tri_rect(spec):
    form = SymmetricForm.identity(spec)
    return Tetrahedron(pt(spec, 0, 0, 0), pt(spec, 1, 0, 0),
                       pt(spec, 0, 1, 0), pt(spec, 0, 0, 1), form)


# ---------------------------------------------------------------------------
# Archimedes' function and quadrance
# ---------------------------------------------------------------------------

def test_archimedes_desk_values():
    z, o = Q.zero(), Q.one()
    assert archimedes(z, z, z).is_zero
    assert archimedes(o, o, o) == Q.element(9 - 6)
    assert archimedes(o, o, Q.element(2)) == Q.element(16 - 12)


def test_archimedes_symmetry_and_alternative_forms():
    rnd = rng(40)
    for spec in (Q, F7):
        for _ in range(60):
            a, b, c = (rand_element(spec, rnd) for _ in range(3))
            base = archimedes(a, b, c)
            assert base == archimedes(b, a, c) == archimedes(c, b, a) == archimedes(b, c, a)
            assert base == 4 * a * b - (a + b - c) ** 2
            assert base == 4 * a * c - (a + c - b) ** 2
            assert base == 4 * b * c - (b + c - a) ** 2


def test_quadrance_between_points():
    form = SymmetricForm.identity(Q)
    x = pt(Q, 0, 0, 0)
    assert quadrance(x, x, form).is_zero
    assert quadrance(x, pt(Q, 1, 0, 0), form) == Q.one()
    f7 = SymmetricForm.identity(F7)
    assert quadrance(pt(F7, 0, 0, 0), pt(F7, 1, 2, 3), f7).is_zero


# ---------------------------------------------------------------------------
# quadrea
# ---------------------------------------------------------------------------

def test_quadrea_collinear_is_zero():
    tri = Triangle(pt(Q, 0, 0, 0), pt(Q, 1, 1, 1), pt(Q, 3, 3, 3))
    assert quadrea(tri, SymmetricForm.identity(Q)).is_zero


def test_quadrea_unit_right_triangle():
    tri = Triangle(pt(Q, 0, 0, 0), pt(Q, 1, 0, 0), pt(Q, 0, 1, 0))
    assert quadrea(tri, SymmetricForm.identity(Q)) == Q.element(4)


def test_quadrea_matches_all_six_cross_forms():
    rnd = rng(41)
    for spec, form_of in ((Q, diag123), (F13, lambda s: rand_form(s, rnd))):
        for _ in range(40):
            form = form_of(spec)
            a1, a2, a3 = (rand_point(spec, rnd) for _ in range(3))
            tri = Triangle(a1, a2, a3)
            scaled = form.det * quadrea(tri, form) / 4
            v12 = displacement(a1, a2)
            v23 = displacement(a2, a3)
            v31 = displacement(a3, a1)
            pairs = ((v12, v31), (v12, v23), (v23, v31),
                     (-v12, -v31), (-v12, -v23), (-v23, -v31))
            for u, w in pairs:
                assert quadrance_vec(b_cross(u, w, form), form) == scaled


def test_quadrea_factors_through_spreads():
    rnd = rng(42)
    for spec in (Q, F13):
        done = 0
        while done < 40:
            form = rand_form(spec, rnd)
            a1, a2, a3 = (rand_point(spec, rnd) for _ in range(3))
            q1 = quadrance(a2, a3, form)
            q2 = quadrance(a1, a3, form)
            q3 = quadrance(a1, a2, form)
            if q1.is_zero or q2.is_zero or q3.is_zero:
                continue
            s1 = spread_vectors(displacement(a1, a2), displacement(a1, a3), form)
            s2 = spread_vectors(displacement(a1, a2), displacement(a2, a3), form)
            s3 = spread_vectors(displacement(a1, a3), displacement(a2, a3), form)
            area = quadrea(Triangle(a1, a2, a3), form)
            assert area == 4 * q1 * q2 * s3 == 4 * q1 * q3 * s2 == 4 * q2 * q3 * s1
            done += 1


# ---------------------------------------------------------------------------
# quadrume
# ---------------------------------------------------------------------------

def test_quadrume_coplanar_is_zero():
    form = SymmetricForm.identity(Q)
    tet = Tetrahedron(pt(Q, 0, 0, 0), pt(Q, 1, 0, 0), pt(Q, 0, 1, 0),
                      pt(Q, 1, 1, 0), form)
    assert quadrume(tet).is_zero


def test_quadrume_unit_tri_rectangular():
    assert quadrume(unit_tri_rect(Q)) == Q.element(4)


def test_quadrume_three_routes_agree():
    rnd = rng(43)
    for spec in (Q, F13):
        for _ in range(40):
            form = rand_form(spec, rnd)
            points = [rand_point(spec, rnd) for _ in range(4)]
            tet = Tetrahedron(*points, form)
            v = quadrume(tet)
            assert v == quadrume_from_gram(tet)
            qs = {key: quadrance(points[key[0]], points[key[1]], form)
                  for key in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))}
            assert v == quadrume_from_quadrances(qs[(0, 1)], qs[(0, 2)], qs[(0, 3)],
                                                 qs[(1, 2)], qs[(1, 3)], qs[(2, 3)])


def test_quadrume_base_point_independence():
    rnd = rng(44)
    for spec in (Q, F13):
        for _ in range(30):
            form = rand_form(spec, rnd)
            points = [rand_point(spec, rnd) for _ in range(4)]
            tet = Tetrahedron(*points, form)
            expected = quadrume(tet)
            for base in range(4):
                others = [m for m in range(4) if m != base]
                t = scalar_triple(displacement(points[base], points[others[0]]),
                                  displacement(points[base], points[others[1]]),
                                  displacement(points[base], points[others[2]]), form)
                assert t * t * 4 / form.det == expected


# ---------------------------------------------------------------------------
# spread
# ---------------------------------------------------------------------------

def test_spread_same_line_is_zero():
    line = line_through(pt(Q, 0, 0, 0), pt(Q, 1, 2, 3))
    assert spread(line, line, SymmetricForm.identity(Q)).is_zero


def test_spread_perpendicular_axes():
    form = SymmetricForm.identity(Q)
    l1 = line_through(pt(Q, 0, 0, 0), pt(Q, 1, 0, 0))
    l2 = line_through(pt(Q, 0, 0, 0), pt(Q, 0, 1, 0))
    assert spread(l1, l2, form) == Q.one()


def test_spread_direct_evaluation():
    form = diag123(Q)
    # 1 - (v.w)^2 / (Q(v) Q(w)) = 1 - 9/20
    got = spread_vectors(vec(Q, 1, 0, 1), vec(Q, 0, 1, 1), form)
    assert got == Q.element(1) - Q.element(9) / Q.element(20)
    assert got.literal() == "11/20"


def test_spread_scale_invariance_and_lagrange_rewrite():
    rnd = rng(45)
    for spec in (Q, F11):
        done = 0
        while done < 40:
            form = rand_form(spec, rnd)
            v1, v2 = rand_vector(spec, rnd), rand_vector(spec, rnd)
            q1, q2 = quadrance_vec(v1, form), quadrance_vec(v2, form)
            if q1.is_zero or q2.is_zero:
                continue
            s = spread_vectors(v1, v2, form)
            assert s == spread_vectors(v2, v1, form)
            k1, k2 = rand_element(spec, rnd), rand_element(spec, rnd)
            if not (k1.is_zero or k2.is_zero):
                assert spread_vectors(v1 * k1, v2 * k2, form) == s
            lagrange = quadrance_vec(b_cross(v1, v2, form), form) / (form.det * q1 * q2)
            assert s == lagrange
            done += 1


def test_spread_null_direction_raises():
    form = SymmetricForm.identity(F7)
    with pytest.raises(NullDirection):
        spread_vectors(vec(F7, 1, 2, 3), vec(F7, 1, 0, 0), form)


# ---------------------------------------------------------------------------
# dihedral spread
# ---------------------------------------------------------------------------

def test_dihedral_spread_equal_planes_is_zero():
    plane = Plane(pt(Q, 0, 0, 0), vec(Q, 1, 0, 0), vec(Q, 0, 1, 0))
    assert dihedral_spread(plane, plane, SymmetricForm.identity(Q)).is_zero


def test_dihedral_spread_coordinate_planes():
    base = pt(Q, 0, 0, 0)
    xy = Plane(base, vec(Q, 1, 0, 0), vec(Q, 0, 1, 0))
    xz = Plane(base, vec(Q, 1, 0, 0), vec(Q, 0, 0, 1))
    assert dihedral_spread(xy, xz, SymmetricForm.identity(Q)) == Q.one()


def test_dihedral_spread_common_edge_closed_form():
    rnd = rng(46)
    for spec in (Q, F11):
        done = 0
        while done < 40:
            form = rand_form(spec, rnd)
            base = rand_point(spec, rnd)
            shared = rand_vector(spec, rnd)
            w1, w2 = rand_vector(spec, rnd), rand_vector(spec, rnd)
            try:
                p1 = Plane(base, shared, w1)
                p2 = Plane(base, shared, w2)
                direct = dihedral_spread(p1, p2, form)
                closed = dihedral_spread_common_edge(shared, w1, w2, form)
            except (DegeneratePlane, NullNormal):
                continue
            assert direct == closed
            done += 1


def test_dihedral_spread_scale_invariant_in_spans():
    rnd = rng(56)
    form = diag123(Q)
    base = pt(Q, 0, 0, 0)
    p1 = Plane(base, vec(Q, 1, 0, 1), vec(Q, 0, 1, 1))
    p2 = Plane(base, vec(Q, 1, 0, 1), vec(Q, 1, 1, 0))
    expected = dihedral_spread(p1, p2, form)
    for _ in range(10):
        k1, k2 = rand_element(Q, rnd), rand_element(Q, rnd)
        if k1.is_zero or k2.is_zero:
            continue
        rescaled = Plane(base, p1.span1 * k1, p1.span2 * k2)
        assert dihedral_spread(rescaled, p2, form) == expected


def test_dihedral_spread_null_normal_raises():
    # spans (1,2,0) and (0,0,1) have normal (2,-1,0): 4 + 1 = 5 = 0 mod 5
    spec = FieldSpec.prime(5)
    form = SymmetricForm.identity(spec)
    plane = Plane(pt(spec, 0, 0, 0), vec(spec, 1, 2, 0), vec(spec, 0, 0, 1))
    other = Plane(pt(spec, 0, 0, 0), vec(spec, 1, 0, 0), vec(spec, 0, 1, 0))
    with pytest.raises(NullNormal):
        dihedral_spread(plane, other, form)
    with pytest.raises(NullNormal):  # the same null normal, through the closed form
        dihedral_spread_common_edge(vec(spec, 0, 0, 1), vec(spec, 1, 2, 0), vec(spec, 1, 0, 0),
                                    form)


# ---------------------------------------------------------------------------
# solid spread
# ---------------------------------------------------------------------------

def test_solid_spread_coplanar_directions():
    apex = pt(Q, 0, 0, 0)
    lines = TriLines(apex, vec(Q, 1, 0, 0), vec(Q, 0, 1, 0), vec(Q, 1, 1, 0))
    assert solid_spread(lines, SymmetricForm.identity(Q)).is_zero


def test_solid_spread_orthonormal_tripod():
    apex = pt(Q, 0, 0, 0)
    lines = TriLines(apex, vec(Q, 1, 0, 0), vec(Q, 0, 1, 0), vec(Q, 0, 0, 1))
    assert solid_spread(lines, SymmetricForm.identity(Q)) == Q.one()
    assert lines.directions() == (vec(Q, 1, 0, 0), vec(Q, 0, 1, 0), vec(Q, 0, 0, 1))


def test_solid_spread_null_direction_raises():
    form = SymmetricForm.identity(F7)
    lines = TriLines(pt(F7, 0, 0, 0), vec(F7, 1, 2, 3), vec(F7, 0, 1, 0), vec(F7, 0, 0, 1))
    with pytest.raises(NullDirection):
        solid_spread(lines, form)


def test_solid_spread_factorization():
    rnd = rng(47)
    for spec in (Q, F11):
        done = 0
        while done < 30:
            form = rand_form(spec, rnd)
            apex = rand_point(spec, rnd)
            d1, d2, d3 = (rand_vector(spec, rnd) for _ in range(3))
            try:
                lines = TriLines(apex, d1, d2, d3)
                total = solid_spread(lines, form)
                p12 = Plane(apex, d1, d2)
                p13 = Plane(apex, d1, d3)
                p23 = Plane(apex, d2, d3)
                s12 = spread_vectors(d1, d2, form)
                s13 = spread_vectors(d1, d3, form)
                s23 = spread_vectors(d2, d3, form)
                assert total == dihedral_spread(p12, p13, form) * s12 * s13
                assert total == dihedral_spread(p12, p23, form) * s12 * s23
                assert total == dihedral_spread(p13, p23, form) * s13 * s23
            except (ValueError, DegeneratePlane, NullDirection, NullNormal):
                continue
            done += 1


# ---------------------------------------------------------------------------
# dual solid spread
# ---------------------------------------------------------------------------

def test_dual_solid_spread_orthonormal_tripod():
    apex = pt(Q, 0, 0, 0)
    lines = TriLines(apex, vec(Q, 1, 0, 0), vec(Q, 0, 1, 0), vec(Q, 0, 0, 1))
    assert dual_solid_spread(lines, SymmetricForm.identity(Q)) == Q.one()


def test_dual_solid_spread_coplanar_directions():
    apex = pt(Q, 0, 0, 0)
    lines = TriLines(apex, vec(Q, 1, 0, 0), vec(Q, 0, 1, 0), vec(Q, 1, 2, 0))
    assert dual_solid_spread(lines, SymmetricForm.identity(Q)).is_zero


def test_dual_solid_spread_closed_form_and_factorization():
    rnd = rng(48)
    for spec, form_of in ((Q, diag123), (F11, lambda s: rand_form(s, rnd))):
        done = 0
        while done < 30:
            form = form_of(spec)
            apex = rand_point(spec, rnd)
            d1, d2, d3 = (rand_vector(spec, rnd) for _ in range(3))
            try:
                lines = TriLines(apex, d1, d2, d3)
                dual = dual_solid_spread(lines, form)
                t = scalar_triple(d1, d2, d3, form)
                qn12 = quadrance_vec(b_cross(d1, d2, form), form)
                qn13 = quadrance_vec(b_cross(d1, d3, form), form)
                qn23 = quadrance_vec(b_cross(d2, d3, form), form)
                closed = form.det * t ** 4 / (qn12 * qn13 * qn23)
                assert dual == closed
                p12 = Plane(apex, d1, d2)
                p13 = Plane(apex, d1, d3)
                p23 = Plane(apex, d2, d3)
                e12_13 = dihedral_spread(p12, p13, form)
                e12_23 = dihedral_spread(p12, p23, form)
                e13_23 = dihedral_spread(p13, p23, form)
                assert dual == spread_vectors(d1, d2, form) * e12_13 * e12_23
                assert dual == spread_vectors(d1, d3, form) * e12_13 * e13_23
                assert dual == spread_vectors(d2, d3, form) * e12_23 * e13_23
            except (ValueError, DegeneratePlane, NullCross, NullDirection, NullNormal):
                continue
            done += 1


def test_solid_spreads_invariant_under_permutation_and_rescaling():
    rnd = rng(49)
    for spec in (Q, F11):
        done = 0
        while done < 25:
            form = rand_form(spec, rnd)
            apex = rand_point(spec, rnd)
            d1, d2, d3 = (rand_vector(spec, rnd) for _ in range(3))
            k1, k2, k3 = (rand_element(spec, rnd) for _ in range(3))
            if k1.is_zero or k2.is_zero or k3.is_zero:
                continue
            try:
                base_solid = solid_spread(TriLines(apex, d1, d2, d3), form)
                base_dual = dual_solid_spread(TriLines(apex, d1, d2, d3), form)
                for perm in ((d2, d3, d1), (d3, d1, d2), (d2, d1, d3), (d1, d3, d2)):
                    assert solid_spread(TriLines(apex, *perm), form) == base_solid
                    assert dual_solid_spread(TriLines(apex, *perm), form) == base_dual
                scaled = TriLines(apex, d1 * k1, d2 * k2, d3 * k3)
                assert solid_spread(scaled, form) == base_solid
                assert dual_solid_spread(scaled, form) == base_dual
            except (ValueError, NullDirection, NullCross):
                continue
            done += 1


def test_dual_solid_spread_null_cross_raises():
    # directions (1,2,0) and (0,0,1) cross to (2,-1,0), null mod 5
    spec = FieldSpec.prime(5)
    form = SymmetricForm.identity(spec)
    lines = TriLines(pt(spec, 0, 0, 0), vec(spec, 1, 2, 0), vec(spec, 0, 0, 1),
                     vec(spec, 0, 1, 0))
    with pytest.raises(NullCross):
        dual_solid_spread(lines, form)
