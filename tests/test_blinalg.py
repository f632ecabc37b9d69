"""Bilinear products: frozen examples plus randomized identity checks."""

import math

import pytest

from tetrig import (DegenerateForm, FieldSpec, MixedFields, SymmetricForm,
                    Vector3, b_cross, b_dot, cross3, det3, mat3_det, quad_scalar,
                    quad_vector, quadrance_vec, scalar_triple,
                    triple_of_crosses, vector_triple)
from tetrig.blinalg import form_values
from support import Q, rand_element, rand_form, rand_vector, rng

F7 = FieldSpec.prime(7)
F11 = FieldSpec.prime(11)


def vec(spec, x, y, z):
    return Vector3.of(spec, x, y, z)


def identity_form(spec):
    return SymmetricForm.identity(spec)


def diag123(spec):
    return SymmetricForm.diagonal(spec.element(1), spec.element(2), spec.element(3))


def cofactor_det(rows):
    """Determinant of a 3x3 matrix by cofactor expansion along its first row."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    return (m00 * (m11 * m22 - m12 * m21)
            - m01 * (m10 * m22 - m12 * m20)
            + m02 * (m10 * m21 - m11 * m20))


def det_mb_oracle(v1, v2, v3, form):
    """Cofactor determinant of the stacked rows multiplied by the form matrix."""
    brows = form.rows()
    rows = []
    for v in (v1, v2, v3):
        c = v.components()
        rows.append(tuple(c[0] * brows[0][j] + c[1] * brows[1][j] + c[2] * brows[2][j]
                          for j in range(3)))
    return cofactor_det(rows)


# ---------------------------------------------------------------------------
# scalar product and quadrance
# ---------------------------------------------------------------------------

def test_b_dot_orthonormal_basis():
    e1 = vec(Q, 1, 0, 0)
    e2 = vec(Q, 0, 1, 0)
    assert b_dot(e1, e2, identity_form(Q)).is_zero


def test_b_dot_direct_evaluation():
    # (1,0,1) diag(1,2,3) (0,1,1)^T = 1*1*0 + 0*2*1 + 1*3*1
    got = b_dot(vec(Q, 1, 0, 1), vec(Q, 0, 1, 1), diag123(Q))
    assert got == Q.element(1 * 1 * 0 + 0 * 2 * 1 + 1 * 3 * 1) == Q.element(3)


def test_b_dot_prime_field():
    got = b_dot(vec(F7, 1, 2, 3), vec(F7, 4, 5, 6), identity_form(F7))
    assert got == F7.element((1 * 4 + 2 * 5 + 3 * 6) % 7) == F7.element(4)


def test_b_dot_symmetric_and_bilinear():
    rnd = rng(10)
    for spec in (Q, F11):
        for _ in range(50):
            form = rand_form(spec, rnd)
            u, v, w = (rand_vector(spec, rnd) for _ in range(3))
            k = rand_element(spec, rnd)
            assert b_dot(v, w, form) == b_dot(w, v, form)
            assert b_dot(u + v, w, form) == b_dot(u, w, form) + b_dot(v, w, form)
            assert b_dot(v * k, w, form) == k * b_dot(v, w, form)


def test_quadrance_vec_examples():
    assert quadrance_vec(vec(Q, 0, 0, 0), diag123(Q)).is_zero
    assert quadrance_vec(vec(Q, 1, 0, 1), diag123(Q)) == Q.element(4)
    # a nonzero null vector: 1 + 4 + 9 = 14 = 0 mod 7
    assert quadrance_vec(vec(F7, 1, 2, 3), identity_form(F7)).is_zero


def test_quadrance_vec_scaling():
    rnd = rng(11)
    for spec in (Q, F7):
        for _ in range(40):
            form = rand_form(spec, rnd)
            v = rand_vector(spec, rnd)
            k = rand_element(spec, rnd)
            assert quadrance_vec(v * k, form) == k * k * quadrance_vec(v, form)


def test_polarisation_formulas():
    rnd = rng(12)
    for spec in (Q, F11):
        for _ in range(60):
            form = rand_form(spec, rnd)
            v, w = rand_vector(spec, rnd), rand_vector(spec, rnd)
            qv, qw = quadrance_vec(v, form), quadrance_vec(w, form)
            dot2 = b_dot(v, w, form) * 2
            assert dot2 == quadrance_vec(v + w, form) - qv - qw
            assert dot2 == qv + qw - quadrance_vec(v - w, form)


# ---------------------------------------------------------------------------
# form construction
# ---------------------------------------------------------------------------

def test_adjugate_times_matrix_is_det_identity():
    rnd = rng(13)
    for spec in (Q, F7):
        for _ in range(30):
            form = rand_form(spec, rnd)
            adj = form.adjugate_rows()
            brows = form.rows()
            for i in range(3):
                for j in range(3):
                    entry = sum((adj[i][k] * brows[k][j] for k in range(3)),
                                start=spec.zero())
                    expected = form.det if i == j else spec.zero()
                    assert entry == expected


def test_degenerate_form_rejected():
    with pytest.raises(DegenerateForm):
        SymmetricForm.diagonal(Q.element(1), Q.element(0), Q.element(3))


@pytest.mark.parametrize("spec", [Q, FieldSpec.prime(3), F7, FieldSpec.prime(2**31 - 1)],
                         ids=["Q", "F_3", "F_7", "F_2147483647"])
def test_form_built_on_integers_equals_the_form_of_elements(spec):
    # `from_parts` builds the form from its entries' (num, den) pairs, as `report` and
    # `verify` parse them: the same M B, adjugate, determinant and M as the form of the
    # elements, the same entries and det as a read-only view of those integers, and the
    # same error for a singular form
    assert SymmetricForm.__slots__ == ("spec", "_ints", "_adj", "_int_det", "_scale")
    rnd = rng(17)
    singular = [[(1, 1), (2, 1), (0, 1), (0, 1), (0, 1), (0, 1)], [(1, 2)] * 6]
    cases = [[rand_element(spec, rnd)._parts() for _ in range(6)] for _ in range(150)]
    built = 0
    for parts in singular + cases:
        elements = [spec._ratio(*pair) for pair in parts]
        try:
            by_elements = SymmetricForm(*elements)
        except DegenerateForm as exc:
            assert str(exc) == "form matrix has determinant zero"
            with pytest.raises(DegenerateForm, match="^form matrix has determinant zero$"):
                SymmetricForm.from_parts(spec, parts)
            continue
        by_ints = SymmetricForm.from_parts(spec, parts)
        for name in ("_ints", "_adj", "_int_det", "_scale", "spec"):
            assert getattr(by_ints, name) == getattr(by_elements, name), name
        assert by_ints.entries() == by_elements.entries() == tuple(elements)
        det = cofactor_det(by_ints.rows())
        assert mat3_det(by_ints.rows()) == det
        for name, element in zip(("a1", "a2", "a3", "b1", "b2", "b3", "det"), (*elements, det)):
            for form in (by_ints, by_elements):
                assert getattr(form, name) == element, name
                with pytest.raises(AttributeError):  # the view has no setter
                    setattr(form, name, element)
        built += 1
    assert built > 50
    assert SymmetricForm.identity(spec).entries() == (spec.one(),) * 3 + (spec.zero(),) * 3
    with pytest.raises(AttributeError):
        SymmetricForm.identity(spec).nonesuch


@pytest.mark.parametrize("spec", [Q, FieldSpec.prime(3), F7, FieldSpec.prime(2**31 - 1)],
                         ids=["Q", "F_3", "F_7", "F_2147483647"])
def test_form_holds_m_b_and_its_adjugate_as_rows(spec):
    # M B and adj(M B) are three rows each, so the one row product `form_values` gives both
    # v (M B) and c adj(M B), and their composite is det(M B) v; the state equals a cofactor
    # expansion of the entries over their common denominator, written out here
    rnd = rng(23)
    red = spec._red
    for n in range(60):
        form = rand_form(spec, rnd)
        if n % 2:  # the constructor that `report` and `verify` use
            form = SymmetricForm.from_parts(spec, [e._parts() for e in form.entries()])
        parts = [e._parts() for e in form.entries()]
        m = math.lcm(*(den for _, den in parts))
        i1, i2, i3, j1, j2, j3 = (num * (m // den) for num, den in parts)
        rows = ((i1, j3, j2), (j3, i2, j1), (j2, j1, i3))
        adj = ((red(i2 * i3 - j1 * j1), red(j1 * j2 - i3 * j3), red(j1 * j3 - i2 * j2)),
               (red(j1 * j2 - i3 * j3), red(i1 * i3 - j2 * j2), red(j2 * j3 - i1 * j1)),
               (red(j1 * j3 - i2 * j2), red(j2 * j3 - i1 * j1), red(i1 * i2 - j3 * j3)))
        assert (form._ints, form._adj, form._scale) == (rows, adj, m)
        assert form._int_det == red(cofactor_det(rows)) != 0
        for _ in range(5):
            v = [rnd.randint(-50, 50) for _ in range(3)]
            back = form_values(form._adj, form_values(form._ints, v))
            assert [red(x) for x in back] == [red(form._int_det * x) for x in v]


def test_mixed_field_vectors_rejected():
    with pytest.raises(MixedFields):
        Vector3(Q.one(), F7.one(), Q.zero())
    with pytest.raises(MixedFields):
        b_dot(vec(F7, 1, 0, 0), vec(F7, 0, 1, 0), identity_form(Q))


# ---------------------------------------------------------------------------
# cross product
# ---------------------------------------------------------------------------

def test_b_cross_euclidean_case():
    got = b_cross(vec(Q, 1, 0, 0), vec(Q, 0, 1, 0), identity_form(Q))
    assert got == vec(Q, 0, 0, 1)


def test_b_cross_twisted_by_adjugate():
    # (1,0,1) x (0,1,1) = (-1,-1,1); adj diag(1,2,3) = diag(6,3,2)
    got = b_cross(vec(Q, 1, 0, 1), vec(Q, 0, 1, 1), diag123(Q))
    assert got == vec(Q, -6, -3, 2)


def test_b_cross_of_equal_vectors_vanishes():
    rnd = rng(14)
    for _ in range(20):
        form = rand_form(Q, rnd)
        v = rand_vector(Q, rnd)
        assert b_cross(v, v, form).is_zero


def test_b_cross_is_b_perpendicular_and_antisymmetric():
    rnd = rng(15)
    for spec in (Q, F11):
        for _ in range(60):
            form = rand_form(spec, rnd)
            v, w = rand_vector(spec, rnd), rand_vector(spec, rnd)
            c = b_cross(v, w, form)
            assert b_dot(v, c, form).is_zero
            assert b_dot(w, c, form).is_zero
            assert b_cross(w, v, form) == -c


def test_lagrange_identity():
    rnd = rng(16)
    for spec in (Q, F11):
        for _ in range(60):
            form = rand_form(spec, rnd)
            v, w = rand_vector(spec, rnd), rand_vector(spec, rnd)
            d = b_dot(v, w, form)
            lhs = quadrance_vec(b_cross(v, w, form), form)
            rhs = form.det * (quadrance_vec(v, form) * quadrance_vec(w, form) - d * d)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# triple products
# ---------------------------------------------------------------------------

def test_scalar_triple_examples():
    spec = Q
    e1, e2, e3 = vec(spec, 1, 0, 0), vec(spec, 0, 1, 0), vec(spec, 0, 0, 1)
    # det B * det I
    assert scalar_triple(e1, e2, e3, diag123(spec)) == spec.element(6)
    assert scalar_triple(e1, e1, e3, rand_form(spec, rng(17))).is_zero
    f1 = vec(F7, 1, 0, 0)
    f2 = vec(F7, 0, 1, 0)
    f3 = vec(F7, 0, 0, 1)
    assert scalar_triple(f1, f2, f3, identity_form(F7)) == F7.one()


def test_scalar_triple_alternates_and_matches_determinant():
    rnd = rng(18)
    for spec in (Q, F11):
        for _ in range(50):
            form = rand_form(spec, rnd)
            v1, v2, v3 = (rand_vector(spec, rnd) for _ in range(3))
            t = scalar_triple(v1, v2, v3, form)
            assert t == scalar_triple(v2, v3, v1, form)
            assert t == scalar_triple(v3, v1, v2, form)
            assert t == -scalar_triple(v1, v3, v2, form)
            assert t == -scalar_triple(v2, v1, v3, form)
            assert t == -scalar_triple(v3, v2, v1, form)
            assert t == form.det * det3(v1, v2, v3)
            assert t == det_mb_oracle(v1, v2, v3, form)


def test_vector_triple_examples():
    e1 = vec(Q, 1, 0, 0)
    e2 = vec(Q, 0, 1, 0)
    assert vector_triple(e1, e1, e2, identity_form(Q)) == vec(Q, 0, -1, 0)
    rnd = rng(19)
    v1, v2 = rand_vector(Q, rnd), rand_vector(Q, rnd)
    assert vector_triple(v1, v2, v2, rand_form(Q, rnd)).is_zero


def test_vector_triple_expansion():
    rnd = rng(20)
    for spec, form in ((Q, diag123(Q)), (F11, rand_form(F11, rnd))):
        for _ in range(50):
            v1, v2, v3 = (rand_vector(spec, rnd) for _ in range(3))
            got = vector_triple(v1, v2, v3, form)
            expanded = (v2 * b_dot(v1, v3, form) - v3 * b_dot(v1, v2, form)) * form.det
            assert got == expanded


def test_vector_triple_detects_corrupt_adjugate():
    form = diag123(Q)
    e1, e2, e3 = vec(Q, 1, 0, 0), vec(Q, 0, 1, 0), vec(Q, 0, 0, 1)
    assert vector_triple(e1, e2, e1, form) == vec(Q, 0, 6, 0)
    form._adj = tuple(tuple(x + 1 for x in row) for row in form._adj)
    with pytest.raises(RuntimeError, match="vector triple"):
        vector_triple(e1, e2, e1, form)
    with pytest.raises(RuntimeError, match="vector triple"):
        vector_triple(e1, e2, e3, form)


def test_quad_scalar_examples():
    v = vec(Q, 1, 0, 1)
    w = vec(Q, 0, 1, 1)
    # det B * (Q(v) Q(w) - (v.w)^2) = 6 * (4*5 - 9)
    assert quad_scalar(v, w, v, w, diag123(Q)) == Q.element(66)
    rnd = rng(21)
    v3 = rand_vector(Q, rnd)
    assert quad_scalar(v, w, v3, v3, rand_form(Q, rnd)).is_zero


def test_quad_scalar_diagonal_case_is_cross_quadrance():
    rnd = rng(22)
    for spec in (Q, F11):
        for _ in range(40):
            form = rand_form(spec, rnd)
            v, w = rand_vector(spec, rnd), rand_vector(spec, rnd)
            assert quad_scalar(v, w, v, w, form) == quadrance_vec(b_cross(v, w, form), form)


def test_quad_scalar_binet_cauchy():
    rnd = rng(23)
    for spec in (Q, F11):
        for _ in range(50):
            form = rand_form(spec, rnd)
            v1, v2, v3, v4 = (rand_vector(spec, rnd) for _ in range(4))
            rhs = form.det * (b_dot(v1, v3, form) * b_dot(v2, v4, form)
                              - b_dot(v1, v4, form) * b_dot(v2, v3, form))
            assert quad_scalar(v1, v2, v3, v4, form) == rhs


def test_quad_vector_repeated_pair_special_case():
    spec = Q
    e1, e2, e3 = vec(spec, 1, 0, 0), vec(spec, 0, 1, 0), vec(spec, 0, 0, 1)
    form = identity_form(spec)
    # (det B)^2 det M v1 with M = rows(e1, e2, e3), det M = 1
    assert quad_vector(e1, e2, e1, e3, form) == vec(spec, 1, 0, 0)
    rnd = rng(24)
    for _ in range(40):
        f = rand_form(Q, rnd)
        v1, v2, v3 = (rand_vector(Q, rnd) for _ in range(3))
        scale = f.det * f.det * det3(v1, v2, v3)
        assert quad_vector(v1, v2, v1, v3, f) == v1 * scale


def test_quad_vector_both_expansions():
    rnd = rng(25)
    for spec in (Q, F11):
        for _ in range(50):
            form = rand_form(spec, rnd)
            v1, v2, v3, v4 = (rand_vector(spec, rnd) for _ in range(4))
            got = quad_vector(v1, v2, v3, v4, form)
            first = (v3 * scalar_triple(v1, v2, v4, form)
                     - v4 * scalar_triple(v1, v2, v3, form)) * form.det
            second = (v2 * scalar_triple(v1, v3, v4, form)
                      - v1 * scalar_triple(v2, v3, v4, form)) * form.det
            assert got == first == second
            assert quad_vector(v1, v2, v3, v3, form).is_zero


def test_triple_of_crosses_examples():
    spec = Q
    e1, e2, e3 = vec(spec, 1, 0, 0), vec(spec, 0, 1, 0), vec(spec, 0, 0, 1)
    assert triple_of_crosses(e1, e2, e3, identity_form(spec)) == spec.one()
    # det B * (det B * det M)^2 = 6 * 36
    assert triple_of_crosses(e1, e2, e3, diag123(spec)) == spec.element(216)
    coplanar = vec(spec, 1, 1, 0)
    assert triple_of_crosses(e1, e2, coplanar, identity_form(spec)).is_zero


def test_triple_of_crosses_closed_form():
    rnd = rng(26)
    for spec in (Q, F11):
        for _ in range(50):
            form = rand_form(spec, rnd)
            v1, v2, v3 = (rand_vector(spec, rnd) for _ in range(3))
            t = scalar_triple(v1, v2, v3, form)
            assert triple_of_crosses(v1, v2, v3, form) == form.det * t * t
