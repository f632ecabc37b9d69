"""Core metrical invariants: quadrance, quadrea, quadrume, and the spreads.

All quantities are exact elements of the coefficient field.  Spread-type
quantities divide by quadrances, which can vanish over a finite field even
for nonzero vectors; those cases raise instead of returning a sentinel.
"""

from __future__ import annotations

from operator import truediv

from .affine import Line, Plane, Point3, displacement, plane_normal
from .blinalg import (Frozen, SymmetricForm, Vector3, b_cross, mat3_det,
                      scalar_triple, shared_spec)
from .field import FieldElement

# "Tetrahedron" in annotations is tetra.Tetrahedron; tetra imports this module


class NullDirection(Exception):
    """A line direction has quadrance zero; the spread is undefined."""


class NullNormal(Exception):
    """A plane normal has quadrance zero; the dihedral spread is undefined."""


class NullCross(Exception):
    """A pairwise cross direction has quadrance zero; the dual solid spread is undefined."""


class Triangle(Frozen):
    """Unordered triple of points; degeneracy is allowed (quadrea is then 0)."""

    __slots__ = ("a1", "a2", "a3")

    def __init__(self, a1: Point3, a2: Point3, a3: Point3):
        shared_spec(a1.x, a2.x, a3.x)
        super().__init__(a1, a2, a3)


class TriLines(Frozen):
    """Three concurrent lines through a common apex, given by directions."""

    __slots__ = ("apex", "d1", "d2", "d3")

    def __init__(self, apex: Point3, d1: Vector3, d2: Vector3, d3: Vector3):
        shared_spec(apex.x, d1.x, d2.x, d3.x)
        if d1.is_zero or d2.is_zero or d3.is_zero:
            raise ValueError("line directions must be nonzero")
        super().__init__(apex, d1, d2, d3)

    def directions(self) -> tuple[Vector3, Vector3, Vector3]:
        return (self.d1, self.d2, self.d3)


def archimedes(a: FieldElement, b: FieldElement, c: FieldElement) -> FieldElement:
    """(a+b+c)^2 - 2(a^2+b^2+c^2); symmetric in all three arguments."""
    s = a + b + c
    return s * s - (a * a + b * b + c * c) * 2


def quadrance(x: Point3, y: Point3, form: SymmetricForm) -> FieldElement:
    return form.quadrance(displacement(x, y))


def quadrea(tri: Triangle, form: SymmetricForm) -> FieldElement:
    """Archimedes' function of the triangle's three quadrances."""
    q1 = quadrance(tri.a2, tri.a3, form)
    q2 = quadrance(tri.a1, tri.a3, form)
    q3 = quadrance(tri.a1, tri.a2, form)
    return archimedes(q1, q2, q3)


def quadrume(tet: "Tetrahedron") -> FieldElement:
    """Squared scalar triple of the edge vectors at one vertex, times 4/det B.

    Independent of the chosen base vertex.
    """
    form = tet.form
    t = scalar_triple(tet.edge_vector(0, 1), tet.edge_vector(0, 2),
                      tet.edge_vector(0, 3), form)
    return t * t * 4 / form.det


def quadrume_from_gram(tet: "Tetrahedron") -> FieldElement:
    """Same quantity via 4 det(M B M^T), the Gram determinant route."""
    form = tet.form
    vs = (tet.edge_vector(0, 1), tet.edge_vector(0, 2), tet.edge_vector(0, 3))
    gram = tuple(tuple(form.dot(a, b) for b in vs) for a in vs)
    return mat3_det(gram) * 4


def quadrume_from_quadrances(q01: FieldElement, q02: FieldElement, q03: FieldElement,
                             q12: FieldElement, q13: FieldElement,
                             q23: FieldElement) -> FieldElement:
    """Same quantity from the six quadrances alone, via the polarized 3x3 determinant."""
    r0 = (q01 * 2, q01 + q02 - q12, q01 + q03 - q13)
    r1 = (r0[1], q02 * 2, q02 + q03 - q23)
    r2 = (r0[2], r1[2], q03 * 2)
    return mat3_det((r0, r1, r2)) / 2


def spread_from_parts(d, q1, q2):
    """(numerator, denominator) of the spread 1 - d^2/(q1 q2) of two directions
    with dot product d and nonzero quadrances q1, q2; field elements or raw ints."""
    qq = q1 * q2
    return qq - d * d, qq


def solid_spread_from_parts(t, q1, q2, q3, det):
    """(numerator, denominator) of the solid spread t^2/(det B q1 q2 q3) of three
    directions with scalar triple t and nonzero quadrances q1, q2, q3."""
    return t * t, det * q1 * q2 * q3


def spread_vectors(v1: Vector3, v2: Vector3, form: SymmetricForm) -> FieldElement:
    """Spread between the lines spanned by two non-null directions."""
    q1 = form.quadrance(v1)
    q2 = form.quadrance(v2)
    if q1.is_zero or q2.is_zero:
        raise NullDirection("spread undefined: a direction has quadrance zero")
    return truediv(*spread_from_parts(form.dot(v1, v2), q1, q2))


def spread(l1: Line, l2: Line, form: SymmetricForm) -> FieldElement:
    return spread_vectors(l1.direction, l2.direction, form)


def dihedral_spread(p1: Plane, p2: Plane, form: SymmetricForm) -> FieldElement:
    """Spread-style quantity computed between the two plane normals."""
    n1 = plane_normal(p1, form)
    n2 = plane_normal(p2, form)
    q1 = form.quadrance(n1)
    q2 = form.quadrance(n2)
    if q1.is_zero or q2.is_zero:
        raise NullNormal("dihedral spread undefined: a normal has quadrance zero")
    return truediv(*spread_from_parts(form.dot(n1, n2), q1, q2))


def dihedral_spread_common_edge(shared: Vector3, w1: Vector3, w2: Vector3,
                                form: SymmetricForm) -> FieldElement:
    """Closed form for planes (A, shared, w1) and (A, shared, w2) meeting along `shared`."""
    qc1 = form.quadrance(b_cross(shared, w1, form))
    qc2 = form.quadrance(b_cross(shared, w2, form))
    if qc1.is_zero or qc2.is_zero:
        raise NullNormal("dihedral spread undefined: a normal has quadrance zero")
    t = scalar_triple(shared, w1, w2, form)
    return form.det * t * t * form.quadrance(shared) / (qc1 * qc2)


def solid_spread(lines: TriLines, form: SymmetricForm) -> FieldElement:
    """Normalized squared scalar triple of three concurrent directions."""
    q1 = form.quadrance(lines.d1)
    q2 = form.quadrance(lines.d2)
    q3 = form.quadrance(lines.d3)
    if q1.is_zero or q2.is_zero or q3.is_zero:
        raise NullDirection("solid spread undefined: a direction has quadrance zero")
    return truediv(*solid_spread_from_parts(scalar_triple(lines.d1, lines.d2, lines.d3, form),
                                            q1, q2, q3, form.det))


def dual_solid_spread(lines: TriLines, form: SymmetricForm) -> FieldElement:
    """Solid spread of the three pairwise cross directions at the same apex."""
    n12 = b_cross(lines.d1, lines.d2, form)
    n13 = b_cross(lines.d1, lines.d3, form)
    n23 = b_cross(lines.d2, lines.d3, form)
    for n in (n12, n13, n23):
        if form.quadrance(n).is_zero:
            raise NullCross("dual solid spread undefined: a cross direction has quadrance zero")
    return solid_spread(TriLines(lines.apex, n12, n13, n23), form)
