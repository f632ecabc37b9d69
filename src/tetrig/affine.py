"""Vectors and points, the twisted products of vectors, and lines, planes, normals and
projection in affine 3-space, over field elements."""

from __future__ import annotations

from .blinalg import Frozen, SymmetricForm, cross_values, form_values, inner, shared_spec
from .element import FieldElement
from .field import FieldSpec, MixedFields, _over_common_den


class _Triple(Frozen):
    """Three exact components x, y, z over one field; each subclass names them in its own
    `__slots__`, which `Record` reads."""

    __slots__ = ()

    def __init__(self, *xyz: FieldElement):
        super().__init__(*xyz)  # first: a wrong count is a TypeError naming the subclass
        shared_spec(*xyz)

    @classmethod
    def of(cls, spec: FieldSpec, x, y, z):
        return cls(spec.element(x), spec.element(y), spec.element(z))

    @property
    def spec(self) -> FieldSpec:
        return self.x.spec

    def _scaled(self) -> tuple[int, list[int]]:
        """L, the lcm of the component denominators (1 over F_p), and the components times L."""
        return _over_common_den([self.x._parts(), self.y._parts(), self.z._parts()])


class Vector3(_Triple):
    """Displacement vector with three exact components."""

    __slots__ = ("x", "y", "z")

    @property
    def is_zero(self) -> bool:
        return self.x.is_zero and self.y.is_zero and self.z.is_zero

    def components(self) -> tuple[FieldElement, FieldElement, FieldElement]:
        return (self.x, self.y, self.z)

    def __add__(self, other: "Vector3") -> "Vector3":
        return Vector3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vector3") -> "Vector3":
        return Vector3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vector3":
        return Vector3(-self.x, -self.y, -self.z)

    def __mul__(self, k) -> "Vector3":
        return Vector3(self.x * k, self.y * k, self.z * k)

    __rmul__ = __mul__


def cross3(v: Vector3, w: Vector3) -> Vector3:
    """Plain Euclidean cross product of two row vectors."""
    return Vector3(*cross_values(v.components(), w.components()))


def det3(v1: Vector3, v2: Vector3, v3: Vector3) -> FieldElement:
    """Determinant of the matrix stacking v1, v2, v3 as rows."""
    return inner(v1.components(), cross_values(v2.components(), v3.components()))


def mat3_det(rows) -> FieldElement:
    """Determinant of a 3x3 matrix given as three rows of field elements."""
    return inner(rows[0], cross_values(rows[1], rows[2]))


def b_dot(v: Vector3, w: Vector3, form: SymmetricForm) -> FieldElement:
    return form.dot(v, w)


def quadrance_vec(v: Vector3, form: SymmetricForm) -> FieldElement:
    return form.quadrance(v)


def b_cross(v: Vector3, w: Vector3, form: SymmetricForm) -> Vector3:
    """(v x w) adj B on v and w scaled by Lv and Lw, each component divided once: by M^2 Lv Lw."""
    form._check(v)
    form._check(w)
    (lv, v), (lw, w) = v._scaled(), w._scaled()
    ratio, den = form.spec._ratio, form._scale ** 2 * lv * lw
    return Vector3(*(ratio(x, den) for x in form_values(form._adj, cross_values(v, w))))


def scalar_triple(v1: Vector3, v2: Vector3, v3: Vector3, form: SymmetricForm) -> FieldElement:
    return form.dot(v1, b_cross(v2, v3, form))


def vector_triple(v1: Vector3, v2: Vector3, v3: Vector3, form: SymmetricForm) -> Vector3:
    """First vector crossed with the cross of the other two."""
    direct = b_cross(v1, b_cross(v2, v3, form), form)
    expanded = (v2 * form.dot(v1, v3) - v3 * form.dot(v1, v2)) * form.det
    # the two evaluation routes agree identically; a mismatch means the
    # cached adjugate or determinant is corrupt
    if direct != expanded:
        raise RuntimeError("internal check failed: vector triple routes disagree")
    return direct


def quad_scalar(v1: Vector3, v2: Vector3, v3: Vector3, v4: Vector3,
                form: SymmetricForm) -> FieldElement:
    return form.dot(b_cross(v1, v2, form), b_cross(v3, v4, form))


def quad_vector(v1: Vector3, v2: Vector3, v3: Vector3, v4: Vector3,
                form: SymmetricForm) -> Vector3:
    return b_cross(b_cross(v1, v2, form), b_cross(v3, v4, form), form)


def triple_of_crosses(v1: Vector3, v2: Vector3, v3: Vector3,
                      form: SymmetricForm) -> FieldElement:
    return scalar_triple(b_cross(v2, v3, form),
                         b_cross(v3, v1, form),
                         b_cross(v1, v2, form), form)


class DegeneratePlane(Exception):
    """Spanning vectors are linearly dependent."""


class NullAxis(Exception):
    """Projection axis has quadrance zero, so the projection is undefined."""


class Point3(_Triple):
    """Affine position with three exact coordinates."""

    __slots__ = ("x", "y", "z")

    def coordinates(self) -> tuple[FieldElement, FieldElement, FieldElement]:
        return (self.x, self.y, self.z)


def displacement(start: Point3, end: Point3) -> Vector3:
    """Vector from start to end; additive along chains of points."""
    return Vector3(end.x - start.x, end.y - start.y, end.z - start.z)


def translate(point: Point3, move: Vector3) -> Point3:
    return Point3(point.x + move.x, point.y + move.y, point.z + move.z)


class Line(Frozen):
    __slots__ = ("base", "direction")

    def __init__(self, base: Point3, direction: Vector3):
        if base.spec != direction.spec:
            raise MixedFields("line base and direction drawn from different fields")
        if direction.is_zero:
            raise ValueError("line direction must be nonzero")
        super().__init__(base, direction)


class Plane(Frozen):
    __slots__ = ("base", "span1", "span2")

    def __init__(self, base: Point3, span1: Vector3, span2: Vector3):
        if not (base.spec == span1.spec == span2.spec):
            raise MixedFields("plane base and spans drawn from different fields")
        if cross3(span1, span2).is_zero:
            raise DegeneratePlane("spanning vectors are linearly dependent")
        super().__init__(base, span1, span2)


def line_through(x: Point3, y: Point3) -> Line:
    return Line(x, displacement(x, y))


def plane_through(x: Point3, y: Point3, z: Point3) -> Plane:
    return Plane(x, displacement(x, y), displacement(x, z))


def plane_normal(plane: Plane, form: SymmetricForm) -> Vector3:
    """Normal direction: B-perpendicular to every displacement in the plane.

    Nonzero whenever the spans are independent, but over F_p it may still
    have quadrance zero; dihedral spreads at such a plane are undefined.
    """
    return b_cross(plane.span1, plane.span2, form)


def b_project(target: Vector3, axis: Vector3, form: SymmetricForm) -> Vector3:
    """Component of target along axis; the residual is B-perpendicular to axis."""
    q = form.quadrance(axis)
    if q.is_zero:
        raise NullAxis("projection axis has quadrance zero")
    return axis * (form.dot(axis, target) / q)


def point_on_line(point: Point3, line: Line) -> bool:
    return cross3(displacement(line.base, point), line.direction).is_zero


def point_on_plane(point: Point3, plane: Plane) -> bool:
    return det3(displacement(plane.base, point), plane.span1, plane.span2).is_zero


def lines_equal(l1: Line, l2: Line) -> bool:
    """Same carrier line: directions and the base offset are all proportional."""
    if not cross3(l1.direction, l2.direction).is_zero:
        return False
    return cross3(displacement(l1.base, l2.base), l1.direction).is_zero
