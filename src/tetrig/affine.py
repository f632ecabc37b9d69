"""Points, lines, planes, normals, and projection in affine 3-space."""

from __future__ import annotations

from .blinalg import Frozen, SymmetricForm, Vector3, b_cross, cross3, det3, shared_spec
from .field import FieldElement, FieldSpec, MixedFields


class DegeneratePlane(Exception):
    """Spanning vectors are linearly dependent."""


class NullAxis(Exception):
    """Projection axis has quadrance zero, so the projection is undefined."""


class Point3(Frozen):
    """Affine position with three exact coordinates."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: FieldElement, y: FieldElement, z: FieldElement):
        shared_spec(x, y, z)
        super().__init__(x, y, z)

    @classmethod
    def of(cls, spec: FieldSpec, x, y, z) -> "Point3":
        return cls(spec.element(x), spec.element(y), spec.element(z))

    @property
    def spec(self) -> FieldSpec:
        return self.x.spec

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
