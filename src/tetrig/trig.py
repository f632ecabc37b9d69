"""Metrical invariants on field elements: quadrance, quadrea, quadrume, the spreads, and
the whole tetrahedron's report, identity verdicts, skew quadrances and right corner.

All quantities are exact elements of the coefficient field.  Spread-type quantities divide
by quadrances, which can vanish over a finite field even for nonzero vectors; those cases
raise instead of returning a sentinel.  A report reads `tetra`'s integer table back as field
elements, with its Undefined entries, and `document` writes it; the CLI never loads this module.
"""

from __future__ import annotations

from operator import truediv

from .affine import (Line, Plane, Point3, Vector3, b_cross, b_project, displacement, mat3_det,
                     plane_normal, scalar_triple, translate)
from .blinalg import Frozen, Record, SymmetricForm, shared_spec
from .corner import _RIGHT_CORNER, _corner_factors, _corner_parts, _right_corner_parts
from .element import FieldElement, _element
from .field import _over_common_den
from .tetra import (_ENTRIES, _FIELDS, _IDENTITIES, _SKEW_EDGES, EDGES, FAIL, INAPPLICABLE, PASS,
                    _by_field, _gram, _report_table, _skew_denominator, _verify_parts, archimedes,
                    solid_spread_from_parts, spread_from_parts)


class NullDirection(Exception):
    """A line direction has quadrance zero; the spread is undefined."""


class NullNormal(Exception):
    """A plane normal has quadrance zero; the dihedral spread is undefined."""


class NullCross(Exception):
    """A pairwise cross direction has quadrance zero; the dual solid spread is undefined."""


class NotSkewOrDegenerate(Exception):
    """Opposite edge lines are parallel (or collapse), so no skew quadrance exists."""


class NullCommonPerpendicular(Exception):
    """The common perpendicular direction has quadrance zero."""


class NullPivot(Exception):
    """Orthogonalization hit a direction with quadrance zero."""


class Triangle(Frozen):
    """Unordered triple of points; degeneracy is allowed (quadrea is then 0)."""

    __slots__ = ("a1", "a2", "a3")

    def __init__(self, a1: Point3, a2: Point3, a3: Point3):
        shared_spec(a1, a2, a3)
        super().__init__(a1, a2, a3)


class TriLines(Frozen):
    """Three concurrent lines through a common apex, given by directions."""

    __slots__ = ("apex", "d1", "d2", "d3")

    def __init__(self, apex: Point3, d1: Vector3, d2: Vector3, d3: Vector3):
        shared_spec(apex, d1, d2, d3)
        if d1.is_zero or d2.is_zero or d3.is_zero:
            raise ValueError("line directions must be nonzero")
        super().__init__(apex, d1, d2, d3)

    def directions(self) -> tuple[Vector3, Vector3, Vector3]:
        return (self.d1, self.d2, self.d3)


def quadrance(x: Point3, y: Point3, form: SymmetricForm) -> FieldElement:
    return form.quadrance(displacement(x, y))


def quadrea(tri: Triangle, form: SymmetricForm) -> FieldElement:
    """Archimedes' function of the triangle's three quadrances."""
    q1 = quadrance(tri.a2, tri.a3, form)
    q2 = quadrance(tri.a1, tri.a3, form)
    q3 = quadrance(tri.a1, tri.a2, form)
    return archimedes(q1, q2, q3)


def quadrume(tet: Tetrahedron) -> FieldElement:
    """Squared scalar triple of the edge vectors at one vertex, times 4/det B.

    Independent of the chosen base vertex.
    """
    form = tet.form
    t = scalar_triple(tet.edge_vector(0, 1), tet.edge_vector(0, 2),
                      tet.edge_vector(0, 3), form)
    return t * t * 4 / form.det


def quadrume_from_gram(tet: Tetrahedron) -> FieldElement:
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
    """The spread between the two plane normals."""
    try:
        return spread_vectors(plane_normal(p1, form), plane_normal(p2, form), form)
    except NullDirection:
        raise NullNormal("dihedral spread undefined: a normal has quadrance zero") from None


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
    t = scalar_triple(lines.d1, lines.d2, lines.d3, form)  # t^2 / det B: the Gram determinant
    return truediv(*solid_spread_from_parts(t * t / form.det, q1, q2, q3))


def dual_solid_spread(lines: TriLines, form: SymmetricForm) -> FieldElement:
    """Solid spread of the three pairwise cross directions at the same apex."""
    n12 = b_cross(lines.d1, lines.d2, form)
    n13 = b_cross(lines.d1, lines.d3, form)
    n23 = b_cross(lines.d2, lines.d3, form)
    for n in (n12, n13, n23):
        if form.quadrance(n).is_zero:
            raise NullCross("dual solid spread undefined: a cross direction has quadrance zero")
    return solid_spread(TriLines(lines.apex, n12, n13, n23), form)


class Tetrahedron(Frozen):
    """Four affine points measured against one symmetric form."""

    __slots__ = ("a0", "a1", "a2", "a3", "form")

    def __init__(self, a0: Point3, a1: Point3, a2: Point3, a3: Point3, form: SymmetricForm):
        shared_spec(a0, a1, a2, a3, form)
        super().__init__(a0, a1, a2, a3, form)

    @property
    def spec(self):
        return self.a0.spec

    @property
    def points(self) -> tuple[Point3, Point3, Point3, Point3]:
        return (self.a0, self.a1, self.a2, self.a3)

    def vertex(self, i: int) -> Point3:
        return self.points[i]

    def edge_vector(self, i: int, j: int) -> Vector3:
        return displacement(self.points[i], self.points[j])


class Undefined(Frozen):
    """Placeholder for a quantity whose defining formula divides by zero."""

    __slots__ = ("reason",)

    def _parts(self) -> tuple[int, int]:
        """A zero den, which `_verify_parts` reads as undecided wherever it is a factor."""
        return 1, 0


def is_defined(entry: FieldElement | Undefined) -> bool:
    return isinstance(entry, FieldElement)


class InvariantReport(Record):
    """Every metrical invariant of one tetrahedron, fully expanded.  Tables are
    keyed like EDGES, FACES, FACE_SPREAD_KEYS, VERTICES and SKEW_PAIRINGS; spreads,
    the ratio constant and skew quadrances may be Undefined."""

    __slots__ = ("tetrahedron", *(field for field, *_ in _FIELDS))


class Verdict(Frozen):
    __slots__ = ("identity", "instance", "status")


class CheckResults(Record):
    __slots__ = ("verdicts",)

    def counts(self) -> dict:
        statuses = [v.status for v in self.verdicts]
        return {status: statuses.count(status) for status in (PASS, FAIL, INAPPLICABLE)}

    @property
    def failures(self) -> list:
        return [v for v in self.verdicts if v.status == FAIL]

    @property
    def all_applicable_pass(self) -> bool:
        return not self.failures


def skew_quadrance(tet: Tetrahedron, pairing, params=None) -> FieldElement:
    """Quadrance of the gap between two opposite edge lines.

    Projects the displacement between one point of each line onto their
    common perpendicular direction.  The result does not depend on the
    chosen points; `params` moves them along the lines to exercise that.
    """
    (a, b), (c, d) = pairing
    form = tet.form
    v1, v2 = tet.edge_vector(a, b), tet.edge_vector(c, d)
    n = b_cross(v1, v2, form)
    qn = form.quadrance(n)
    if qn.is_zero:
        if n.is_zero:
            raise NotSkewOrDegenerate("opposite edge directions are parallel")
        raise NullCommonPerpendicular("common perpendicular direction has quadrance zero")
    p1, p2 = tet.vertex(a), tet.vertex(c)
    if params is not None:
        t1, t2 = params
        p1 = translate(p1, v1 * t1)
        p2 = translate(p2, v2 * t2)
    gap = b_project(displacement(p1, p2), n, form)
    return form.quadrance(gap)


def skew_quadrance_closed_form(tet: Tetrahedron, pairing) -> FieldElement:
    """Same quantity from the six quadrances and the quadrume alone."""
    q = [quadrance(tet.vertex(i), tet.vertex(j), tet.form) for i, j in EDGES]
    den = _skew_denominator(*(q[n] for n in _SKEW_EDGES[pairing]))
    if den.is_zero:
        raise NotSkewOrDegenerate("skew quadrance denominator is zero")
    return quadrume(tet) / den


def _scaled_coordinates(points) -> tuple[int, list[int]]:
    """L, the lcm of the coordinate denominators (1 over F_p), and the coordinates times L."""
    return _over_common_den([c._parts() for point in points for c in point.coordinates()])


def analyze(tet: Tetrahedron) -> InvariantReport:
    """The full invariant report: each entry of `_report_table`, a canonical pair, as its
    element, or Undefined, with the reason its field's denominator names, where den is 0."""
    table = _report_table(tet.spec, *_gram(tet.form, *_scaled_coordinates(tet.points)))
    return InvariantReport(tet, *_by_field(
        _element(tet.spec, pair) if pair[1] else Undefined(reason)
        for (_, _, reason), pair in zip(_ENTRIES, table)))


def _report_parts(report: InvariantReport) -> list:
    """The report's entries as (num, den), in `_ENTRIES` order; an Undefined one is (1, 0)."""
    return [entry._parts() for table in report._fields()[1:]
            for entry in (table.values() if isinstance(table, dict) else (table,))]


def verify_identities(report: InvariantReport) -> CheckResults:
    """One verdict per identity instance, from the report entries alone."""
    statuses = _verify_parts(report.tetrahedron.spec._red, _report_parts(report))
    return CheckResults([Verdict(*row[:2], status) for row, status in zip(_IDENTITIES, statuses)])


def tri_rectangular_frame(form: SymmetricForm):
    """Three mutually B-perpendicular directions with nonzero quadrances.

    Successive orthogonalization of the standard basis using exact division
    only; raises NullPivot when a swept direction has quadrance zero, in
    which case a permuted seed basis may still succeed.
    """
    spec = form.spec
    basis = (Vector3.of(spec, 1, 0, 0), Vector3.of(spec, 0, 1, 0), Vector3.of(spec, 0, 0, 1))
    frame = []
    for e in basis:
        u = e
        for prev in frame:
            u = u - b_project(u, prev, form)
        if form.quadrance(u).is_zero:
            raise NullPivot("orthogonalization hit a direction with quadrance zero")
        frame.append(u)
    return tuple(frame)


class TriRectParams(Frozen):
    """Corner quadrances of a tetrahedron that is tri-rectangular at vertex 0."""

    __slots__ = ("k1", "k2", "k3")

    def __init__(self, k1: FieldElement, k2: FieldElement, k3: FieldElement):
        _corner_factors(shared_spec(k1, k2, k3)._red, [k._parts() for k in (k1, k2, k3)])
        super().__init__(k1, k2, k3)


def corner_params(tet: Tetrahedron) -> TriRectParams:
    """Validate tri-rectangularity at vertex 0 and extract the corner quadrances."""
    k = _corner_parts(*_gram(tet.form, *_scaled_coordinates(tet.points)))
    return TriRectParams(*(tet.spec._ratio(*pair) for pair in k))


def tri_rectangular_checks(report: InvariantReport) -> CheckResults:
    """Verdicts for the right-corner closed forms and sum relations of `report`."""
    tet = report.tetrahedron
    k = _corner_parts(*_gram(tet.form, *_scaled_coordinates(tet.points)))
    statuses = _right_corner_parts(tet.spec._red, _report_parts(report), k)
    return CheckResults([Verdict(*row[:2], status) for row, status in zip(_RIGHT_CORNER, statuses)])


# -- the library's objects as printed documents (`report`, `verify`) --------

def document_to_obj(tet: Tetrahedron, options=None) -> dict:
    """Replayable input document for a tetrahedron, with `options` (a `ReportOptions`) if given."""
    from .document import _document_obj
    return _document_obj(tet.form, *_scaled_coordinates(tet.points), options)


def report_to_obj(report: InvariantReport, options) -> dict:
    """The printed report of `report` under `options` (a `ReportOptions`)."""
    from .document import _report_obj
    return _report_obj(report.tetrahedron.spec, _report_parts(report), options)


def results_to_obj(results: CheckResults) -> dict:
    from .document import _results_obj
    verdicts = results.verdicts
    return _results_obj([v._fields() for v in verdicts], [v.status for v in verdicts])

