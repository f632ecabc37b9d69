"""Whole-tetrahedron analysis: the invariant report, identity verification,
skew quadrances of opposite edges, and the tri-rectangular specialization.

A report stores every invariant fully expanded, computed from the defining
formulas; the closed forms are used only as verification identities, so
`_verify_parts` (under `verify_identities`) is the one place that checks them.
An entry is Undefined exactly when the denominator of its defining formula
vanishes, with a reason naming what vanished: a null edge (face and solid
spreads), a null face normal (dihedral and dual solid spreads), a zero quadrea
(R) or the zero skew denominator.  Quadrances, quadreas and the quadrume are
always defined.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, lcm, prod

from .affine import Point3, b_project, displacement, translate
from .blinalg import (Frozen, Record, SymmetricForm, Vector3, adj_cross_values, b_cross,
                      dot_values, shared_spec)
from .field import FieldElement, MixedFields
from .trig import (archimedes, quadrance, quadrume, solid_spread_from_parts,
                   spread_from_parts)


class NotSkewOrDegenerate(Exception):
    """Opposite edge lines are parallel (or collapse), so no skew quadrance exists."""


class NullCommonPerpendicular(Exception):
    """The common perpendicular direction has quadrance zero."""


class NotTriRectangular(Exception):
    """Corner edge vectors are not mutually B-perpendicular."""


class DegenerateParams(Exception):
    """Corner quadrances violate the nonzero/nonzero-sum requirements."""


class NullPivot(Exception):
    """Orthogonalization hit a direction with quadrance zero."""


VERTICES = (0, 1, 2, 3)
EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
SKEW_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"

# the vertices off each vertex and off each edge; the faces at each vertex and on each edge
_REST_OF_VERTEX = {i: tuple(m for m in VERTICES if m != i) for i in VERTICES}
_REST_OF_EDGE = {edge: tuple(m for m in VERTICES if m not in edge) for edge in EDGES}
_FACES_AT = {i: tuple(f for f in FACES if i in f) for i in VERTICES}
_FACES_ON = {edge: tuple(f for f in FACES if set(edge) < set(f)) for edge in EDGES}


def edge_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


FACE_SPREAD_KEYS = tuple((i, j, k) for i, rest in _REST_OF_VERTEX.items()
                         for j, k in combinations(rest, 2))


def pairing_name(pairing) -> str:
    (a, b), (c, d) = pairing
    return f"{a}{b};{c}{d}"


class Tetrahedron(Frozen):
    """Four affine points measured against one symmetric form."""

    __slots__ = ("a0", "a1", "a2", "a3", "form")

    def __init__(self, a0: Point3, a1: Point3, a2: Point3, a3: Point3, form: SymmetricForm):
        shared_spec(a0.x, a1.x, a2.x, a3.x)
        if a0.spec != form.spec:
            raise MixedFields("points and form drawn from different fields")
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
        """A zero den, which `_decide` reads as undecided wherever it is a factor."""
        return 1, 0


def is_defined(entry: FieldElement | Undefined) -> bool:
    return isinstance(entry, FieldElement)


class InvariantReport(Record):
    """Every metrical invariant of one tetrahedron, fully expanded.  Tables are
    keyed like EDGES, FACES, FACE_SPREAD_KEYS, VERTICES and SKEW_PAIRINGS; spreads,
    the ratio constant and skew quadrances may be Undefined."""

    __slots__ = ("tetrahedron", "quadrances", "quadreas", "quadrume", "face_spreads",
                 "dihedral_spreads", "solid_spreads", "dual_solid_spreads",
                 "ratio_constant", "skew_quadrances")


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


def _skew_denominator(q: dict, pairing):
    """4 Q_ab Q_cd - (Q_ac + Q_bd - Q_ad - Q_bc)^2 for the pairing (ab, cd), in the
    type of the quadrances `q` (elements, or raw ints), keyed by `edge_key`."""
    (a, b), (c, d) = pairing
    diff = q[edge_key(a, c)] + q[edge_key(b, d)] - q[edge_key(a, d)] - q[edge_key(b, c)]
    return q[edge_key(a, b)] * q[edge_key(c, d)] * 4 - diff * diff


def skew_quadrance(tet: Tetrahedron, pairing, params=None) -> FieldElement:
    """Quadrance of the gap between two opposite edge lines.

    Projects the displacement between one point of each line onto their
    common perpendicular direction.  The result does not depend on the
    chosen points; `params` moves them along the lines to exercise that.
    """
    (a, b), (c, d) = pairing
    form = tet.form
    v1 = tet.edge_vector(a, b)
    v2 = tet.edge_vector(c, d)
    n = b_cross(v1, v2, form)
    qn = form.quadrance(n)
    if qn.is_zero:
        if n.is_zero:
            raise NotSkewOrDegenerate("opposite edge directions are parallel")
        raise NullCommonPerpendicular("common perpendicular direction has quadrance zero")
    p1 = tet.vertex(a)
    p2 = tet.vertex(c)
    if params is not None:
        t1, t2 = params
        p1 = translate(p1, v1 * t1)
        p2 = translate(p2, v2 * t2)
    gap = b_project(displacement(p1, p2), n, form)
    return form.quadrance(gap)


def skew_quadrance_closed_form(tet: Tetrahedron, pairing) -> FieldElement:
    """Same quantity from the six quadrances and the quadrume alone."""
    q = {e: quadrance(tet.vertex(e[0]), tet.vertex(e[1]), tet.form) for e in EDGES}
    den = _skew_denominator(q, pairing)
    if den.is_zero:
        raise NotSkewOrDegenerate("skew quadrance denominator is zero")
    return quadrume(tet) / den


def _scaled_coordinates(points) -> tuple[int, list[int]]:
    """L, the lcm of the coordinate denominators (1 over F_p), and the coordinates times L."""
    values = [c._value for point in points for c in point.coordinates()]
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _edge(coords, i: int, j: int) -> tuple[int, int, int]:
    """The edge vector from point i to point j of twelve coordinates, three per point."""
    a, b = 3 * i, 3 * j
    return coords[b] - coords[a], coords[b + 1] - coords[a + 1], coords[b + 2] - coords[a + 2]


def _skew_parts(form: SymmetricForm, s: int, coords, pairing, t1: int = 0, t2: int = 0):
    """(num, den) of the skew quadrance of `pairing` ((a, b), (c, d)), scaled as in
    `_analyze_parts`: the gap w from a + t1 v1 to c + t2 v2 (v1 = ab, v2 = cd) projected
    onto n = v1 x_B v2 has quadrance (n . w)^2 / Q(n), whatever t1 and t2, as n is
    B-perpendicular to both edges; Q(n) = det B * den / 4 for the closed form's den."""
    red, b = form.spec._red, form._ints
    (i, j), (k, l) = pairing
    v1, v2 = _edge(coords, i, j), _edge(coords, k, l)
    n = tuple(map(red, adj_cross_values(form._adj, v1, v2)))
    w = [x + t2 * y - t1 * z for x, y, z in zip(_edge(coords, i, k), v2, v1)]
    nw = red(dot_values(b, n, w))
    return nw * nw, red(dot_values(b, n, n)) * s


# InvariantReport's fields of entries in print order, each with its table's keys (None: one
# entry), its printed section, the printed name of a key, and why an entry is Undefined, what
# vanished to make its denominator zero; Q, A and V never are, as s and det B are nonzero.
_FIELDS = tuple((field, *layout) for field, layout in zip(InvariantReport.__slots__[1:], (
    (EDGES, "Q", "%d%d".__mod__, None), (FACES, "A", "%d%d%d".__mod__, None),
    (None, "V", None, None), (FACE_SPREAD_KEYS, "s", "%d;%d%d".__mod__, "NullEdge"),
    (EDGES, "E", "%d%d".__mod__, "NullNormal"), (VERTICES, "S", str, "NullEdge"),
    (VERTICES, "D", str, "NullNormal"), (None, "R", None, "ZeroQuadrea"),
    (SKEW_PAIRINGS, "skew", pairing_name, "ZeroDenominator"))))
# every entry in print order: its field, its key and its Undefined reason
_ENTRIES = tuple((field, key, reason) for field, keys, *_, reason in _FIELDS
                 for key in keys or (None,))


def _by_field(entries) -> list:
    """`entries` in `_ENTRIES` order, per field: one entry, or a dict of them by key."""
    flat = iter(entries)
    return [next(flat) if keys is None else {key: next(flat) for key in keys}
            for _, keys, *_ in _FIELDS]


# each entry's index in _ENTRIES, by field: an index, or a dict of them by key
_INDEX = dict(zip(InvariantReport.__slots__[1:], _by_field(range(len(_ENTRIES)))))


def _analyze_parts(form: SymmetricForm, scale: int, coords) -> list:
    """Every entry of the invariant report as an integer pair (num, den), in `_ENTRIES`
    order, from the defining formulas on plain ints: the twelve coordinates of the
    points, three per point, times `scale`.

    Over Q the points are scaled by L (`_scaled_coordinates`) and the form by M
    (`SymmetricForm._ints`); with s = L^2 M each entry's one division takes the
    scale out: Q / s, A / s^2, V / s^3, skew / s, R * s^2, spreads unscaled.  Over
    F_p, L = M = s = 1 and values are reduced mod p as they grow.  No branch on a
    value: a den is zero (mod p over F_p) exactly where the entry is Undefined.
    """
    red = form.spec._red
    b, adj, det = form._ints, form._adj, form._int_det
    s = scale * scale * form._scale

    def dot(v, w):
        return red(dot_values(b, v, w))

    def cross(v, w):  # b_cross
        return tuple(map(red, adj_cross_values(adj, v, w)))

    # each edge vector and quadrance is built once, keyed both ways round
    edge, q = {}, {}
    for (i, j) in EDGES:
        v = _edge(coords, i, j)
        edge[i, j], edge[j, i] = v, tuple(-x for x in v)
        q[i, j] = q[j, i] = dot(v, v)
    a = {(i, j, k): red(archimedes(q[j, k], q[i, k], q[i, j])) for (i, j, k) in FACES}
    t = {i: dot(edge[i, j], cross(edge[i, k], edge[i, l]))
         for i, (j, k, l) in _REST_OF_VERTEX.items()}

    # One normal per face, with its quadrance Q(n) = det B * A / 4, so the
    # normal spreads' denominators vanish exactly where a face quadrea does.  A
    # normal built at another vertex of the face differs only in sign, which
    # the squares in every spread cancel.
    normals = {(i, j, k): cross(edge[i, j], edge[i, k]) for (i, j, k) in FACES}
    qn = {f: dot(n, n) for f, n in normals.items()}
    vol_num = 4 * t[0] * t[0]  # V = 4 t^2 / det B from the edges at vertex 0

    return [
        *((q[e], s) for e in EDGES),
        *((a[f], s * s) for f in FACES),
        (vol_num, s * s * s * det),
        *(spread_from_parts(dot(edge[i, j], edge[i, k]), q[i, j], q[i, k])
          for (i, j, k) in FACE_SPREAD_KEYS),
        *(spread_from_parts(dot(normals[f1], normals[f2]), qn[f1], qn[f2])
          for f1, f2 in _FACES_ON.values()),
        *(solid_spread_from_parts(t[i], *(q[i, m] for m in rest), det)
          for i, rest in _REST_OF_VERTEX.items()),
        # the solid spread of the normals of the three faces at the vertex
        *(solid_spread_from_parts(dot(normals[f1], cross(normals[f2], normals[f3])),
                                  qn[f1], qn[f2], qn[f3], det)
          for f1, f2, f3 in _FACES_AT.values()),
        (16 * vol_num * vol_num * s * s, det * det * prod(a.values())),
        *(_skew_parts(form, s, coords, pairing) for pairing in SKEW_PAIRINGS),
    ]


def _report_table(form: SymmetricForm, scale: int, coords) -> list:
    """The canonical table of a report: each entry of `_analyze_parts` reduced once, to
    (num, den) in lowest terms with den > 0 over Q, to (residue, 1) over F_p, and to (1, 0)
    where it is Undefined, its den zero (mod p).  Equal to `_report_parts(analyze(tet))`."""
    p, parts = form.spec.p, _analyze_parts(form, scale, coords)
    if p is not None:
        return [(num * pow(den, -1, p) % p, 1) if den % p else (1, 0) for num, den in parts]
    gcds = ((num, den, gcd(num, den) if den > 0 else -gcd(num, den)) for num, den in parts)
    return [(num // g, den // g) if den else (1, 0) for num, den, g in gcds]


def analyze(tet: Tetrahedron) -> InvariantReport:
    """The full invariant report: each entry of `_report_table` as num / den, or
    Undefined, with the reason its field's denominator names, where den is 0."""
    spec, table = tet.spec, _report_table(tet.form, *_scaled_coordinates(tet.points))
    return InvariantReport(tet, *_by_field(
        spec._ratio(num, den) if den else Undefined(reason)
        for (_, _, reason), (num, den) in zip(_ENTRIES, table)))


def _report_parts(report: InvariantReport) -> list:
    """The report's entries as (num, den), in `_ENTRIES` order; an Undefined one is (1, 0)."""
    return [entry._parts() for table in report._fields()[1:]
            for entry in (table.values() if isinstance(table, dict) else (table,))]


def _side(const: int, factors) -> tuple[int, int]:
    """(num, den) of const times the product of (num, den) factors."""
    num, den = const, 1
    for n, d in factors:
        num *= n
        den *= d
    return num, den


def _sum(*terms):
    """(num, den) of the sum of (num, den) terms; a zero den stays zero."""
    num, den = 0, 1
    for n, d in terms:
        num, den = num * d + n * den, den * d
    return num, den


def _decide(red, lconst: int, lhs, rconst: int, rhs):
    """PASS or FAIL for `lconst * prod(lhs) == rconst * prod(rhs)`, by one
    cross-multiplied integer comparison reduced by `red`; None when the dens'
    product is zero under `red`: in a field, when one den is (an Undefined entry)."""
    (ln, ld), (rn, rd) = _side(lconst, lhs), _side(rconst, rhs)
    if red(ld * rd) == 0:
        return None
    return PASS if red(ln * rd - rn * ld) == 0 else FAIL


def _identity_rows():
    """One row per identity instance, in verdict order: (identity, instance, c, lhs, c',
    rhs) for `c * prod(lhs) == c' * prod(rhs)`, each factor an index into the factors of
    `_verify_parts`: the entries (`_ENTRIES`), the product of the Q^2, the skew dens."""
    q, a, vol, s, e, sol, dual, rich, skew = _INDEX.values()
    q = {**q, **{(j, i): n for (i, j), n in q.items()}}  # keyed both ways round
    s = {**s, **{(i, k, j): n for (i, j, k), n in s.items()}}
    prod_q2 = len(_ENTRIES)
    skew_den = {pairing: prod_q2 + 1 + n for n, pairing in enumerate(SKEW_PAIRINGS)}
    for i in VERTICES:
        x, y, z = _REST_OF_VERTEX[i]
        yield ("alternating-spreads", f"vertex-{i}",
               1, [s[x, i, y], s[y, i, z], s[z, i, x]], 1, [s[x, i, z], s[y, i, x], s[z, i, y]])
    for (i, j), (f1, f2) in _FACES_ON.items():
        yield "dihedral-spread-formula", f"E{i}{j}", 1, [e[i, j], a[f1], a[f2]], 4, [q[i, j], vol]
    for p1, p2 in SKEW_PAIRINGS:
        yield ("dihedral-spread-ratio", f"{p1[0]}{p1[1]}|{p2[0]}{p2[1]}",
               1, [e[p1], e[p2]], 1, [rich, q[p1], q[p2]])
    for i in VERTICES:
        j, k, l = _REST_OF_VERTEX[i]
        yield "solid-spread-formula", f"S{i}", 4, [sol[i], q[i, j], q[i, k], q[i, l]], 1, [vol]
    for (i, j) in EDGES:
        k, l = _REST_OF_EDGE[i, j]
        yield ("solid-spread-ratio", f"S{i}|S{j}",
               1, [sol[i], q[i, k], q[i, l]], 1, [sol[j], q[j, k], q[j, l]])
    for (i, j), (k, l) in SKEW_PAIRINGS:
        yield ("solid-spread-pair-ratio", f"{i}{j}|{k}{l}",
               1, [sol[i], sol[j], q[i, j], q[i, j]], 1, [sol[k], sol[l], q[k, l], q[k, l]])
    for o in VERTICES:
        i, j, k = _REST_OF_VERTEX[o]
        yield ("solid-spread-triple-ratio", f"S{i}S{j}S{k}",
               64, [sol[i], sol[j], sol[k], prod_q2], 1, [vol, vol, vol, q[i, o], q[j, o], q[k, o]])
    for i in VERTICES:
        yield ("dual-solid-spread-formula", f"D{i}",
               1, [dual[i], *(a[f] for f in _FACES_AT[i])], 4, [vol, vol])
    for i in VERTICES:
        yield "dual-solid-quadrea-ratio", f"D{i}", 4, [dual[i]], 1, [rich, a[_REST_OF_VERTEX[i]]]
    for pairing in SKEW_PAIRINGS:
        yield ("skew-quadrance-formula", pairing_name(pairing),
               1, [skew[pairing], skew_den[pairing]], 1, [vol])


_IDENTITIES = tuple(_identity_rows())
IDENTITY_NAMES = tuple(dict.fromkeys(row[0] for row in _IDENTITIES))
# the index of the first of a caller's extra factors in `_verify_parts`
_EXTRA = len(_ENTRIES) + 1 + len(SKEW_PAIRINGS)
# the right corner's sums: A012 + A013 + A023, E12 + E13 + E23, S1 + S2 + S3 and D1 + D2 + D3
_CORNER_SUMS = tuple([_INDEX[field][key] for key in keys] for field, keys in (
    ("quadreas", FACES[:3]), ("dihedral_spreads", EDGES[3:]),
    ("solid_spreads", (1, 2, 3)), ("dual_solid_spreads", (1, 2, 3))))


def _right_corner_rows():
    """One row per right-corner closed form and sum relation, as in `_identity_rows`, with
    the extra factors of `_right_corner_parts`: cs is K1 K2 + K1 K3 + K2 K3, `rest` is
    1 - S1 - S2 - S3, and the other sums are those of `_CORNER_SUMS`."""
    q, a, vol, s, e, sol, dual, _, _ = _INDEX.values()
    k1, k2, k3, k12, k13, k23, cs, a_sum, e_sum, rest, d_sum = range(_EXTRA, _EXTRA + 11)
    k = {1: k1, 2: k2, 3: k3}
    kk = {(1, 2): k12, (2, 1): k12, (1, 3): k13, (3, 1): k13, (2, 3): k23, (3, 2): k23}
    for j, m in EDGES[3:]:  # the edges opposite the corner
        yield "closed-form-quadrance", f"Q{j}{m}", 1, [q[j, m]], 1, [kk[j, m]]
    yield "closed-form-quadrume", "V", 1, [vol], 4, [k[1], k[2], k[3]]
    for f in FACES:
        yield ("closed-form-quadrea", "A%d%d%d" % f, 1, [a[f]],
               4, [cs] if f == (1, 2, 3) else [k[f[1]], k[f[2]]])
    # at apex i: s_i;0m = K_m / (K_i + K_m), s_i;jm = cs / ((K_i + K_j)(K_i + K_m))
    for i, j, m in FACE_SPREAD_KEYS[3:]:
        yield ("closed-form-face-spread", f"s{i};{j}{m}", 1,
               [s[i, j, m], kk[i, m]] + ([kk[i, j]] if j else []), 1, [cs if j else k[m]])
    for j, m in EDGES[3:]:
        yield ("closed-form-dihedral-spread", f"E{j}{m}",
               1, [e[j, m], cs], 1, [k[6 - j - m], kk[j, m]])
    for i in (1, 2, 3):
        j, m = _REST_OF_EDGE[0, i]
        yield ("closed-form-solid-spread", f"S{i}", 1, [sol[i], kk[i, j], kk[i, m]],
               1, [k[j], k[m]])
    for i in (1, 2, 3):
        j, m = _REST_OF_EDGE[0, i]
        yield "closed-form-dual-solid-spread", f"D{i}", 1, [dual[i], cs], 1, [k[j], k[m]]
    units = [(f"s0;{j}{m}", s[0, j, m]) for j, m in EDGES[3:]]
    units += [(f"E0{j}", e[0, j]) for j in (1, 2, 3)] + [("S0", sol[0]), ("D0", dual[0])]
    for instance, entry in units:
        yield "right-corner-units", instance, 1, [entry], 1, []
    yield "face-quadrea-sum", "A123", 1, [a[1, 2, 3]], 1, [a_sum]
    yield "dihedral-spread-sum", "E12+E13+E23", 1, [e_sum], 2, []
    yield "solid-spread-square", "(1-S1-S2-S3)^2", 1, [rest, rest], 4, [sol[1], sol[2], sol[3]]
    yield "dual-solid-spread-sum", "D1+D2+D3", 1, [d_sum], 1, []


_RIGHT_CORNER = tuple(_right_corner_rows())
# a fuzz sample's rows: the identities, then each skew entry against its extra factor, the
# skew quadrance from points moved along the edges (`_skew_parts` at the drawn t1, t2)
_FUZZ_ROWS = _IDENTITIES + tuple(
    ("skew-quadrance-projection", pairing_name(pairing), 1, [_EXTRA + n], 1, [index])
    for n, (pairing, index) in enumerate(_INDEX["skew_quadrances"].items()))


def _verify_parts(red, parts, rows=_IDENTITIES, extra=(), undecided=INAPPLICABLE) -> list:
    """The status of each row of `rows` from a report's (num, den) entries `parts` (the
    canonical table, or the kernel's unreduced parts) and a caller's `extra` factors, by
    `_decide`; a row with an Undefined factor, a den zero under `red`, is `undecided`."""
    q = parts[:len(EDGES)]
    # the skew denominator is homogeneous of degree 2 in the quadrances, so
    # over their common denominator d it is _skew_denominator(numerators) / d^2
    d = lcm(*(den for _, den in q))
    q_num = {key: num * (d // den) for key, (num, den) in zip(EDGES, q)}
    factors = [*parts, _side(1, [pair for pair in q for _ in (0, 1)]),
               *((_skew_denominator(q_num, pairing), d * d) for pairing in SKEW_PAIRINGS),
               *extra]
    return [_decide(red, lc, [factors[n] for n in lhs], rc, [factors[n] for n in rhs])
            or undecided for _, _, lc, lhs, rc, rhs in rows]


def _identity_verdicts(red, parts, rows=_IDENTITIES, *args) -> list:
    """(identity, instance, status) of each row of `rows` (`_verify_parts`)."""
    statuses = _verify_parts(red, parts, rows, *args)
    return [(row[0], row[1], status) for row, status in zip(rows, statuses)]


def verify_identities(report: InvariantReport) -> CheckResults:
    """One verdict per identity instance, from the report entries alone."""
    verdicts = _identity_verdicts(report.tetrahedron.spec._red, _report_parts(report))
    return CheckResults([Verdict(*verdict) for verdict in verdicts])


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
        shared_spec(k1, k2, k3)
        if k1.is_zero or k2.is_zero or k3.is_zero:
            raise DegenerateParams("a corner quadrance is zero")
        for u, w in ((k1, k2), (k1, k3), (k2, k3)):
            if (u + w).is_zero:
                raise DegenerateParams("an opposite edge quadrance K_i + K_j is zero")
        if (k1 * k2 + k1 * k3 + k2 * k3).is_zero:
            raise DegenerateParams("the face quadrea opposite the corner is zero")
        super().__init__(k1, k2, k3)


def corner_params(tet: Tetrahedron, scaled=None) -> TriRectParams:
    """Validate tri-rectangularity at vertex 0 and extract the corner quadrances; `scaled`
    is `_scaled_coordinates(tet.points)`, where the caller has it."""
    scale, coords = scaled or _scaled_coordinates(tet.points)
    b, edges = tet.form._ints, [_edge(coords, 0, j) for j in (1, 2, 3)]
    if any(tet.spec._red(dot_values(b, v, w)) for v, w in combinations(edges, 2)):
        raise NotTriRectangular("corner edge vectors are not mutually B-perpendicular")
    s = scale * scale * tet.form._scale  # each dot on the scaled ints is s times the dot
    return TriRectParams(*(tet.spec._ratio(dot_values(b, v, v), s) for v in edges))


def tri_rectangular_checks(report: InvariantReport) -> CheckResults:
    """Verdicts for the right-corner closed forms and sum relations of `report`."""
    tet = report.tetrahedron
    verdicts = _right_corner_parts(tet.spec._red, _report_parts(report), corner_params(tet))
    return CheckResults([Verdict(*verdict) for verdict in verdicts])


def _right_corner_parts(red, parts, params: TriRectParams) -> list:
    """(identity, instance, status) of each row of `_RIGHT_CORNER`, from a report's entries
    `parts`, as in `_verify_parts`, and K1, K2, K3 (`params`); an Undefined entry fails a
    relation.  Cross-multiplying is exact: TriRectParams rejects zero K_i, K_i + K_j and
    K1 K2 + K1 K3 + K2 K3, the only denominators besides the entries' own."""
    k = [value._parts() for value in params._fields()]
    pairs = list(combinations(k, 2))  # (K1, K2), (K1, K3), (K2, K3)
    a, e, (num, den), d = (_sum(*(parts[n] for n in terms)) for terms in _CORNER_SUMS)
    extra = [*k, *(_sum(*pair) for pair in pairs), _sum(*(_side(1, pair) for pair in pairs)),
             a, e, (den - num, den), d]
    return _identity_verdicts(red, parts, _RIGHT_CORNER, extra, FAIL)
