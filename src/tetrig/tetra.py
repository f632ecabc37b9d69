"""The integer kernel and the verdict engine: every entry of a tetrahedron's invariant
report, and the verdict on every identity, on plain ints; the right corner's rows (`corner`)
are decided by the same engine.

The kernel (`_analyze_parts`) computes each entry from its defining formula as an integer
pair (num, den); the closed forms are used only as verification identities, so
`_verify_parts` is the one place that checks them.  An entry is Undefined exactly when the
denominator of its defining formula vanishes, with a reason naming what vanished: a null
edge (face and solid spreads), a null face normal (dihedral and dual solid spreads), a zero
quadrea (R) or the zero skew denominator.  Q, A and V are always defined.  `trig` reads
these tables back as field elements (`analyze`, `verify_identities`, ...).

Each quantity that entries share is computed once, from `blinalg`'s integer primitives: the
image e B of each edge; each face's normal n = c adj B, the twisted product of two of its
edges, with c their Euclidean cross product; and every B-product with a normal as det B
times a Euclidean one with c, as adj B . B = det B . I gives n B x^T = det B (c . x): the
dihedral dots, Q(n), the dual solid spread's triple, the solid spread's B-triple and the
skew quadrance's projection.  Over F_p the canonical table makes one inversion, of the
product of its nonzero dens (`_residue_table`).

The kernel and the engine run on any commutative ring.  Of the form they read `spec._red`,
`_ints` and `_adj` (M B and its adjugate, three rows each), `_int_det` and `_scale`; of the
values they need `+ - *` (with ints on either side), `== 0` and truth, and `red` must be a
ring homomorphism.  Ints are needed only as the six quadrance dens, whose lcm
`_verify_parts` takes (`_over_common_den`).
`tests/test_proofs.py` runs both on polynomials over Z, where `red` is the identity.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, prod

from . import _resolver
from .blinalg import SymmetricForm, cross_values, form_values, inner
from .field import _over_common_den


class NotTriRectangular(Exception):
    """Corner edge vectors are not mutually B-perpendicular."""


class DegenerateParams(Exception):
    """Corner quadrances violate the nonzero/nonzero-sum requirements."""


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


def archimedes(a, b, c):
    """(a+b+c)^2 - 2(a^2+b^2+c^2), symmetric in a, b, c; field elements or raw ints."""
    s = a + b + c
    return s * s - (a * a + b * b + c * c) * 2


def spread_from_parts(d, q1, q2):
    """(numerator, denominator) of the spread 1 - d^2/(q1 q2) of two directions
    with dot product d and nonzero quadrances q1, q2; field elements or raw ints."""
    qq = q1 * q2
    return qq - d * d, qq


def solid_spread_from_parts(t, q1, q2, q3, det):
    """(numerator, denominator) of the solid spread t^2/(det B q1 q2 q3) of three
    directions with scalar triple t and nonzero quadrances q1, q2, q3."""
    return t * t, det * q1 * q2 * q3


def _skew_denominator(q: dict, pairing):
    """4 Q_ab Q_cd - (Q_ac + Q_bd - Q_ad - Q_bc)^2 for the pairing (ab, cd), in the
    type of the quadrances `q` (elements, or raw ints), keyed by `edge_key`."""
    (a, b), (c, d) = pairing
    diff = q[edge_key(a, c)] + q[edge_key(b, d)] - q[edge_key(a, d)] - q[edge_key(b, c)]
    return q[edge_key(a, b)] * q[edge_key(c, d)] * 4 - diff * diff


def _edge(coords, i: int, j: int) -> tuple[int, int, int]:
    """The edge vector from point i to point j of twelve coordinates, three per point."""
    a, b = 3 * i, 3 * j
    return coords[b] - coords[a], coords[b + 1] - coords[a + 1], coords[b + 2] - coords[a + 2]


def _skew_parts(form: SymmetricForm, s: int, coords, pairing, t1: int = 0, t2: int = 0):
    """(num, den) of the skew quadrance of `pairing` ((a, b), (c, d)), scaled as in
    `_analyze_parts`: the gap w from a + t1 v1 to c + t2 v2 (v1 = ab, v2 = cd) projected
    onto n = v1 x_B v2 has quadrance (n . w)^2 / Q(n), whatever t1 and t2, as n is
    B-perpendicular to both edges; with c = v1 x v2, n = c adj B, so n . w = det B (c . w)
    and Q(n) = det B (c . n) = det B * den / 4 for the closed form's den."""
    red = form.spec._red
    (i, j), (k, l) = pairing
    v1, v2 = _edge(coords, i, j), _edge(coords, k, l)
    c = cross_values(v1, v2)
    w = [x + t2 * y - t1 * z for x, y, z in zip(_edge(coords, i, k), v2, v1)]
    nw = red(form._int_det * inner(c, w))
    return nw * nw, red(form._int_det * inner(c, form_values(form._adj, c))) * s


# a report's fields (`trig.InvariantReport`) in print order: keys (None: one entry), section,
# printed name of a key, and why an entry is Undefined: what vanished (never for Q, A or V)
_FIELDS = (("quadrances", EDGES, "Q", "%d%d".__mod__, None),
    ("quadreas", FACES, "A", "%d%d%d".__mod__, None), ("quadrume", None, "V", None, None),
    ("face_spreads", FACE_SPREAD_KEYS, "s", "%d;%d%d".__mod__, "NullEdge"),
    ("dihedral_spreads", EDGES, "E", "%d%d".__mod__, "NullNormal"),
    ("solid_spreads", VERTICES, "S", str, "NullEdge"),
    ("dual_solid_spreads", VERTICES, "D", str, "NullNormal"),
    ("ratio_constant", None, "R", None, "ZeroQuadrea"),
    ("skew_quadrances", SKEW_PAIRINGS, "skew", pairing_name, "ZeroDenominator"))
# every entry in print order: its field, its key and its Undefined reason
_ENTRIES = tuple((field, key, reason) for field, keys, *_, reason in _FIELDS
                 for key in keys or (None,))


def _by_field(entries) -> list:
    """`entries` in `_ENTRIES` order, per field: one entry, or a dict of them by key."""
    flat = iter(entries)
    return [next(flat) if keys is None else {key: next(flat) for key in keys}
            for _, keys, *_ in _FIELDS]


# each entry's index in _ENTRIES, by field: an index, or a dict of them by key
_INDEX = dict(zip((field for field, *_ in _FIELDS), _by_field(range(len(_ENTRIES)))))


def _analyze_parts(form: SymmetricForm, scale: int, coords) -> list:
    """Every entry of the invariant report as an integer pair (num, den), in `_ENTRIES`
    order, from the defining formulas on plain ints: the twelve coordinates of the
    points, three per point, times `scale`.

    Over Q the points are scaled by L (`document_from_obj`, or `trig._scaled_coordinates`
    for a library `Tetrahedron`, as `SymmetricForm.dot` and `affine.b_cross` scale each
    vector) and the form by M (`SymmetricForm._ints`); with s = L^2 M each entry's one
    division takes the scale out: Q / s, A / s^2, V / s^3, skew / s, R * s^2, spreads
    unscaled.  Over F_p, L = M = s = 1 and values are reduced mod p as they grow.  No branch
    on a value: a den is zero (mod p over F_p) exactly where the entry is Undefined.
    """
    red, det = form.spec._red, form._int_det
    s = scale * scale * form._scale

    # each edge vector, its image e B and its quadrance, once per edge (q keyed both ways round)
    edge = {e: _edge(coords, *e) for e in EDGES}
    image = {e: form_values(form._ints, v) for e, v in edge.items()}
    q = {e: red(inner(image[e], v)) for e, v in edge.items()}
    q.update({(j, i): x for (i, j), x in q.items()})
    a = {(i, j, k): red(archimedes(q[j, k], q[i, k], q[i, j])) for (i, j, k) in FACES}

    # One normal per face (i, j, k): c = e_ij x e_ik and n = c adj B, with the quadrance
    # Q(n) = det B (c . n) = det B * A / 4, so the normal spreads' denominators vanish exactly
    # where a face quadrea does.  A normal built at another vertex of the face differs only
    # in sign, which the squares in every spread cancel.
    c = {(i, j, k): cross_values(edge[i, j], edge[i, k]) for (i, j, k) in FACES}
    n = {f: form_values(form._adj, cf) for f, cf in c.items()}
    qn = {f: red(det * inner(c[f], n[f])) for f in FACES}
    # the B-triple of the edges at vertex i, e_ij . (e_ik x_B e_il) = det B (c . e_ij) with
    # c of the face i k l, the face opposite j; each e_ij as `edge` holds it, up to sign
    t = [red(det * inner(c[_REST_OF_VERTEX[j]], edge[edge_key(i, j)]))
         for i, (j, _, _) in _REST_OF_VERTEX.items()]
    vol_num = 4 * t[0] * t[0]  # V = 4 t^2 / det B from the edges at vertex 0

    return [
        *((q[e], s) for e in EDGES),
        *((a[f], s * s) for f in FACES),
        (vol_num, s * s * s * det),
        # e_ij . e_ik up to sign, from the edges as `edge` and `image` hold them
        *(spread_from_parts(red(inner(image[edge_key(i, j)], edge[edge_key(i, k)])),
                            q[i, j], q[i, k]) for (i, j, k) in FACE_SPREAD_KEYS),
        *(spread_from_parts(red(det * inner(c[f1], n[f2])), qn[f1], qn[f2])
          for f1, f2 in _FACES_ON.values()),
        *(solid_spread_from_parts(t[i], *(q[i, m] for m in rest), det)
          for i, rest in _REST_OF_VERTEX.items()),
        # the solid spread of the normals of the three faces at the vertex
        *(solid_spread_from_parts(red(det * inner(n[f1], cross_values(n[f2], n[f3]))),
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
    if p:  # F_p
        return _residue_table(p, parts)
    gcds = ((num, den, gcd(num, den) if den > 0 else -gcd(num, den)) for num, den in parts)
    return [(num // g, den // g) if den else (1, 0) for num, den, g in gcds]


def _residue_table(p: int, parts) -> list:
    """Each (num, den) of `parts` as (num / den mod p, 1), or (1, 0) where den is 0 mod p, with
    one inversion (Montgomery's trick): the product of the nonzero dens is inverted, and each
    den's inverse read off on the way back down their prefix products."""
    table = [1]  # the product of the nonzero dens before each entry, then of them all
    for _, den in parts:
        table.append(table[-1] * den % p or table[-1])
    inv = pow(table.pop(), -1, p)  # 1 / the product of the nonzero dens up to entry n
    for n in reversed(range(len(parts))):
        num, den = parts[n]
        table[n] = (num * table[n] * inv % p, 1) if den % p else (1, 0)
        inv = inv * den % p or inv
    return table


def _decide(red, ln: int, lhs, rn: int, rhs):
    """PASS or FAIL for `ln * prod(lhs) == rn * prod(rhs)`, products of (num, den) pairs,
    by one cross-multiplied integer comparison reduced by `red`; None when the dens'
    product is zero under `red`: in a field, when one den is (an Undefined entry)."""
    ld = rd = 1
    for n, d in lhs:
        ln, ld = ln * n, ld * d
    for n, d in rhs:
        rn, rd = rn * n, rd * d
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
# a fuzz sample's rows: the identities, then each skew entry against its extra factor, the
# skew quadrance from points moved along the edges (`_skew_parts` at the drawn t1, t2)
_FUZZ_ROWS = _IDENTITIES + tuple(
    ("skew-quadrance-projection", pairing_name(pairing), 1, [_EXTRA + n], 1, [index])
    for n, (pairing, index) in enumerate(_INDEX["skew_quadrances"].items()))


def _verify_parts(red, parts, rows=_IDENTITIES, extra=(), undecided=INAPPLICABLE) -> list:
    """The status of each row of `rows` from a report's (num, den) entries `parts` (the
    canonical table, or the kernel's unreduced parts) and a caller's `extra` factors, by
    `_decide`; a row with an Undefined factor, a den zero under `red`, is `undecided`."""
    # over the quadrances' common denominator d, their product is prod(numerators) / d^6,
    # and the skew denominator, homogeneous of degree 2, is _skew_denominator(numerators) / d^2
    d, nums = _over_common_den(parts[:len(EDGES)])
    q_num, prod_q = dict(zip(EDGES, nums)), prod(nums)
    factors = [*parts, (prod_q * prod_q, d ** 12),
               *((_skew_denominator(q_num, pairing), d * d) for pairing in SKEW_PAIRINGS),
               *extra]
    get = factors.__getitem__
    return [_decide(red, lc, map(get, lhs), rc, map(get, rhs)) or undecided
            for _, _, lc, lhs, rc, rhs in rows]


def _identity_verdicts(red, parts, rows=_IDENTITIES, *args) -> list:
    """(identity, instance, status) of each row of `rows` (`_verify_parts`)."""
    statuses = _verify_parts(red, parts, rows, *args)
    return [(row[0], row[1], status) for row, status in zip(rows, statuses)]


# read by `bench/run.py` here; ROADMAP item 1's benchmark retarget deletes them
__getattr__ = _resolver(globals(), {"trig": ("analyze", "Undefined")})
