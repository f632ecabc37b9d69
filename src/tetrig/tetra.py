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

Every entry is a function of G = E B E^T, the Gram matrix of the edges e_01, e_02, e_03 (the
rows of E): the kernel takes its six values and the scale s that `_gram` forms, and nothing
else of the points or the form.  At vertex i the Gram matrix H of the edges from i,
e_im . e_in = g_mn - g_im - g_in + g_ii, gives the quadrances, the face spreads and, by
det H, the solid spread.  By Binet-Cauchy its cofactors are the products of the normals of
the faces at i over det B: they give the dihedral spreads and, by their determinant, the
dual solid spread.  det G gives V and the skew quadrances.  det B cancels from every spread
and appears in no den, so a flat tetrahedron (det G = 0) keeps its defined spreads.  Over F_p
the canonical table makes one inversion, of the product of its nonzero dens
(`_residue_table`).

The kernel and the engine run on any commutative ring.  The kernel reads `red`, s and the six
values of G; of the values they need `+ - *` (with ints on either side), `== 0` and truth,
and `red` must be a ring homomorphism onto an integral domain, as the engine tests each side's
den for zero, not their product.  Ints are needed only as the six quadrance dens, whose lcm
`_verify_parts` takes (`_over_common_den`).  `tests/test_proofs.py` runs both on polynomials
over Z, where `red` is the identity, and on a G of six variables proves every identity.
"""

from __future__ import annotations

from itertools import combinations, starmap
from math import prod

from . import _resolver
from .blinalg import SymmetricForm, form_values, inner
from .field import _canonical, _over_common_den


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


def solid_spread_from_parts(gram_det, q1, q2, q3):
    """(numerator, denominator) of the solid spread det(G)/(q1 q2 q3) of three directions with
    Gram matrix G and nonzero quadrances q1, q2, q3; field elements or raw ints."""
    return gram_det, q1 * q2 * q3


def _skew_denominator(ab, ac, ad, bc, bd, cd):
    """4 Q_ab Q_cd - (Q_ac + Q_bd - Q_ad - Q_bc)^2 for the pairing (ab, cd) from the quadrances
    of its six edges (elements, or raw ints)."""
    diff = ac + bd - ad - bc
    return ab * cd * 4 - diff * diff


# the edges ab, ac, ad, bc, bd and cd of each skew pairing (ab, cd), as indices into `EDGES`
_SKEW_EDGES = {pairing: [EDGES.index(edge_key(*edge)) for edge in combinations(sum(pairing, ()), 2)]
               for pairing in SKEW_PAIRINGS}


def _edge(coords, i: int, j: int) -> tuple[int, int, int]:
    """The edge vector from point i to point j of twelve coordinates, three per point."""
    a, b = 3 * i, 3 * j
    return coords[b] - coords[a], coords[b + 1] - coords[a + 1], coords[b + 2] - coords[a + 2]


def _gram(form: SymmetricForm, scale: int, coords) -> tuple:
    """(s, G), all that the kernel reads of a tetrahedron: G = E (M B) E^T as g11, g22, g33, g23,
    g13, g12 (a form's a1, ..., b3) reduced by `form.spec._red`, E the edges from point 0 to
    points 1, 2, 3 of the twelve coordinates `coords`, and s = scale^2 M.  Over Q the points are
    scaled by L = `scale` (`document_from_obj`, or `trig._scaled_coordinates` for a library
    `Tetrahedron`, as `SymmetricForm.dot` and `affine.b_cross` scale each vector) and the form
    by M (`SymmetricForm._ints`), so G is s times the Gram matrix; over F_p, s = 1."""
    e1, e2, e3 = edges = [_edge(coords, 0, j) for j in (1, 2, 3)]
    b1, b2, b3 = [form_values(form._ints, v) for v in edges]  # e B, once per edge
    return scale * scale * form._scale, tuple(map(form.spec._red, (
        inner(b1, e1), inner(b2, e2), inner(b3, e3), inner(b2, e3), inner(b1, e3), inner(b1, e2))))


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


def _analyze_parts(red, s, gram) -> list:
    """Every entry of the invariant report as an integer pair (num, den), in `_ENTRIES`
    order, from its defining formula on G, the six values `gram`, over s (`_gram`), with
    values reduced by `red` as they grow.  Each entry's one division takes the scale out:
    Q / s, A / s^2, V / s^3, skew / s, R * s^2, spreads unscaled.  No branch on a value: a den
    is zero (mod p) exactly where the entry is Undefined.
    """
    g11, g22, g33, g23, g13, g12 = gram
    q12, q13, q23 = red(g11 - 2 * g12 + g22), red(g11 - 2 * g13 + g33), red(g22 - 2 * g23 + g33)
    q = dict(zip(EDGES, (g11, g22, g33, q12, q13, q23)))
    # at each vertex i the Gram matrix of its edges to the rest j < k < l, e_im . e_in =
    # g_mn - g_im - g_in + g_ii (G's row 0 zero): Q_ij, Q_ik, Q_il, e_ik.e_il, e_ij.e_il, e_ij.e_ik
    grams = ((g11, g22, g33, g23, g13, g12),
             (g11, q12, q13, g11 - g12 - g13 + g23, g11 - g13, g11 - g12),
             (g22, q12, q23, g22 - g12 - g23 + g13, g22 - g23, g22 - g12),
             (g33, q13, q23, g33 - g13 - g23 + g12, g33 - g23, g33 - g13))
    face, dihedral, dets, dual = [], [], [], []
    for i, (x, y, w, z1, z2, z3) in enumerate(grams):
        # the cofactors of [[x, z3, z2], [z3, y, z1], [z2, z1, w]]; det B times one is the product
        # of the normals of the faces at i opposite its row's and its column's edge
        cx, cy, cw = red(y * w - z1 * z1), red(x * w - z2 * z2), red(x * y - z3 * z3)
        c1, c2, c3 = red(z2 * z3 - x * z1), red(z1 * z3 - y * z2), red(z1 * z2 - w * z3)
        face += (z3, x, y), (z2, x, w), (z1, y, w)
        # the dihedral spread on the edge from i to the rest m, of the normals of the faces
        # opposite the other two, for the edges to a later vertex (m >= i), in `EDGES` order
        dihedral += ((c1, cy, cw), (c2, cx, cw), (c3, cx, cy))[i:]
        dets.append((red(x * cx + z3 * c3 + z2 * c2), x, y, w))
        dual.append((red(cx * (cy * cw - c1 * c1) + c3 * (c1 * c2 - c3 * cw)
                         + c2 * (c3 * c1 - cy * c2)), cx, cy, cw))
    quadrea = [red(archimedes(q[j, k], q[i, k], q[i, j])) for (i, j, k) in FACES]
    vol_num = 4 * dets[0][0]  # V = 4 det G
    # e_ab . e_cd for the pairings (ab, cd) 01;23, 02;13 and 03;12, from e_0j . e_0k = g_jk
    skew = [(dets[0][0], (q[p1] * q[p2] - dot * dot) * s)
            for (p1, p2), dot in zip(SKEW_PAIRINGS, (g13 - g12, g23 - g12, g23 - g13))]
    return [*((x, s) for x in q.values()), *((x, s * s) for x in quadrea), (vol_num, s * s * s),
            *starmap(spread_from_parts, face + dihedral),
            *starmap(solid_spread_from_parts, dets + dual),
            (16 * vol_num * vol_num * s * s, prod(quadrea)), *skew]


def _report_table(spec, s, gram) -> list:
    """The canonical table of a report: each entry of `_analyze_parts` reduced once, by
    `field._canonical` over Q and `_residue_table` over F_p, and (1, 0) where it is Undefined,
    its den zero (mod p).  Equal to `_report_parts(analyze(tet))`."""
    parts = _analyze_parts(spec._red, s, gram)
    if spec.p:  # F_p
        return _residue_table(spec.p, parts)
    return [_canonical(spec, num, den) if den else (1, 0) for num, den in parts]


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


def _verify_parts(red, parts, rows=_IDENTITIES, extra=(), undecided=INAPPLICABLE) -> list:
    """The status of each row of `rows` from a report's (num, den) entries `parts` (the
    canonical table, or the kernel's unreduced parts) and a caller's `extra` factors: with
    each side's products ln / ld and rn / rd, `undecided` if ld or rd is zero under `red` (a
    factor is Undefined, its den zero), else PASS or FAIL as red(ln * rd - rn * ld) is zero.
    Where every factor's den is 1 (an F_p table with no Undefined entry) no den is multiplied:
    that test is then red(ln - rn) == 0, and red(1) is not zero, so no row is undecided.  Q
    tables, an Undefined entry, fuzz's unreduced parts and polynomials take the general loop."""
    # over the quadrances' common denominator d, their product is prod(numerators) / d^6,
    # and the skew denominator, homogeneous of degree 2, is _skew_denominator(numerators) / d^2
    d, nums = _over_common_den(parts[:len(EDGES)])
    prod_q = prod(nums)
    factors = [*parts, (prod_q * prod_q, d ** 12),
               *((_skew_denominator(*[nums[n] for n in edges]), d * d)
                 for edges in _SKEW_EDGES.values()), *extra]
    statuses = []
    if all(den == 1 for _, den in reversed(factors)):  # fuzz's moved skew dens end it first
        nums = [num for num, _ in factors]
        for _, _, ln, lhs, rn, rhs in rows:
            for n in lhs:
                ln *= nums[n]
            for n in rhs:
                rn *= nums[n]
            statuses.append(PASS if red(ln - rn) == 0 else FAIL)
        return statuses
    for _, _, ln, lhs, rn, rhs in rows:
        ld = rd = 1
        for n in lhs:
            num, den = factors[n]
            ln, ld = ln * num, ld * den
        for n in rhs:
            num, den = factors[n]
            rn, rd = rn * num, rd * den
        statuses.append(undecided if red(ld) == 0 or red(rd) == 0 else
                        PASS if red(ln * rd - rn * ld) == 0 else FAIL)
    return statuses


# read by `bench/run.py` here; ROADMAP item 1's benchmark retarget deletes them
__getattr__ = _resolver(globals(), {"trig": ("analyze", "Undefined")})
