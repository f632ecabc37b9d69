"""The paper's right corner on the integer kernel: the closed forms and sum relations of a
tetrahedron that is tri-rectangular at vertex 0, as rows of the verdict engine
(`tetra._verify_parts`), and K1, K2, K3, the quadrances of the edges at the corner.

Only a document with the `tri_rectangular` option and the `FieldElement` library (`trig`)
import this module; `report`, `verify` and `fuzz` launches without a right corner never do.
"""

from __future__ import annotations

from itertools import combinations

from .blinalg import SymmetricForm, form_values, inner
from .tetra import (_EXTRA, _INDEX, _REST_OF_EDGE, EDGES, FACE_SPREAD_KEYS, FACES, FAIL,
                    DegenerateParams, NotTriRectangular, _edge, _identity_verdicts)


def _sum(*terms):
    """(num, den) of the sum of (num, den) terms; a zero den stays zero."""
    num, den = 0, 1
    for n, d in terms:
        num, den = num * d + n * den, den * d
    return num, den


# the right corner's sums: A012 + A013 + A023, E12 + E13 + E23, S1 + S2 + S3 and D1 + D2 + D3
_CORNER_SUMS = tuple([_INDEX[field][key] for key in keys] for field, keys in (
    ("quadreas", FACES[:3]), ("dihedral_spreads", EDGES[3:]),
    ("solid_spreads", (1, 2, 3)), ("dual_solid_spreads", (1, 2, 3))))


def _right_corner_rows():
    """One row per right-corner closed form and sum relation, as in `tetra._identity_rows`, with
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


def _corner_factors(red, k) -> list:
    """K1, K2, K3, (num, den) pairs with nonzero dens, then K1 + K2, K1 + K3, K2 + K3 and
    K1 K2 + K1 K3 + K2 K3; raises DegenerateParams where one is zero under `red`."""
    pairs = list(combinations(k, 2))  # (K1, K2), (K1, K3), (K2, K3)
    sums = [_sum(*pair) for pair in pairs]
    cs = _sum(*((n1 * n2, d1 * d2) for (n1, d1), (n2, d2) in pairs))
    for terms, message in ((k, "a corner quadrance is zero"),
                           (sums, "an opposite edge quadrance K_i + K_j is zero"),
                           ([cs], "the face quadrea opposite the corner is zero")):
        if not all(red(num) for num, _ in terms):
            raise DegenerateParams(message)
    return [*k, *sums, cs]


def _corner_parts(form: SymmetricForm, scale: int, coords) -> list:
    """K1, K2, K3, the quadrances of the edges at vertex 0, as (num, den) pairs on the scaled
    integers of `_analyze_parts`; NotTriRectangular unless those edges are B-perpendicular."""
    red, edges = form.spec._red, [_edge(coords, 0, j) for j in (1, 2, 3)]
    images = [form_values(form._ints, v) for v in edges]  # v B once per edge
    if any(red(inner(images[m], edges[n])) for m, n in combinations(range(3), 2)):
        raise NotTriRectangular("corner edge vectors are not mutually B-perpendicular")
    s = scale * scale * form._scale  # each dot on the scaled ints is s times the dot
    return [(red(inner(vb, v)), s) for vb, v in zip(images, edges)]


def _right_corner_parts(red, parts, k) -> list:
    """(identity, instance, status) of each row of `_RIGHT_CORNER` from a report's entries
    `parts` and K1, K2, K3 (`_corner_parts`); an Undefined entry fails a relation.  Exact, as
    `_corner_factors` rejects the only zero denominators besides the entries' own."""
    a, e, (num, den), d = (_sum(*(parts[n] for n in terms)) for terms in _CORNER_SUMS)
    extra = [*_corner_factors(red, k), a, e, (den - num, den), d]
    return _identity_verdicts(red, parts, _RIGHT_CORNER, extra, FAIL)
