"""The identity web and the paper's right corner as theorems about this code.

The kernel (`tetra._analyze_parts`) and the verdict engine (`tetra._verify_parts`) need of
their values only `+ - *`, `== 0` and truth, so they run unchanged on polynomials over Z
with a stand-in spec whose `_red` reduces nothing.  A row's verdict is then `pass` exactly
when its cross-multiplied difference is the zero polynomial and neither side's dens' product
is: an identity of polynomials, never vacuous, which holds mod every p as well.  The rows are
the engine's own tables, so a row added to them is proved here or fails here.

- The identities on a Gram matrix G of six variables: the kernel takes only G and the scale s
  (`tetra._gram` forms them), so this is every input; and (s G, s) gives the entries of (G, 1).
- The identities and the skew re-projections, on the slice p0 = 0, p1 = (a, 0, 0),
  p2 = (b, c, 0), p3 = (d, e, f) under the identity form, with the re-projections' t1, t2.
- The right corner's relations and the identities, on the corner's own frame: G = diag(K1,
  K2, K3), which is G of the points 0, e1, e2, e3 under that form.
- The paper's vector products, fully generic: `blinalg`'s primitives on B's six entries and
  four vectors, 18 variables, with no reduction.

README's "What is proved" gives the argument from these to every input; a test checks at
random points that `_gram` is E (M B) E^T over s = L^2 M, and the last test that a change of
basis and a translation keep every entry.
"""

import random
from itertools import chain
from fractions import Fraction
from math import lcm, prod
from operator import add
from types import SimpleNamespace

import pytest

from tetrig import corner, tetra
from tetrig.blinalg import DegenerateForm, SymmetricForm, cross_values, form_values, inner
from tetrig.corner import _RIGHT_CORNER, _corner_parts, _right_corner_parts
from tetrig.field import FieldSpec
from tetrig.fuzz import _FUZZ_ROWS, _skew_parts
from tetrig.tetra import (_IDENTITIES, FAIL, PASS, SKEW_PAIRINGS, _analyze_parts, _gram,
                          _report_table, _verify_parts)


class Poly:
    """A polynomial over Z, as a dict from exponent tuples to nonzero ints: `+ - *` with
    another of the same variables or with an int on either side, `== 0`, truth, and its
    value at an integer point by a call."""

    __slots__ = ("terms", "one")

    def __init__(self, terms: dict, one: tuple):
        self.terms, self.one = terms, one  # one: the exponents of a constant, all 0

    @classmethod
    def variables(cls, n: int) -> list:
        one = (0,) * n
        return [cls({one[:i] + (1,) + one[i + 1:]: 1}, one) for i in range(n)]

    def _terms(self, x) -> dict:
        return x.terms if isinstance(x, Poly) else {self.one: x} if x else {}

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in self._terms(other).items():
            c += terms.pop(e, 0)
            if c:
                terms[e] = c
        return Poly(terms, self.one)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()}, self.one)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms = {}
        for e2, c2 in self._terms(other).items():
            for e1, c1 in self.terms.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly({e: c for e, c in terms.items() if c}, self.one)

    __rmul__ = __mul__

    def __eq__(self, other):
        return not (self - other).terms

    def __bool__(self):
        return bool(self.terms)

    def __call__(self, point):
        return sum(c * prod(map(pow, point, e)) for e, c in self.terms.items())


def at(x, point):
    """The value of a kernel value, a polynomial or an int, at `point`."""
    return x(point) if isinstance(x, Poly) else x


# a spec over the polynomial ring: nothing to reduce, so no row is decided modulo anything
RING = SimpleNamespace(p=None, _red=lambda x: x)
Q = FieldSpec.rational()
a, b, c, d, e, f, t1, t2 = Poly.variables(8)
SLICE = [0, 0, 0, a, 0, 0, b, c, 0, d, e, f]
IDENTITY = [(1, 1)] * 3 + [(0, 1)] * 3


def generic_parts(spec, coords, s1, s2):
    """The entries on `coords` under the identity form over `spec`, and the skew quadrances
    from points moved along the edges by s1, s2, as a fuzz sample passes them."""
    form = SymmetricForm.from_parts(spec, IDENTITY)
    moved = [_skew_parts(form, coords, pairing, s1, s2) for pairing in SKEW_PAIRINGS]
    return _analyze_parts(spec._red, *_gram(form, 1, coords)), moved


def corner_parts(spec, k):
    """The entries and K1, K2, K3 of G = diag(k) over `spec`."""
    g = [*k, 0, 0, 0]
    return _analyze_parts(spec._red, 1, g), _corner_parts(1, g)


@pytest.fixture(scope="module")
def generic():
    return generic_parts(RING, SLICE, t1, t2)


def first(rows, identity):
    return next(row for row in rows if row[0] == identity)


def test_every_identity_and_skew_reprojection_is_a_polynomial_identity(generic):
    parts, moved = generic
    assert _verify_parts(RING._red, parts, _FUZZ_ROWS, moved) == [PASS] * len(_FUZZ_ROWS)


def test_every_identity_is_a_polynomial_identity_in_the_gram_matrix():
    # the kernel takes G = E (M B) E^T and s, and nothing else of the points and the form,
    # so six variables are every input: each row is an identity of rational functions of G
    parts = _analyze_parts(RING._red, 1, Poly.variables(6))
    assert _verify_parts(RING._red, parts) == [PASS] * len(_IDENTITIES)


def test_a_scaled_gram_matrix_has_the_same_entries():
    # over Q the kernel takes G scaled by s = L^2 M (`_gram`); (s G, s) and (G, 1) give
    # each entry one value, as polynomials in G's six entries and s
    *g, s = Poly.variables(7)
    plain = _analyze_parts(RING._red, 1, g)
    scaled = _analyze_parts(RING._red, s, [s * x for x in g])
    assert [n1 * d2 - n2 * d1 for (n1, d1), (n2, d2) in zip(plain, scaled)] == [0] * len(plain)


@pytest.mark.parametrize("p", [7, 101, None], ids=["F_7", "F_101", "Q"])
def test_the_kernel_reads_only_the_gram_matrix(p):
    # what the kernel reads, `_gram`'s (s, G), is s = scale^2 M and G = E (M B) E^T of any
    # points, form and scale, E the edges at point 0 and M the lcm of the form's dens, by
    # plain sums over the drawn entries: flat draws (det G = 0) included
    spec, rnd = FieldSpec(p), random.Random(37)
    draw = (lambda: rnd.randrange(p)) if p else (lambda: rnd.randint(-9, 9))
    cells = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
    flat = 0
    for _ in range(100):
        form = None
        while form is None:  # canonical pairs, with dens up to 4 over Q
            entries = [(draw(), 1) if p else Fraction(draw(), rnd.randint(1, 4)).as_integer_ratio()
                       for _ in range(6)]
            try:
                form = SymmetricForm.from_parts(spec, entries)
            except DegenerateForm:
                pass
        m = lcm(*(den for _, den in entries))
        mb = [[0] * 3 for _ in range(3)]
        for (i, j), (num, den) in zip(cells, entries):
            mb[i][j] = mb[j][i] = num * m // den
        scale = 1 if p else rnd.randint(1, 4)
        coords = [draw() for _ in range(12)]
        if rnd.random() < 0.3:  # the fourth point in the plane of the other three
            x, y = draw(), draw()
            coords[9:] = [u + x * (v - u) + y * (w - u)
                          for u, v, w in zip(coords[:3], coords[3:6], coords[6:9])]
        edges = [[coords[3 * j + n] - coords[n] for n in range(3)] for j in (1, 2, 3)]
        g = [[sum(edges[j][x] * mb[x][y] * edges[k][y] for x in range(3) for y in range(3))
              for k in range(3)] for j in range(3)]
        assert _gram(form, scale, coords) == (
            scale * scale * m, tuple(spec._red(g[i][j]) for i, j in cells))
        flat += spec._red(_det(g)) == 0
    assert flat


def test_every_right_corner_relation_and_identity_holds_on_the_corner_frame():
    parts, k = corner_parts(RING, Poly.variables(3))
    statuses = _right_corner_parts(RING._red, parts, k)
    assert {status for _, status in zip(_RIGHT_CORNER, statuses, strict=True)} == {PASS}
    assert _verify_parts(RING._red, parts) == [PASS] * len(_IDENTITIES)


def test_the_polynomials_are_the_integer_kernel_at_every_point(generic):
    # at a random integer point each polynomial is the kernel's int on that point's integers:
    # what is proved above is what the kernel computes
    generic_polys = [*generic[0], *generic[1]]
    corner_polys = [*chain(*corner_parts(RING, Poly.variables(3)))]
    gram_polys = _analyze_parts(RING._red, 1, Poly.variables(6))
    rnd = random.Random(23)
    for _ in range(20):
        point = [rnd.randint(-9, 9) for _ in range(8)]
        parts, moved = generic_parts(Q, [at(x, point) for x in SLICE], *point[6:])
        assert [(at(num, point), at(den, point)) for num, den in generic_polys] == parts + moved
        k = [rnd.choice((-1, 1)) * rnd.randint(1, 9) for _ in range(3)]
        parts, k_parts = corner_parts(Q, k)
        assert [(at(num, k), at(den, k)) for num, den in corner_polys] == parts + k_parts
        g, _ = _random_form(Q, lambda: rnd.randint(-9, 9))
        g = [g[i][j] for i, j in ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))]
        assert [(at(num, g), at(den, g)) for num, den in gram_polys] == _analyze_parts(Q._red, 1, g)


def test_planted_false_rows_fail(generic, monkeypatch):
    parts, moved = generic
    name, instance, lc, lhs, rc, rhs = first(_IDENTITIES, "solid-spread-triple-ratio")
    planted = [(name, instance, lc - 1, lhs, rc, rhs)]  # 64 -> 63
    name, instance, lc, lhs, rc, rhs = first(_IDENTITIES, "dihedral-spread-formula")
    planted.append((name, instance, lc, lhs[:-1], rc, rhs))  # a factor dropped
    name, instance, lc, lhs, rc, rhs = first(_IDENTITIES, "alternating-spreads")
    planted.append((name, instance, lc, rhs[:1] + lhs[1:], rc, lhs[:1] + rhs[1:]))  # swapped
    assert _verify_parts(RING._red, parts, planted, moved) == [FAIL] * 3

    name, instance, lc, lhs, rc, rhs = first(_RIGHT_CORNER, "closed-form-quadrume")
    monkeypatch.setattr(corner, "_RIGHT_CORNER", [(name, instance, lc, lhs, rc // 2, rhs)])
    parts, k = corner_parts(RING, Poly.variables(3))
    statuses = _right_corner_parts(RING._red, parts, k)  # the planted row's, 4 -> 2
    assert [(*row[:2], status) for row, status in zip(corner._RIGHT_CORNER, statuses,
                                                      strict=True)] == [(name, instance, FAIL)]


def test_a_wrong_kernel_formula_fails_its_rows(monkeypatch):
    monkeypatch.setattr(tetra, "solid_spread_from_parts",
                        lambda gram_det, q1, q2, q3: (gram_det, q1 * q2 * q2))
    parts, k = corner_parts(RING, Poly.variables(3))
    identities = _verify_parts(RING._red, parts)
    relations = _right_corner_parts(RING._red, parts, k)
    assert FAIL in identities and FAIL in relations


# ---------------------------------------------------------------------------
# the paper's vector products
# ---------------------------------------------------------------------------

def minus(v, w):
    return tuple(x - y for x, y in zip(v, w))


def times(k, v):
    return tuple(k * x for x in v)


class Products:
    """The form's products with B's six entries and four vectors u, v, w, x as variables,
    from the primitives that `SymmetricForm.dot` and `affine.b_cross` scale and divide."""

    def __init__(self):
        variables = Poly.variables(18)
        self.form = SymmetricForm.from_parts(RING, [(y, 1) for y in variables[:6]])
        self.det = self.form._int_det
        self.vectors = [tuple(variables[i:i + 3]) for i in range(6, 18, 3)]

    def dot(self, v, w):  # v B w^T
        return inner(form_values(self.form._ints, v), w)

    def cross(self, v, w):  # v x_B w = (v x w) adj B
        return form_values(self.form._adj, cross_values(v, w))

    def triple(self, u, v, w):  # u . (v x_B w)
        return self.dot(u, self.cross(v, w))


@pytest.fixture(scope="module")
def products():
    return Products()


def vector_product_relations(b: Products) -> dict:
    """The paper's ten vector product relations, each as (lhs, rhs), two tuples of values."""
    det, dot, cross, triple, (u, v, w, x) = b.det, b.dot, b.cross, b.triple, b.vectors
    t = triple(u, v, w)
    return {
        "adj B . B = det B . I": (
            tuple(y for row in b.form._adj for y in form_values(b.form._ints, row)),
            tuple(det if i == j else 0 for i in range(3) for j in range(3))),
        "cyclic triple": ((t, t), (triple(v, w, u), triple(w, u, v))),
        "triple = det B . det": ((t,), (det * inner(u, cross_values(v, w)),)),
        "B-perpendicular cross": ((dot(u, cross(u, v)), dot(v, cross(u, v))), (0, 0)),
        "vector triple": (cross(u, cross(v, w)),
                          times(det, minus(times(dot(u, w), v), times(dot(u, v), w)))),
        "Binet-Cauchy": ((dot(cross(u, v), cross(w, x)),),
                         (det * (dot(u, w) * dot(v, x) - dot(u, x) * dot(v, w)),)),
        "quadruple vector, first": (cross(cross(u, v), cross(w, x)), times(det, minus(
            times(triple(u, v, x), w), times(triple(u, v, w), x)))),
        "quadruple vector, second": (cross(cross(u, v), cross(w, x)), times(det, minus(
            times(triple(u, w, x), v), times(triple(v, w, x), u)))),
        "triple of crosses": ((triple(cross(v, w), cross(w, u), cross(u, v)),), (det * t * t,)),
        "Jacobi": (tuple(map(sum, zip(cross(u, cross(v, w)), cross(v, cross(w, u)),
                                      cross(w, cross(u, v))))), (0, 0, 0)),
    }


def holds(lhs, rhs) -> bool:
    """Whether two tuples of values are equal entry for entry, as polynomials."""
    return len(lhs) == len(rhs) and all(x - y == 0 for x, y in zip(lhs, rhs))


def test_the_vector_products_are_polynomial_identities(products):
    relations = vector_product_relations(products)
    assert len(relations) == 10
    assert [name for name, sides in relations.items() if not holds(*sides)] == []


def test_planted_false_vector_product_relations_fail(products):
    relations, det = vector_product_relations(products), products.det
    u, v, w, _ = products.vectors
    triple_lhs, triple_rhs = relations["triple of crosses"]
    vector_lhs, vector_rhs = relations["vector triple"]
    binet_lhs, binet_rhs = relations["Binet-Cauchy"]
    planted = [(triple_lhs, times(det, triple_rhs)),  # det B t^2 -> det B^2 t^2
               (vector_lhs, times(-1, vector_rhs)),  # sign flipped
               (times(det, binet_lhs), binet_rhs),  # a det B factor too many
               ((products.dot(w, products.cross(u, v)),), (0,))]  # perpendicular to a third
    assert [holds(*sides) for sides in planted] == [False] * 4


def test_the_product_polynomials_are_the_library_products(products):
    # at random integer points `dot` and `cross` are `SymmetricForm.dot` and `b_cross` over Q:
    # what is proved above is what the library computes
    from tetrig import Vector3, b_cross
    (u, v, *_), rnd, checked = products.vectors, random.Random(31), 0
    for _ in range(20):
        point = [rnd.randint(-9, 9) for _ in range(18)]
        try:
            form = SymmetricForm.from_parts(Q, [(y, 1) for y in point[:6]])
        except DegenerateForm:
            continue
        x, y = Vector3.of(Q, *point[6:9]), Vector3.of(Q, *point[9:12])
        assert form.dot(x, y) == Q.element(at(products.dot(u, v), point))
        assert b_cross(x, y, form) == Vector3.of(Q, *(at(c, point) for c in products.cross(u, v)))
        checked += 1
    assert checked


# ---------------------------------------------------------------------------
# the invariance the reductions rest on
# ---------------------------------------------------------------------------

def _mat_mul(x, y):
    return [[sum(x[i][m] * y[m][j] for m in range(3)) for j in range(3)] for i in range(3)]


def _adjugate(x):
    return [[x[(j + 1) % 3][(i + 1) % 3] * x[(j + 2) % 3][(i + 2) % 3]
             - x[(j + 1) % 3][(i + 2) % 3] * x[(j + 2) % 3][(i + 1) % 3] for j in range(3)]
            for i in range(3)]


def _det(x):
    return sum(x0 * row[0] for x0, row in zip(x[0], _adjugate(x)))


def _form(spec, x):
    """The form of the symmetric matrix `x` over `spec`, its entries reduced."""
    return SymmetricForm.from_parts(spec, [(spec._red(x[i][j]), 1) for i, j in
                                           ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))])


def _transpose(x):
    return [list(row) for row in zip(*x)]


def _random_form(spec, draw):
    """A random symmetric matrix of `draw`n entries with det nonzero, and its form."""
    b = [[draw() for _ in range(3)] for _ in range(3)]
    b = [[b[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
    try:
        return b, _form(spec, b)
    except DegenerateForm:
        return _random_form(spec, draw)


def _invertible(rnd, p):
    """A random invertible M: over F_p any M with det M nonzero mod p; over Q (p None) a
    unimodular one, L U with L and U^T unitriangular, a row negated half the time."""
    if p:
        m = [[rnd.randrange(p) for _ in range(3)] for _ in range(3)]
        return m if _det(m) % p else _invertible(rnd, p)
    lower = [[[1 if i == j else rnd.randint(-3, 3) if i > j else 0 for j in range(3)]
              for i in range(3)] for _ in range(2)]
    m = _mat_mul(lower[0], _transpose(lower[1]))
    if rnd.random() < 0.5:
        m[0] = [-x for x in m[0]]
    return m


@pytest.mark.parametrize("p", [7, 101, 2**31 - 1, None],
                         ids=["F_7", "F_101", "F_2147483647", "Q"])
def test_a_change_of_basis_and_a_translation_keep_every_entry(p):
    # (P, B) and ((P + t) M^-1, M B M^T) have one report, entry for entry, Undefined entries
    # included: what takes the proofs above from their slice and frame to every input
    spec, rnd = FieldSpec(p), random.Random(29)
    draw = (lambda: rnd.randrange(p)) if p else (lambda: rnd.randint(-9, 9))
    undefined = 0
    for _ in range(300):
        b, form = _random_form(spec, draw)
        m = _invertible(rnd, p)
        det = _det(m)  # over Q, +-1: its own inverse
        inverse = [[x * (pow(det, -1, p) if p else det) for x in row] for row in _adjugate(m)]
        moved_form = _form(spec, _mat_mul(_mat_mul(m, b), _transpose(m)))
        coords, t = [draw() for _ in range(12)], [draw() for _ in range(3)]
        moved = [spec._red(sum((coords[i + r] + t[r]) * inverse[r][j] for r in range(3)))
                 for i in range(0, 12, 3) for j in range(3)]
        table = _report_table(spec, *_gram(form, 1, coords))
        assert _report_table(spec, *_gram(moved_form, 1, moved)) == table
        undefined += sum(den == 0 for _, den in table)
    if p == 7:
        assert undefined
