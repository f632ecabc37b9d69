"""Non-degenerate symmetric forms, the value-record base classes, and the form's products
on integers.

The form B pairs vectors through v . w = v B w^T.  Cross-product style operations twist the
Euclidean cross product by the adjugate of B: v x_B w = (v x w) adj B is B-perpendicular to
its factors, as adj B . B = det B . I, and the classical triple/quadruple product identities
hold over any field of characteristic not 2.  On plain ints the form's products are composed
of three primitives: v M for a symmetric M held as three rows (`form_values`), which gives
v B and c adj B, the Euclidean cross product (`cross_values`) and the Euclidean inner product
(`inner`).  The library's products, `SymmetricForm.dot` and `affine.b_cross`, reach them as
the kernel does: each vector scaled by L, the lcm of its denominators (1 over F_p), and one
division per result.  The vector library over field elements (`Vector3`, `b_cross`, the
triple products) is in `affine`, beside `Point3`; the form's element view (`a1` ... `b3`,
`det`, `rows`, `entries`) loads the element library, `element`, on first use.
"""

from __future__ import annotations

from . import _resolver
from .field import FieldSpec, MixedFields, _over_common_den


class DegenerateForm(Exception):
    """Symmetric matrix with determinant zero."""


def shared_spec(*values) -> FieldSpec:
    """The one field of `values`, anything with a `spec` (elements, vectors, points, forms):
    every operand's field is checked here, and `MixedFields` names two that differ."""
    spec = values[0].spec
    for value in values[1:]:
        if value.spec is not spec:
            raise MixedFields(f"operands drawn from different fields: {spec} and {value.spec}")
    return spec


class Record:
    """Value type whose fields are its `__slots__`: equal when of one type with
    equal fields (so not hashable), a `repr` of the fields, and pickling and
    copying through the constructor, which takes the fields in slot order."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, "
                            f"got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return (type(self), self._fields())


class Frozen(Record):
    """Immutable, hashable record; `__init__` sets fields with `object.__setattr__`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, *value):  # *value: empty when called as __delattr__
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


def form_values(m, v):
    """v M on raw values, for a symmetric M held as three rows (B or adj B), v a triple."""
    (a, b, c), (_, d, e), (_, _, f) = m
    x, y, z = v
    return x * a + y * b + z * c, x * b + y * d + z * e, x * c + y * e + z * f


def cross_values(v, w):
    """The Euclidean cross product v x w on raw values."""
    (a, b, c), (x, y, z) = v, w
    return b * z - c * y, c * x - a * z, a * y - b * x


def inner(v, w):
    """The Euclidean inner product v . w of two triples of raw values."""
    return v[0] * w[0] + v[1] * w[1] + v[2] * w[2]


class SymmetricForm:
    """Symmetric 3x3 matrix with nonzero determinant.

    Entry layout: a1, a2, a3 on the diagonal; b1 in rows/columns 2-3,
    b2 in 1-3, b3 in 1-2.  The determinant and adjugate are computed once, at
    construction, on integers, from the rows r0, r1, r2: row k of the adjugate is the cross
    product of rows k + 1 and k + 2 (mod 3), and the determinant is r0 . (r1 x r2).  The
    form's state is the kernel's ring interface and nothing else: `spec` (with its `_red`),
    M B as three rows of raw ints (`_ints`), its adjugate as three rows (`_adj`) and its
    determinant (`_int_det`), and M (`_scale`), the lcm of the entry denominators over Q;
    over F_p M = 1 and all three are reduced mod p.
    The entries and `det` as field elements are a read-only view, built from those
    integers on each read, so it cannot disagree with them.
    """

    __slots__ = ("spec", "_ints", "_adj", "_int_det", "_scale")

    # the element view: an entry is M B's at its cell over M; det B = det(M B) / M^3
    _CELLS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))  # (row, column) of a1, ..., b3
    a1, a2, a3, b1, b2, b3 = (property(lambda f, i=i, j=j: f.spec._ratio(f._ints[i][j], f._scale))
                              for i, j in _CELLS)
    det = property(lambda f: f.spec._ratio(f._int_det, f._scale ** 3))

    def __init__(self, a1: FieldElement, a2: FieldElement, a3: FieldElement,
                 b1: FieldElement, b2: FieldElement, b3: FieldElement):
        entries = (a1, a2, a3, b1, b2, b3)
        self._build(shared_spec(*entries), [e._parts() for e in entries])

    @classmethod
    def from_parts(cls, spec: FieldSpec, parts) -> "SymmetricForm":
        """The form whose entries a1, a2, a3, b1, b2, b3 are the elements num/den of the six
        integer pairs `parts`, each as `FieldElement._parts` gives it, over `spec`.
        `tetra._gram` and `fuzz._skew_parts` read only the state, `spec._red`, `_ints`, `_adj`,
        `_int_det` and `_scale`, and the kernel none of it, so `spec` may be any object with a
        `_red`, and the nums a ring's values over int dens: polynomials over Z in
        `tests/test_proofs.py`."""
        form = object.__new__(cls)
        form._build(spec, parts)
        return form

    def _build(self, spec: FieldSpec, parts) -> None:
        m, (i1, i2, i3, j1, j2, j3) = _over_common_den(parts)  # m = 1 over F_p
        r0, r1, r2 = rows = (i1, j3, j2), (j3, i2, j1), (j2, j1, i3)
        red = spec._red
        adj = tuple(tuple(map(red, cross_values(u, w))) for u, w in ((r1, r2), (r2, r0), (r0, r1)))
        det = red(inner(r0, adj[0]))
        if det == 0:
            raise DegenerateForm("form matrix has determinant zero")
        self.spec, self._ints, self._adj, self._int_det, self._scale = spec, rows, adj, det, m

    @classmethod
    def identity(cls, spec: FieldSpec) -> "SymmetricForm":
        return cls.from_parts(spec, [(1, 1)] * 3 + [(0, 1)] * 3)

    @classmethod
    def diagonal(cls, d1: FieldElement, d2: FieldElement, d3: FieldElement) -> "SymmetricForm":
        zero = d1.spec.zero()
        return cls(d1, d2, d3, zero, zero, zero)

    def rows(self):
        return tuple(tuple(self.spec._ratio(x, self._scale) for x in row) for row in self._ints)

    def adjugate_rows(self):
        return tuple(tuple(self.spec._ratio(x, self._scale ** 2) for x in row) for row in self._adj)

    def entries(self) -> tuple[FieldElement, ...]:
        return (self.a1, self.a2, self.a3, self.b1, self.b2, self.b3)

    def dot(self, v: Vector3, w: Vector3) -> FieldElement:
        """v B w^T on v and w scaled by Lv and Lw (`_Triple._scaled`, once when w is v, as in
        `quadrance`), divided once: by M Lv Lw."""
        spec = shared_spec(self, v, w)
        (lv, v), (lw, w) = (scaled := v._scaled()), scaled if w is v else w._scaled()
        return spec._ratio(inner(form_values(self._ints, v), w), self._scale * lv * lw)

    def quadrance(self, v: Vector3) -> FieldElement:
        return self.dot(v, v)

    def __repr__(self) -> str:
        e = ", ".join(x.literal() for x in self.entries())
        return f"SymmetricForm({e}; {self.spec})"


# read by `bench/run.py` here; ROADMAP item 1's benchmark retarget deletes it
__getattr__ = _resolver(globals(), {"affine": ("b_cross",)})
