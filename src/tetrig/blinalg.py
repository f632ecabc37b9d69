"""Non-degenerate symmetric forms, the value-record base classes, and the form's products
on raw values.

The form B pairs vectors through v . w = v B w^T.  Cross-product style
operations twist the Euclidean cross product by the adjugate of B:
v x_B w = (v x w) adj B is B-perpendicular to its factors, as adj B . B = det B . I,
and the classical triple/quadruple product identities hold over any field of
characteristic not 2.  On plain ints the form's products are composed of four
primitives: v B (`form_values`), the Euclidean cross product (`cross_values`),
c adj B (`adj_values`) and the Euclidean inner product (`inner`).  The vector
library over field elements (`Vector3`, `b_cross`, the triple products) is in
`affine`, beside `Point3`.
"""

from __future__ import annotations

from . import _resolver
from .field import FieldElement, FieldSpec, MixedFields, _over_common_den


class DegenerateForm(Exception):
    """Symmetric matrix with determinant zero."""


def shared_spec(*elements: FieldElement) -> FieldSpec:
    spec = elements[0].spec
    for e in elements[1:]:
        if e.spec is not spec:
            raise MixedFields("components drawn from different fields")
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


def form_values(b, v):
    """v B on raw values: b = (a1, a2, a3, b1, b2, b3), v a triple."""
    a1, a2, a3, b1, b2, b3 = b
    x, y, z = v
    return x * a1 + y * b3 + z * b2, x * b3 + y * a2 + z * b1, x * b2 + y * b1 + z * a3


def cross_values(v, w):
    """The Euclidean cross product v x w on raw values."""
    (a, b, c), (x, y, z) = v, w
    return b * z - c * y, c * x - a * z, a * y - b * x


def adj_values(adj, c):
    """c adj B on raw values: adj holds the adjugate, which is symmetric, as three rows."""
    return inner(c, adj[0]), inner(c, adj[1]), inner(c, adj[2])


def inner(v, w):
    """The Euclidean inner product v . w of two triples of raw values."""
    return v[0] * w[0] + v[1] * w[1] + v[2] * w[2]


def _raw(v: Vector3):
    return (v.x._value, v.y._value, v.z._value)


# the form's entries in slot order, then its determinant: the field elements of a form
_ELEMENTS = ("a1", "a2", "a3", "b1", "b2", "b3", "det")


class SymmetricForm:
    """Symmetric 3x3 matrix with nonzero determinant.

    Entry layout: a1, a2, a3 on the diagonal; b1 in rows/columns 2-3,
    b2 in 1-3, b3 in 1-2.  The determinant and adjugate are computed once,
    at construction, by explicit cofactors, on integers; instances are
    immutable.  The form keeps M B as raw ints (`_ints`) with its adjugate
    (`_adj`) and determinant (`_int_det`); M (`_scale`) is the lcm of the
    entry denominators over Q, and over F_p M = 1 and all three are reduced
    mod p.  The entries and `det` as field elements are built on first use.
    """

    __slots__ = (*_ELEMENTS, "spec", "_entry_parts", "_ints", "_adj", "_int_det", "_scale")

    def __init__(self, a1: FieldElement, a2: FieldElement, a3: FieldElement,
                 b1: FieldElement, b2: FieldElement, b3: FieldElement):
        entries = (a1, a2, a3, b1, b2, b3)
        self._build(shared_spec(*entries), [e._parts() for e in entries])

    @classmethod
    def from_parts(cls, spec: FieldSpec, parts) -> "SymmetricForm":
        """The form whose entries a1, a2, a3, b1, b2, b3 are the elements num/den of the six
        integer pairs `parts`, each as `FieldElement._parts` gives it, over `spec`."""
        form = object.__new__(cls)
        form._build(spec, parts)
        return form

    def _build(self, spec: FieldSpec, parts) -> None:
        m, ints = _over_common_den(parts)  # m = 1 over F_p
        i1, i2, i3, j1, j2, j3 = ints = tuple(ints)
        # the adjugate, symmetric as B is: its diagonal c, and d in the layout of b1, b2, b3
        red = spec._red
        c1, c2, c3, d1, d2, d3 = map(red, (i2 * i3 - j1 * j1, i1 * i3 - j2 * j2, i1 * i2 - j3 * j3,
                                           j2 * j3 - i1 * j1, j1 * j3 - i2 * j2, j1 * j2 - i3 * j3))
        adj, det = ((c1, d3, d2), (d3, c2, d1), (d2, d1, c3)), red(i1 * c1 + j3 * d3 + j2 * d2)
        if det == 0:
            raise DegenerateForm("form matrix has determinant zero")
        self.spec, self._entry_parts = spec, parts
        self._ints, self._adj, self._int_det, self._scale = ints, adj, det, m

    def __getattr__(self, name: str) -> FieldElement:
        # the entries and `det` (det B = det(M B) / M^3), built on first use of one and kept
        if name not in _ELEMENTS:
            raise AttributeError(name)
        for key, pair in zip(_ELEMENTS, (*self._entry_parts, (self._int_det, self._scale ** 3))):
            setattr(self, key, self.spec._ratio(*pair))
        return getattr(self, name)

    @classmethod
    def identity(cls, spec: FieldSpec) -> "SymmetricForm":
        return cls.from_parts(spec, [(1, 1)] * 3 + [(0, 1)] * 3)

    @classmethod
    def diagonal(cls, d1: FieldElement, d2: FieldElement, d3: FieldElement) -> "SymmetricForm":
        zero = d1.spec.zero()
        return cls(d1, d2, d3, zero, zero, zero)

    def rows(self):
        return ((self.a1, self.b3, self.b2),
                (self.b3, self.a2, self.b1),
                (self.b2, self.b1, self.a3))

    def adjugate_rows(self):
        return tuple(tuple(self.spec._ratio(x, self._scale ** 2) for x in row) for row in self._adj)

    def entries(self) -> tuple[FieldElement, ...]:
        return (self.a1, self.a2, self.a3, self.b1, self.b2, self.b3)

    def _check(self, v: Vector3) -> None:
        if v.spec is not self.spec:
            raise MixedFields("vector and form drawn from different fields")

    def dot(self, v: Vector3, w: Vector3) -> FieldElement:
        """v B w^T, evaluated on raw values and reduced once."""
        self._check(v)
        self._check(w)
        return self.spec._ratio(inner(form_values(self._ints, _raw(v)), _raw(w)), self._scale)

    def quadrance(self, v: Vector3) -> FieldElement:
        return self.dot(v, v)

    def __repr__(self) -> str:
        e = ", ".join(x.literal() for x in self.entries())
        return f"SymmetricForm({e}; {self.spec})"


# read by `bench/run.py` here; ROADMAP item 1's benchmark retarget deletes it
__getattr__ = _resolver(globals(), {"affine": ("b_cross",)})
