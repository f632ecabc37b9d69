"""Non-degenerate symmetric forms, the value-record base classes, and the form's products
on raw values.

The form B pairs vectors through v . w = v B w^T.  Cross-product style
operations twist the Euclidean cross product by the adjugate of B, which
keeps every result B-perpendicular to its factors and makes the classical
triple/quadruple product identities hold over any field of characteristic
not 2.  The integer kernel (`tetra`) calls `dot_values` and `adj_cross_values`
on plain ints; the vector library over field elements (`Vector3`, `b_cross`,
the triple products) is in `affine`, beside `Point3`.
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


def dot_values(b, v, w):
    """v B w^T on raw values: b = (a1, a2, a3, b1, b2, b3), v and w triples."""
    a1, a2, a3, b1, b2, b3 = b
    x, y, z = v
    return ((x * a1 + y * b3 + z * b2) * w[0] + (x * b3 + y * a2 + z * b1) * w[1]
            + (x * b2 + y * b1 + z * a3) * w[2])


def adj_cross_values(adj, v, w):
    """(v x w) adj B on raw values: adj holds the adjugate as three rows."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = adj
    cx = v[1] * w[2] - v[2] * w[1]
    cy = v[2] * w[0] - v[0] * w[2]
    cz = v[0] * w[1] - v[1] * w[0]
    return (cx * a00 + cy * a10 + cz * a20,
            cx * a01 + cy * a11 + cz * a21,
            cx * a02 + cy * a12 + cz * a22)


def _raw(v: Vector3):
    return (v.x._value, v.y._value, v.z._value)


class SymmetricForm:
    """Symmetric 3x3 matrix with nonzero determinant.

    Entry layout: a1, a2, a3 on the diagonal; b1 in rows/columns 2-3,
    b2 in 1-3, b3 in 1-2.  The determinant and adjugate are computed once,
    at construction, by explicit cofactors; instances are immutable.  The
    form keeps M B as raw ints (`_ints`) with its adjugate (`_adj`) and
    determinant (`_int_det`); M (`_scale`) is the lcm of the entry
    denominators over Q, and over F_p M = 1 and all three are reduced mod p.
    """

    __slots__ = ("a1", "a2", "a3", "b1", "b2", "b3", "spec", "det",
                 "_ints", "_adj", "_int_det", "_scale")

    def __init__(self, a1: FieldElement, a2: FieldElement, a3: FieldElement,
                 b1: FieldElement, b2: FieldElement, b3: FieldElement):
        spec = self.spec = shared_spec(a1, a2, a3, b1, b2, b3)
        self.a1, self.a2, self.a3 = a1, a2, a3
        self.b1, self.b2, self.b3 = b1, b2, b3
        m, ints = _over_common_den([e._parts() for e in (a1, a2, a3, b1, b2, b3)])  # 1 over F_p
        i1, i2, i3, j1, j2, j3 = ints = tuple(ints)
        adj = ((i2 * i3 - j1 * j1, j1 * j2 - i3 * j3, j1 * j3 - i2 * j2),
               (j1 * j2 - i3 * j3, i1 * i3 - j2 * j2, j2 * j3 - i1 * j1),
               (j1 * j3 - i2 * j2, j2 * j3 - i1 * j1, i1 * i2 - j3 * j3))
        det = i1 * adj[0][0] + j3 * adj[0][1] + j2 * adj[0][2]
        if (p := spec.p) is not None:
            adj, det = tuple(tuple(x % p for x in row) for row in adj), det % p
        if det == 0:
            raise DegenerateForm("form matrix has determinant zero")
        self._ints, self._adj, self._int_det, self._scale = ints, adj, det, m
        self.det = spec._ratio(det, m ** 3)  # adj B = adj(M B) / M^2, det B = det(M B) / M^3

    @classmethod
    def identity(cls, spec: FieldSpec) -> "SymmetricForm":
        one, zero = spec.one(), spec.zero()
        return cls(one, one, one, zero, zero, zero)

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
        return self.spec._ratio(dot_values(self._ints, _raw(v), _raw(w)), self._scale)

    def quadrance(self, v: Vector3) -> FieldElement:
        return self.dot(v, v)

    def __repr__(self) -> str:
        e = ", ".join(x.literal() for x in self.entries())
        return f"SymmetricForm({e}; {self.spec})"


# the vector library, now in `affine`, resolves at its old address here
__getattr__ = _resolver(globals(), {"affine": (
    "Vector3", "cross3", "det3", "mat3_det", "b_dot", "quadrance_vec", "b_cross", "scalar_triple",
    "vector_triple", "quad_scalar", "quad_vector", "triple_of_crosses")})
