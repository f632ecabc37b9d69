"""Row vectors, non-degenerate symmetric forms, and the twisted products.

The form B pairs vectors through v . w = v B w^T.  Cross-product style
operations twist the Euclidean cross product by the adjugate of B, which
keeps every result B-perpendicular to its factors and makes the classical
triple/quadruple product identities hold over any field of characteristic
not 2.
"""

from __future__ import annotations

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


class Vector3(Frozen):
    """Displacement vector with three exact components."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: FieldElement, y: FieldElement, z: FieldElement):
        shared_spec(x, y, z)
        super().__init__(x, y, z)

    @classmethod
    def of(cls, spec: FieldSpec, x, y, z) -> "Vector3":
        return cls(spec.element(x), spec.element(y), spec.element(z))

    @property
    def spec(self) -> FieldSpec:
        return self.x.spec

    @property
    def is_zero(self) -> bool:
        return self.x.is_zero and self.y.is_zero and self.z.is_zero

    def components(self) -> tuple[FieldElement, FieldElement, FieldElement]:
        return (self.x, self.y, self.z)

    def __add__(self, other: "Vector3") -> "Vector3":
        return Vector3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vector3") -> "Vector3":
        return Vector3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vector3":
        return Vector3(-self.x, -self.y, -self.z)

    def __mul__(self, k) -> "Vector3":
        return Vector3(self.x * k, self.y * k, self.z * k)

    __rmul__ = __mul__


def cross3(v: Vector3, w: Vector3) -> Vector3:
    """Plain Euclidean cross product of two row vectors."""
    return Vector3(v.y * w.z - v.z * w.y,
                   v.z * w.x - v.x * w.z,
                   v.x * w.y - v.y * w.x)


def det3(v1: Vector3, v2: Vector3, v3: Vector3) -> FieldElement:
    """Determinant of the matrix stacking v1, v2, v3 as rows."""
    c = cross3(v2, v3)
    return v1.x * c.x + v1.y * c.y + v1.z * c.z


def mat3_det(rows) -> FieldElement:
    """Determinant of a 3x3 matrix given as three rows of field elements."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    return (m00 * (m11 * m22 - m12 * m21)
            - m01 * (m10 * m22 - m12 * m20)
            + m02 * (m10 * m21 - m11 * m20))


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


def b_dot(v: Vector3, w: Vector3, form: SymmetricForm) -> FieldElement:
    return form.dot(v, w)


def quadrance_vec(v: Vector3, form: SymmetricForm) -> FieldElement:
    return form.quadrance(v)


def b_cross(v: Vector3, w: Vector3, form: SymmetricForm) -> Vector3:
    """(v x w) adj B, evaluated on raw values with one division per component."""
    form._check(v)
    form._check(w)
    ratio, m2 = form.spec._ratio, form._scale ** 2
    x, y, z = adj_cross_values(form._adj, _raw(v), _raw(w))
    return Vector3(ratio(x, m2), ratio(y, m2), ratio(z, m2))


def scalar_triple(v1: Vector3, v2: Vector3, v3: Vector3, form: SymmetricForm) -> FieldElement:
    return form.dot(v1, b_cross(v2, v3, form))


def vector_triple(v1: Vector3, v2: Vector3, v3: Vector3, form: SymmetricForm) -> Vector3:
    """First vector crossed with the cross of the other two."""
    direct = b_cross(v1, b_cross(v2, v3, form), form)
    expanded = (v2 * form.dot(v1, v3) - v3 * form.dot(v1, v2)) * form.det
    # the two evaluation routes agree identically; a mismatch means the
    # cached adjugate or determinant is corrupt
    if direct != expanded:
        raise RuntimeError("internal check failed: vector triple routes disagree")
    return direct


def quad_scalar(v1: Vector3, v2: Vector3, v3: Vector3, v4: Vector3,
                form: SymmetricForm) -> FieldElement:
    return form.dot(b_cross(v1, v2, form), b_cross(v3, v4, form))


def quad_vector(v1: Vector3, v2: Vector3, v3: Vector3, v4: Vector3,
                form: SymmetricForm) -> Vector3:
    return b_cross(b_cross(v1, v2, form), b_cross(v3, v4, form), form)


def triple_of_crosses(v1: Vector3, v2: Vector3, v3: Vector3,
                      form: SymmetricForm) -> FieldElement:
    return scalar_triple(b_cross(v2, v3, form),
                         b_cross(v3, v1, form),
                         b_cross(v1, v2, form), form)
