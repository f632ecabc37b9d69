"""The element library: elements of Q and F_p as objects (`FieldElement`), with their
arithmetic, and `parse_element`, `render` and `invert`.

An element holds its canonical pair (num, den), as `field` reads and writes literals, and
`_parts` returns it.  `_element` builds an element from its canonical pair, and `_ratio`
reduces a num/den to that pair first (`field._canonical`): every arithmetic result but a
power and a negation, and every element that other modules build from fused formulas on raw
ints (through `FieldSpec._ratio`).  A parsed literal, a kernel table entry (`trig.analyze`), a
power and a negation are canonical already, and the constructor reduces its value itself.
The commands build no element, so this module loads with the first element that a
`FieldSpec` method builds, or with `affine` and `trig`.
"""

from __future__ import annotations

from .field import DivisionByZero, FieldSpec, MixedFields, _canonical, _literal, _literal_parts


def _element(spec: FieldSpec, pair: tuple[int, int]) -> FieldElement:
    """The element of `spec` whose canonical pair is `pair`, which is not reduced again."""
    element = object.__new__(FieldElement)
    element.spec, element._value = spec, pair
    return element


def _ratio(spec: FieldSpec, num: int, den: int) -> FieldElement:
    """Element num/den of `spec` from raw ints, den nonzero in that field (`_canonical`)."""
    return _element(spec, _canonical(spec, num, den))


class FieldElement:
    """Immutable element of Q or F_p, held as its canonical pair (num, den).

    `FieldElement(spec, value)` takes an int, or over Q an exact rational with int
    `numerator` and `denominator`, such as a `fractions.Fraction`.
    """

    __slots__ = ("spec", "_value")

    def __init__(self, spec: FieldSpec, value):
        rational = spec.p is None and isinstance(getattr(value, "denominator", None), int)
        if isinstance(value, bool) or not (isinstance(value, int) or rational):
            kind = "a rational" if spec.p is None else f"an F_{spec.p}"
            raise TypeError(f"cannot build {kind} element from {type(value).__name__}")
        # an int is its own numerator over denominator 1
        self.spec, self._value = spec, _canonical(spec, value.numerator, value.denominator)

    # -- views ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._value[0] == 0

    @property
    def numerator(self) -> int:
        if self.spec.p is not None:
            raise TypeError("numerator is a rational-field view")
        return self._value[0]

    @property
    def denominator(self) -> int:
        if self.spec.p is not None:
            raise TypeError("denominator is a rational-field view")
        return self._value[1]

    def _parts(self) -> tuple[int, int]:
        """(num, den) with den > 0: the reduced fraction over Q, (residue, 1) over F_p."""
        return self._value

    @property
    def residue(self) -> int:
        if self.spec.p is None:
            raise TypeError("residue is a prime-field view")
        return self._value[0]

    def literal(self) -> str:
        return _literal(*self._value)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        """Canonical pair of a same-field element or an int operand; None for other types."""
        if isinstance(other, FieldElement):
            if other.spec is not self.spec:
                raise MixedFields(f"cannot combine {self.spec} and {other.spec} elements")
            return other._value
        if isinstance(other, int) and not isinstance(other, bool):
            return self.spec._red(other), 1
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (a, b), (c, d) = self._value, o
        return _ratio(self.spec, a * d + c * b, b * d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (a, b), (c, d) = self._value, o
        return _ratio(self.spec, a * d - c * b, b * d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (a, b), (c, d) = self._value, o
        return _ratio(self.spec, c * b - a * d, b * d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        (a, b), (c, d) = self._value, o
        return _ratio(self.spec, a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._divide(self._value, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._divide(o, self._value)

    def _divide(self, x, y):  # x / y for canonical pairs x and y
        (a, b), (c, d) = x, y
        if c == 0:
            raise DivisionByZero("the zero element has no inverse")
        return _ratio(self.spec, a * d, b * c)

    def __neg__(self):  # -num/den is in lowest terms: no gcd over Q, no inverse over F_p
        (num, den), p = self._value, self.spec.p
        return _element(self.spec, (-num % p, 1) if p else (-num, den))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        p = self.spec.p  # None over Q, where pow is plain
        num, den = self._value  # coprime, so their powers are: the pair stays canonical
        return _element(self.spec, (pow(num, exponent, p), pow(den, exponent, p)))

    def inverse(self) -> FieldElement:
        return self._divide((1, 1), self._value)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.spec is other.spec and self._value == other._value

    def __hash__(self) -> int:
        return hash((self.spec, self._value))

    def __str__(self) -> str:
        return self.literal()

    def __repr__(self) -> str:
        return f"FieldElement({self.literal()}, {self.spec})"


def parse_element(text: str, spec: FieldSpec) -> FieldElement:
    """Parse an element literal: `[-]?digits(/digits)?` over Q, `[-]?digits` over F_p."""
    return _element(spec, _literal_parts(text, spec))


def render(x: FieldElement) -> str:
    """Canonical literal; parse_element(render(x), x.spec) == x."""
    return x.literal()


def invert(x: FieldElement) -> FieldElement:
    return x.inverse()
