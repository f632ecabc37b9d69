"""The element library: elements of Q and F_p as objects (`FieldElement`), with their
arithmetic, and `parse_element`, `render` and `invert`.

An element holds a reduced Fraction over Q, or a residue in [0, p) over F_p.  The commands
work on integers and build none (but for the form of a fuzz failure record), so this module
loads with the first element that a `FieldSpec` method builds, or with `affine` and `trig`.
`FieldElement(spec, value)` validates its input; an arithmetic result skips that through
`_wrap`, and `_ratio` builds num/den with one division.  Other modules evaluate fused formulas
on raw ints and build the result through `FieldSpec._ratio`; the way back is
`FieldElement._parts`, an element as an integer pair (num, den).
"""

from __future__ import annotations

from .field import (_LITERAL_BOUND, MAX_LITERAL_DIGITS, DivisionByZero, FieldSpec,
                    LiteralTooLong, MixedFields, _literal_parts)

Fraction = None  # `fractions.Fraction` once `_fraction` has imported it


def _fraction():
    """The class of Q's elements, `fractions.Fraction`: its module, with the `decimal` and
    `numbers` it imports, loads with the first element of Q built, not before."""
    global Fraction
    if Fraction is None:
        from fractions import Fraction
    return Fraction


def _wrap(spec: FieldSpec, value: int | Fraction) -> FieldElement:
    """Element of `spec` from a raw value built from its canonical values by +, -, * and exact
    division: reduced once mod p over F_p, kept as the Fraction it is over Q; no type check."""
    element = object.__new__(FieldElement)
    element.spec = spec
    p = spec.p
    element._value = value if p is None else value % p
    return element


def _ratio(spec: FieldSpec, num, den) -> FieldElement:
    """Element num/den of `spec` from raw values, den nonzero in that field: one division."""
    p = spec.p
    if p is None:
        return _wrap(spec, _fraction()(num, den))
    return _wrap(spec, num if den == 1 else num * pow(den, -1, p))


def _random_element(spec: FieldSpec, rng, max_numerator: int, max_denominator: int):
    """`FieldSpec.random_element`: a uniform residue over F_p, a bounded random fraction over Q."""
    if spec.p is not None:
        return FieldElement(spec, rng.randrange(spec.p))
    return FieldElement(spec, _fraction()(rng.randint(-max_numerator, max_numerator),
                                          rng.randint(1, max_denominator)))


class FieldElement:
    """Immutable element of Q or F_p, always held in canonical form."""

    __slots__ = ("spec", "_value")

    def __init__(self, spec: FieldSpec, value: int | Fraction):
        if spec.p is None:
            fraction = _fraction()
            if not isinstance(value, (int, fraction)) or isinstance(value, bool):
                raise TypeError(f"cannot build a rational element from {type(value).__name__}")
            self._value = fraction(value)
        else:
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"cannot build an F_{spec.p} element from {type(value).__name__}")
            self._value = value % spec.p
        self.spec = spec

    # -- views ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._value == 0

    @property
    def numerator(self) -> int:
        if self.spec.p is not None:
            raise TypeError("numerator is a rational-field view")
        return self._value.numerator

    @property
    def denominator(self) -> int:
        if self.spec.p is not None:
            raise TypeError("denominator is a rational-field view")
        return self._value.denominator

    def _parts(self) -> tuple[int, int]:
        """(num, den) with den > 0: the reduced fraction over Q, (residue, 1) over F_p."""
        v = self._value
        return v.numerator, v.denominator

    @property
    def residue(self) -> int:
        if self.spec.p is None:
            raise TypeError("residue is a prime-field view")
        return self._value

    def literal(self) -> str:
        # Fraction prints "n" or "n/d" with positive denominator, which is
        # exactly the interchange grammar; residues print in decimal.
        v = self._value
        if self.spec.p is None and max(abs(v.numerator), v.denominator) >= _LITERAL_BOUND:
            raise LiteralTooLong(f"value has over {MAX_LITERAL_DIGITS} digits")
        return str(v)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        """Raw value of a same-field element or an int operand; None for other types."""
        if isinstance(other, FieldElement):
            if other.spec is not self.spec:
                raise MixedFields(f"cannot combine {self.spec} and {other.spec} elements")
            return other._value
        if isinstance(other, int) and not isinstance(other, bool):
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else _wrap(self.spec, self._value + o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else _wrap(self.spec, self._value - o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else _wrap(self.spec, o - self._value)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else _wrap(self.spec, self._value * o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._divide(self._value, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._divide(o, self._value)

    def _divide(self, num, den):
        p = self.spec.p
        if (den if p is None else den % p) == 0:
            raise DivisionByZero("the zero element has no inverse")
        return _ratio(self.spec, num, den)

    def __neg__(self):
        return _wrap(self.spec, -self._value)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if self.spec.p is not None:
            return _wrap(self.spec, pow(self._value, exponent, self.spec.p))
        return _wrap(self.spec, self._value ** exponent)

    def inverse(self) -> FieldElement:
        return self._divide(1, self._value)

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
    return spec._ratio(*_literal_parts(text, spec))


def render(x: FieldElement) -> str:
    """Canonical literal; parse_element(render(x), x.spec) == x."""
    return x.literal()


def invert(x: FieldElement) -> FieldElement:
    return x.inverse()
