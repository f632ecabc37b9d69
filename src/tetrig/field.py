"""Exact field arithmetic over Q and over odd prime fields F_p.

Every scalar quantity in this package is a FieldElement: a reduced
arbitrary-precision fraction when the field is Q, or a canonical residue
in [0, p) when the field is F_p.  Characteristic 2 is excluded because
polarisation divides by 2.

FieldSpec is interned: there is one instance per modulus (None for Q) in a
process, so a modulus is checked for primality once, and specs compare by
identity.  Two elements lie in the same field exactly when their specs are
the same object.

The public constructor `FieldElement(spec, value)` validates its input.
Arithmetic results skip that: `FieldSpec._wrap` takes a raw value computed
from the canonical values of the same field by +, -, * and exact division,
reduces it once mod p over F_p, and keeps the Fraction as it is over Q.
Other modules of this package evaluate fused formulas on the raw `_value`s
of their operands, or on plain ints, and build the result the same way;
`FieldSpec._ratio` does so with the one division of a num/den pair.  The
way back is `FieldElement._parts`, an element as an integer pair (num, den),
and `FieldSpec._red`, which reduces a raw integer mod p (over Q: unchanged).
"""

from __future__ import annotations

from math import gcd, lcm


class FieldError(Exception):
    """Base class for field arithmetic errors."""


class InvalidFieldSpec(FieldError):
    """Modulus is 2, composite, not below MAX_MODULUS, or otherwise not an odd prime."""


class MalformedLiteral(FieldError):
    """Element literal does not match the interchange grammar."""


class LiteralTooLong(FieldError):
    """Literal, or the literal of a computed value, with over MAX_LITERAL_DIGITS digits."""


class ZeroDenominator(FieldError):
    """Rational literal with denominator 0."""


class DivisionByZero(FieldError):
    """Division by, or inversion of, the zero element."""


class MixedFields(FieldError):
    """Operands drawn from different fields."""


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster 2015); larger moduli are rejected.
MAX_MODULUS = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < MAX_MODULUS."""
    if n < 2 or any(n % b == 0 for b in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _WITNESSES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


Fraction = None  # `fractions.Fraction` once `_fraction` has imported it


def _fraction():
    """The class of Q's elements, `fractions.Fraction`: its module, with the `decimal` and
    `numbers` it imports, loads with the first element of Q built, not before, so a launch
    that builds none (`report` and `verify` work on integers) loads none of the three."""
    global Fraction
    if Fraction is None:
        from fractions import Fraction
    return Fraction


class FieldSpec:
    """Identifies the coefficient field: Q when p is None, else F_p.

    Interned and immutable: `FieldSpec(p)`, `FieldSpec.prime(p)` and
    `FieldSpec.rational()` return the one instance for their modulus.  An
    invalid modulus raises on every call and is never cached.
    """

    __slots__ = ("p", "_red")
    _interned: dict = {}  # modulus -> its only instance; None stands for Q

    def __new__(cls, p: int | None = None) -> "FieldSpec":
        if p is not None and not isinstance(p, int):
            raise InvalidFieldSpec(f"modulus {p!r} is not an integer")
        spec = cls._interned.get(p)
        if spec is not None:
            return spec
        if p is not None:
            if p == 2:
                raise InvalidFieldSpec("characteristic 2 is excluded")
            if p >= MAX_MODULUS:
                raise InvalidFieldSpec(f"modulus {p} is not below {MAX_MODULUS}")
            if not _is_prime(p):
                raise InvalidFieldSpec(f"modulus {p} is not prime")
        spec = object.__new__(cls)
        object.__setattr__(spec, "p", p)
        object.__setattr__(spec, "_red", int if p is None else p.__rmod__)
        # setdefault: threads racing on a new modulus all get the same instance
        return cls._interned.setdefault(p, spec)

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    def __delattr__(self, name):
        raise AttributeError("FieldSpec is immutable")

    def __reduce__(self):
        # unpickling and copying go through the cache, so identity survives
        return (FieldSpec, (self.p,))

    @classmethod
    def rational(cls) -> "FieldSpec":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p)

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def element(self, value: int | Fraction) -> "FieldElement":
        return FieldElement(self, value)

    def random_element(self, rng, max_numerator: int = 100,
                       max_denominator: int = 100) -> "FieldElement":
        """Uniform residue over F_p; bounded random fraction over Q."""
        if self.p is not None:
            return FieldElement(self, rng.randrange(self.p))
        return FieldElement(self, _fraction()(rng.randint(-max_numerator, max_numerator),
                                              rng.randint(1, max_denominator)))

    def _wrap(self, value: int | Fraction) -> "FieldElement":
        """Element from a raw value built from canonical values of this field.

        Reduces once mod p over F_p; over Q the value is already a reduced
        Fraction.  No type checks: this is for arithmetic results only.
        """
        element = object.__new__(FieldElement)
        element.spec = self
        p = self.p
        element._value = value if p is None else value % p
        return element

    def _ratio(self, num, den) -> "FieldElement":
        """Element num/den from raw values, den nonzero in this field: one division."""
        p = self.p
        if p is None:
            return self._wrap(_fraction()(num, den))
        return self._wrap(num if den == 1 else num * pow(den, -1, p))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p!r})"

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F_{self.p}"


# Every integer in a literal, read or written, has at most this many digits:
# the interpreter's default limit for int/str conversion.
MAX_LITERAL_DIGITS = 4300
_LITERAL_BOUND = 10 ** MAX_LITERAL_DIGITS


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
        if o is None:
            return NotImplemented
        return self.spec._wrap(self._value + o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.spec._wrap(self._value - o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.spec._wrap(o - self._value)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.spec._wrap(self._value * o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._divide(self._value, o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._divide(o, self._value)

    def _divide(self, num, den):
        p = self.spec.p
        if (den if p is None else den % p) == 0:
            raise DivisionByZero("the zero element has no inverse")
        return self.spec._ratio(num, den)

    def __neg__(self):
        return self.spec._wrap(-self._value)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if self.spec.p is not None:
            return self.spec._wrap(pow(self._value, exponent, self.spec.p))
        return self.spec._wrap(self._value ** exponent)

    def inverse(self) -> "FieldElement":
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


def _literal_parts(text: str, spec: FieldSpec) -> tuple[int, int]:
    """An element literal read as (num, den): in lowest terms with den > 0 over Q,
    (residue, 1) over F_p; the grammar is `parse_element`'s."""
    digits = text.removeprefix("-").split("/", spec.p is None)  # a '/' splits over Q only
    if not (text.isascii() and all(map(str.isdigit, digits))):  # '²'.isdigit() holds
        kind = "a rational" if spec.p is None else "an integer"
        raise MalformedLiteral(f"{text!r} is not {kind} literal")
    if max(map(len, digits)) > MAX_LITERAL_DIGITS:
        raise LiteralTooLong(f"literal has over {MAX_LITERAL_DIGITS} digits")
    num, _, den = text.partition("/")
    if not den:
        return spec._red(int(num)), 1
    num, den = int(num), int(den)
    if den == 0:
        raise ZeroDenominator(f"{text!r} has denominator zero")
    g = gcd(num, den)
    return num // g, den // g


def _over_common_den(parts) -> tuple[int, list[int]]:
    """L, the lcm of the dens of a list of (num, den) pairs, and each num times L / den."""
    scale = lcm(*(den for _, den in parts))
    return scale, [num * (scale // den) for num, den in parts]


def parse_element(text: str, spec: FieldSpec) -> FieldElement:
    """Parse an element literal: `[-]?digits(/digits)?` over Q, `[-]?digits` over F_p."""
    return spec._ratio(*_literal_parts(text, spec))


def render(x: FieldElement) -> str:
    """Canonical literal; parse_element(render(x), x.spec) == x."""
    return x.literal()


def invert(x: FieldElement) -> FieldElement:
    return x.inverse()
