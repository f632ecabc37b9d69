"""The coefficient fields, Q and the odd prime fields F_p, and element literals read and
written as canonical integer pairs (`_literal_parts`, `_literal`): what every launch runs.
A canonical pair (num, den) is in lowest terms with den > 0 over Q, and (residue, 1) over F_p.

Characteristic 2 is excluded because polarisation divides by 2.  FieldSpec is interned:
there is one instance per modulus (None for Q) in a process, so a modulus is checked for
primality once, and specs compare by identity.  Two elements lie in the same field exactly
when their specs are the same object.  `report`, `verify` and `fuzz` work on integers from
literal to verdict and build no element; the element library, `element`, loads with the
first element that a FieldSpec method builds.
"""

from __future__ import annotations

from math import gcd, lcm

from . import _resolver


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


_element = None  # the module `element` once `_library` has imported it


def _library():
    """The element library, the module `element`: it loads with the first element built,
    by a FieldSpec method below, not before, so a launch, which builds none, never compiles it."""
    global _element
    if _element is None:
        from . import element as _element
    return _element


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
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def element(self, value) -> "FieldElement":
        return _library().FieldElement(self, value)

    def random_element(self, rng, max_numerator: int = 100,
                       max_denominator: int = 100) -> "FieldElement":
        """Uniform residue over F_p; bounded random fraction over Q."""
        if self.p is not None:
            return self._ratio(rng.randrange(self.p), 1)
        return self._ratio(rng.randint(-max_numerator, max_numerator),
                           rng.randint(1, max_denominator))

    def _ratio(self, num, den) -> "FieldElement":
        """Element num/den from raw ints, den nonzero in this field: `element._ratio`."""
        return _library()._ratio(self, num, den)

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p!r})"

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F_{self.p}"


# Every integer in a literal, read or written, has at most this many digits:
# the interpreter's default limit for int/str conversion.
MAX_LITERAL_DIGITS = 4300
_LITERAL_BOUND = 10 ** MAX_LITERAL_DIGITS


def _canonical(spec: FieldSpec, num: int, den: int) -> tuple[int, int]:
    """The canonical pair of num/den, den nonzero in the field: one signed gcd over Q, and
    num * den^-1 mod p over F_p, with no inverse when den == 1.  The one reduction of a pair:
    of the literals read and written, of `element._ratio` and of `tetra._report_table` over Q."""
    p = spec.p
    if p is None:
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        return num // g, den // g
    return (num if den == 1 else num * pow(den, -1, p)) % p, 1


def _literal_parts(text: str, spec: FieldSpec) -> tuple[int, int]:
    """An element literal read as its canonical pair (num, den); the grammar is
    `element.parse_element`'s.  An F_p literal, an integer, is read straight to its residue."""
    if spec.p is not None:  # no '/', and no den to reduce by
        digits = text.removeprefix("-")  # '²'.isdigit() holds, and "".isdigit() does not
        if not (text.isascii() and digits.isdigit()):
            raise MalformedLiteral(f"{text!r} is not an integer literal")
        if len(digits) > MAX_LITERAL_DIGITS:
            raise LiteralTooLong(f"literal has over {MAX_LITERAL_DIGITS} digits")
        return int(text) % spec.p, 1
    num, slash, den = text.partition("/")
    digits = num.removeprefix("-")
    if not (text.isascii() and digits.isdigit() and (den.isdigit() or not slash)):
        raise MalformedLiteral(f"{text!r} is not a rational literal")
    if len(digits) > MAX_LITERAL_DIGITS or len(den) > MAX_LITERAL_DIGITS:
        raise LiteralTooLong(f"literal has over {MAX_LITERAL_DIGITS} digits")
    den = int(den or 1)
    if not den:
        raise ZeroDenominator(f"{text!r} has denominator zero")
    return _canonical(spec, int(num), den)


def _literal(num: int, den: int) -> str:
    """The literal of a canonical pair (num, den), `n` or `n/d`: `_literal_parts`'s inverse."""
    if abs(num) >= _LITERAL_BOUND or den >= _LITERAL_BOUND:  # cheaper than max(num, -num, den)
        raise LiteralTooLong(f"value has over {MAX_LITERAL_DIGITS} digits")
    return str(num) if den == 1 else f"{num}/{den}"


def _over_common_den(parts) -> tuple[int, list[int]]:
    """L, the lcm of the dens of a list of (num, den) pairs, and each num times L / den."""
    scale = lcm(*(den for _, den in parts))
    if scale == 1:
        return 1, [num for num, _ in parts]  # as over F_p
    return scale, [num * (scale // den) for num, den in parts]


# read by `bench/run.py` here; ROADMAP item 1's benchmark retarget deletes it
__getattr__ = _resolver(globals(), {"element": ("FieldElement",)})
