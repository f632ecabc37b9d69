"""The element-literal reader as it was before `field._literal_parts` read a literal in one
pass: a split on '/', a digit test per part and a length test per part.  Kept as the
reference that the one-pass reader is checked against: the same pair, or the same exception
class with the same message, for every string, over Q and over F_p."""

from tetrig.field import (MAX_LITERAL_DIGITS, LiteralTooLong, MalformedLiteral, ZeroDenominator,
                          _canonical)


def literal_parts(text, spec):
    """An element literal read as its canonical pair (num, den)."""
    digits = text.removeprefix("-").split("/", spec.p is None)  # a '/' splits over Q only
    if not (text.isascii() and all(map(str.isdigit, digits))):  # '²'.isdigit() holds
        kind = "a rational" if spec.p is None else "an integer"
        raise MalformedLiteral(f"{text!r} is not {kind} literal")
    if max(map(len, digits)) > MAX_LITERAL_DIGITS:
        raise LiteralTooLong(f"literal has over {MAX_LITERAL_DIGITS} digits")
    num, _, den = text.partition("/")
    num, den = int(num), int(den or 1)
    if den == 0:
        raise ZeroDenominator(f"{text!r} has denominator zero")
    return _canonical(spec, num, den)
