"""Field arithmetic: literals, canonical forms, axioms, inverses."""

import copy
import math
import operator
import pickle
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tetrig import (DivisionByZero, FieldElement, FieldSpec, InvalidFieldSpec,
                    LiteralTooLong, MalformedLiteral, MixedFields, ZeroDenominator,
                    invert, parse_element, render)
from tetrig.element import _ratio
from tetrig.field import MAX_LITERAL_DIGITS, MAX_MODULUS, _canonical, _is_prime
from support import Q, draw_tetrahedron, rng

F7 = FieldSpec.prime(7)


def xgcd(a, b):
    """Extended Euclid; independent oracle for modular inverses."""
    old_r, r = a, b
    old_s, s = 1, 0
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
    return old_r, old_s


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

def test_parse_zero():
    e = parse_element("0", Q)
    assert e.is_zero
    assert (e.numerator, e.denominator) == (0, 1)
    assert render(e) == "0"


def test_parse_reduces_by_gcd():
    g = math.gcd(6, 4)
    e = parse_element("6/4", Q)
    assert (e.numerator, e.denominator) == (6 // g, 4 // g) == (3, 2)
    assert render(e) == "3/2"


def test_each_value_is_reduced_once(monkeypatch):
    # `field._canonical` is the one reduction of a pair: a literal is reduced as it is read
    # and not again, a power of a canonical pair is not reduced, and `analyze` reduces each
    # entry of the kernel's table once and builds its elements from the reduced pairs
    from pathlib import Path
    from tetrig import analyze, field, tetra
    from tetrig.document import load_document
    from tetrig.tetra import _ENTRIES
    from tetrig.trig import _report_parts
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return math.gcd(a, b)
    for module in (field, tetra):
        monkeypatch.setattr(module, "gcd", counted, raising=False)
    x = parse_element("6/4", Q)
    assert len(calls) == 1 and x._parts() == (3, 2)
    calls.clear()
    assert (x ** 5)._parts() == (243, 32) and calls == []
    fixture = Path(__file__).parent / "fixtures" / "tall_literal_q.json"
    doc = load_document(fixture.read_text())
    scale, coords = doc.coordinates
    tet = draw_tetrahedron(doc.form, coords, scale)
    calls.clear()
    report = analyze(tet)
    assert len(calls) == len(_ENTRIES) == 41
    assert all(den for _, den in _report_parts(report))  # no entry is Undefined


def test_parse_reduces_mod_p():
    assert parse_element("-3", F7).residue == -3 % 7 == 4


@pytest.mark.parametrize("bad", ["", "1/", "/2", "a", "1.5", "+3", "1/-2", "--1", " 1"])
def test_parse_rejects_malformed_rational(bad):
    with pytest.raises(MalformedLiteral):
        parse_element(bad, Q)


def test_parse_rejects_fraction_over_prime_field():
    with pytest.raises(MalformedLiteral):
        parse_element("3/2", F7)


def test_parse_zero_denominator():
    with pytest.raises(ZeroDenominator):
        parse_element("3/0", Q)


def test_literal_digit_bound():
    longest = "9" * MAX_LITERAL_DIGITS
    assert render(parse_element(f"-{longest}/7", Q)) == f"-{longest}/7"
    for text, spec in ((longest + "9", Q), (f"1/{longest}9", Q), (longest + "9", F7)):
        with pytest.raises(LiteralTooLong):
            parse_element(text, spec)
    with pytest.raises(LiteralTooLong):
        (parse_element(longest, Q) * 10).literal()


def test_round_trip_is_identity():
    rnd = rng(1)
    for spec in (Q, F7, FieldSpec.prime(101)):
        for _ in range(200):
            x = spec.random_element(rnd)
            assert parse_element(render(x), spec) == x


# ---------------------------------------------------------------------------
# field spec validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 1, 0, -7, 9, 15, 10001])
def test_invalid_moduli_rejected(p):
    with pytest.raises(InvalidFieldSpec):
        FieldSpec.prime(p)


def test_odd_primes_accepted():
    for p in (3, 7, 101, 10007):
        assert FieldSpec.prime(p).p == p


def _trial_division(n):
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


def test_primality_agrees_with_trial_division_below_1e5():
    assert [n for n in range(-3, 10**5) if _is_prime(n) != _trial_division(n)] == []


@pytest.mark.parametrize("n", [561, 3215031751, 3825123056546413051])
def test_strong_pseudoprimes_rejected(n):
    # Carmichael number; strong pseudoprimes to bases 2..7 and 2..23
    assert not _is_prime(n)
    with pytest.raises(InvalidFieldSpec, match="not prime"):
        FieldSpec.prime(n)


def test_large_prime_modulus_builds_fast():
    p = 2**61 - 1
    start = time.perf_counter()
    assert FieldSpec.prime(p).p == p
    assert time.perf_counter() - start < 1.0


def test_modulus_beyond_primality_bound_rejected():
    # MAX_MODULUS itself passes all 13 Miller-Rabin bases but is composite
    assert _is_prime(MAX_MODULUS)
    for p in (MAX_MODULUS, 2**89 - 1):
        with pytest.raises(InvalidFieldSpec, match="not below"):
            FieldSpec.prime(p)


# ---------------------------------------------------------------------------
# interning: one spec per modulus, compared by identity
# ---------------------------------------------------------------------------

def test_spec_is_interned():
    assert FieldSpec.prime(101) is FieldSpec.prime(101) is FieldSpec(101)
    assert FieldSpec(None) is FieldSpec.rational() is FieldSpec() is Q
    assert FieldSpec.prime(7) is not FieldSpec.prime(11)


@pytest.mark.parametrize("spec", [Q, F7, FieldSpec.prime(10007)])
def test_spec_identity_survives_pickle_and_copy(spec):
    assert pickle.loads(pickle.dumps(spec)) is spec
    assert copy.deepcopy(spec) is spec
    assert copy.copy(spec) is spec
    x = spec.element(3)
    assert pickle.loads(pickle.dumps(x)) + x == x * 2


def test_spec_is_immutable():
    with pytest.raises(AttributeError):
        F7.p = 11
    with pytest.raises(AttributeError):
        del F7.p
    assert F7.p == 7


def test_primality_checked_once_per_modulus(monkeypatch):
    import tetrig.field as field

    calls = []
    real = field._is_prime
    monkeypatch.setattr(field, "_is_prime", lambda n: calls.append(n) or real(n))
    p = 1000003
    monkeypatch.delitem(FieldSpec._interned, p, raising=False)
    for _ in range(3):
        assert FieldSpec.prime(p).p == p
    assert calls == [p]


def test_concurrent_first_builds_share_one_instance(monkeypatch):
    import tetrig.field as field

    real = field._is_prime
    # a slow primality test lets every thread miss the cache before any fills it
    monkeypatch.setattr(field, "_is_prime", lambda n: time.sleep(0.01) or real(n))
    p = 1000033
    monkeypatch.delitem(FieldSpec._interned, p, raising=False)
    barrier = threading.Barrier(8)
    got = []

    def build():
        barrier.wait(timeout=30)
        got.append(FieldSpec.prime(p))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8
    assert all(spec is FieldSpec._interned[p] for spec in got)


@pytest.mark.parametrize("p", [2, 1, 0, -7, 9, 10001])
def test_invalid_modulus_raises_every_call_and_is_not_cached(p):
    for _ in range(3):
        with pytest.raises(InvalidFieldSpec):
            FieldSpec.prime(p)
    assert p not in FieldSpec._interned


@pytest.mark.parametrize("p", [7.0, 7.5, "7"])
def test_non_integer_modulus_rejected(p):
    with pytest.raises(InvalidFieldSpec):
        FieldSpec.prime(p)


def test_mixed_fields_still_rejected_after_interning():
    with pytest.raises(MixedFields):
        F7.one() + FieldSpec.prime(11).one()
    with pytest.raises(MixedFields):
        Q.one() * F7.one()
    assert F7.one() != FieldSpec.prime(11).one()


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

def test_invert_one():
    for spec in (Q, F7):
        assert invert(spec.one()) == spec.one()


def test_invert_rational_is_reciprocal():
    e = parse_element("3/2", Q)
    assert invert(e) == parse_element("2/3", Q)


def test_invert_prime_matches_extended_euclid():
    g, x = xgcd(3, 7)
    assert g == 1
    expected = x % 7
    assert expected == 5 and 3 * expected % 7 == 1
    assert invert(F7.element(3)) == F7.element(expected)


def test_invert_property():
    rnd = rng(2)
    for spec in (Q, FieldSpec.prime(101)):
        for _ in range(100):
            x = spec.random_element(rnd)
            if x.is_zero:
                continue
            assert x * invert(x) == spec.one()


def test_invert_zero_raises():
    for spec in (Q, F7):
        with pytest.raises(DivisionByZero):
            invert(spec.zero())
        with pytest.raises(DivisionByZero):
            spec.one() / spec.zero()


@pytest.mark.parametrize("spec", [Q, F7], ids=["Q", "F_7"])
def test_ratio_over_one_is_the_element_without_an_inverse(spec, monkeypatch):
    import tetrig.element as element

    def no_pow(*args):
        raise AssertionError("an inverse was computed")
    monkeypatch.setattr(element, "pow", no_pow, raising=False)
    for n in (-15, -7, -1, 0, 1, 6, 7, 8, 10**30 + 3):
        x = spec._ratio(n, 1)
        assert x == FieldElement(spec, n)
        assert spec._ratio(*x._parts()) == x


# ---------------------------------------------------------------------------
# axioms and canonical form
# ---------------------------------------------------------------------------

def test_field_axioms_random_triples():
    rnd = rng(3)
    for spec in (Q, F7, FieldSpec.prime(10007)):
        for _ in range(150):
            a = spec.random_element(rnd)
            b = spec.random_element(rnd)
            c = spec.random_element(rnd)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == spec.zero()
            if not a.is_zero:
                assert a * a.inverse() == spec.one()


def test_fermat_inverse_exponent():
    rnd = rng(4)
    for p in (7, 101, 10007):
        spec = FieldSpec.prime(p)
        for _ in range(50):
            x = spec.random_element(rnd)
            if x.is_zero:
                continue
            assert x ** (p - 1) == spec.one()


def test_canonical_negative_denominator():
    e = Q.one() / Q.element(-2)
    assert e.denominator == 2 and e.numerator == -1
    assert render(e) == "-1/2"
    assert Q.element(Fraction(4, -6)) == parse_element("-2/3", Q)


def test_powers():
    x = parse_element("3/2", Q)
    assert x ** 0 == Q.one()
    assert x ** 3 == parse_element("27/8", Q)
    assert x ** -1 == invert(x)
    y = F7.element(3)
    assert y ** -2 == invert(y) * invert(y)


def test_int_coercion_in_arithmetic():
    x = parse_element("3/2", Q)
    assert x + 1 == parse_element("5/2", Q)
    assert 2 * x == Q.element(3)
    assert x / 3 == parse_element("1/2", Q)
    assert 1 - x == parse_element("-1/2", Q)
    assert 2 / x == parse_element("4/3", Q)
    assert 2 / F7.element(3) == F7.element(3)


@pytest.mark.parametrize("spec", [Q, F7], ids=["Q", "F_7"])
@pytest.mark.parametrize("operand", [1.5, True], ids=["float", "bool"])
def test_operands_other_than_ints_and_elements_are_type_errors(spec, operand):
    x = spec.element(3)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for left, right in ((x, operand), (operand, x)):
            with pytest.raises(TypeError):
                op(left, right)
    with pytest.raises(TypeError):
        x ** operand


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        Q.one() + F7.one()
    with pytest.raises(MixedFields):
        F7.one() * FieldSpec.prime(11).one()


def test_element_type_guards():
    with pytest.raises(TypeError):
        FieldElement(F7, Fraction(1, 2))
    with pytest.raises(TypeError):
        FieldElement(Q, "1/2")
    for spec in (Q, F7):  # a bool is an int, but no operand of arithmetic either
        for value in (True, False):
            with pytest.raises(TypeError, match="^cannot build .* from bool$"):
                FieldElement(spec, value)
            with pytest.raises(TypeError, match="^cannot build .* from bool$"):
                spec.element(value)


def test_views_belong_to_one_field():
    with pytest.raises(TypeError, match="rational-field view"):
        F7.element(3).numerator
    with pytest.raises(TypeError, match="rational-field view"):
        F7.element(3).denominator
    with pytest.raises(TypeError, match="prime-field view"):
        Q.element(3).residue
    assert (repr(Q), repr(F7)) == ("FieldSpec(p=None)", "FieldSpec(p=7)")
    assert (str(parse_element("-3/4", Q)), str(F7.element(-1))) == ("-3/4", "6")


# ---------------------------------------------------------------------------
# reference arithmetic: `fractions.Fraction` over Q, ints mod p over F_p
# ---------------------------------------------------------------------------

REFERENCE = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# small, word-sized and roughly 4,000-digit integers, of either sign
INTS = st.integers(-9, 9) | st.integers(-10**12, 10**12) | st.integers(-10**4000, 10**4000)
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


def _agrees(element, value) -> None:
    """`element` of Q is the Fraction or int `value`: the same numerator and positive
    denominator, and the literal `str(Fraction)`, or LiteralTooLong over the digit bound."""
    value = Fraction(value)
    assert (element.numerator, element.denominator) == (value.numerator, value.denominator)
    if max(abs(value.numerator), value.denominator) < 10 ** MAX_LITERAL_DIGITS:
        assert element.literal() == str(value)
    else:
        with pytest.raises(LiteralTooLong):
            element.literal()


@REFERENCE
@given(st.builds(Fraction, INTS, INTS.filter(bool)), st.builds(Fraction, INTS, INTS.filter(bool))
       | st.just(Fraction(0)), INTS, st.integers(-3, 3))
@example(Fraction(3, 4), Fraction(-5, 6), -7, -2).via("a negative divisor: the sign moves up")
def test_rational_arithmetic_is_fractions(x, y, n, exponent):
    ex, ey = Q.element(x), Q.element(y)
    _agrees(ex, x)
    for op in BINARY:
        for (left, right), (a, b) in (((ex, ey), (x, y)), ((ex, n), (x, n)), ((n, ex), (n, x))):
            if op is operator.truediv and b == 0:
                with pytest.raises(DivisionByZero):
                    op(left, right)
            else:
                _agrees(op(left, right), op(a, b))
    _agrees(-ex, -x)
    if x == 0 and exponent < 0:
        with pytest.raises(DivisionByZero):
            ex ** exponent
    else:
        _agrees(ex ** exponent, x ** exponent)


@REFERENCE
@given(st.sampled_from([None, 3, 7, 2**31 - 1]), INTS, INTS.filter(bool))
@example(None, 0, -4).via("zero over a negative den")
@example(7, 0, 1).via("the zero residue negated")
def test_negation_is_the_reduced_negated_pair(p, num, den):
    # `-x` builds its pair with no gcd over Q and no inverse over F_p; it is the element that
    # reducing (-num, den) gives, canonical pair and all
    spec = FieldSpec(p)
    if p and den % p == 0:
        den = 1
    x = _ratio(spec, num, den)
    negated = -x
    assert negated == _ratio(spec, -x._parts()[0], x._parts()[1])
    assert negated._parts() == _canonical(spec, -num, den)
    assert -negated == x


@REFERENCE
@given(st.sampled_from([3, 7, 2**31 - 1]), INTS, INTS, st.integers(-3, 3))
@example(7, 14, -3, -1).via("a zero residue from a nonzero int")
def test_prime_field_arithmetic_is_ints_mod_p(p, a, b, exponent):
    spec = FieldSpec.prime(p)
    ea, eb = spec.element(a), spec.element(b)

    def reference(op, x, y):
        return x * pow(y, -1, p) % p if op is operator.truediv else op(x, y) % p
    for op in BINARY:
        for (left, right), (x, y) in (((ea, eb), (a, b)), ((ea, b), (a, b)), ((a, eb), (a, b))):
            if op is operator.truediv and y % p == 0:
                with pytest.raises(DivisionByZero):
                    op(left, right)
            else:
                result = op(left, right)
                assert result.residue == reference(op, x, y)
                assert result.literal() == str(result.residue)
    assert (-ea).residue == -a % p
    if a % p == 0 and exponent < 0:
        with pytest.raises(DivisionByZero):
            ea ** exponent
    else:
        assert (ea ** exponent).residue == pow(a, exponent, p)
