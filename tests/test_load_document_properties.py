"""Property tests: malformed input documents are input errors, never crashes, and
valid ones load to the points and form their literals name.

Most documents drawn here are invalid: text that is not JSON, JSON of the
wrong shape, or a well-shaped document with one literal that breaks the
grammar.  `load_document` must raise `InputError`, and `tetrig verify` on the
same bytes in a file must exit 2 with nothing on stdout.  The valid ones, over
Q and over F_p, carry literals in any spelling the grammar allows.
"""

import contextlib
import io
import json
import os
import re
import tempfile

from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from tetrig import FieldSpec, Point3, SymmetricForm, parse_element
from tetrig.cli import InputError, main
from tetrig.document import _document_obj, document_from_obj, load_document
from tetrig.field import (MAX_LITERAL_DIGITS, FieldError, MalformedLiteral, ZeroDenominator,
                          _literal_parts)
from tetrig.trig import _scaled_coordinates
from literal_reader import literal_parts
from support import draw_tetrahedron

VALID = {
    "field": {"kind": "rational"},
    "form": {"a1": "1", "a2": "1", "a3": "1", "b1": "0", "b2": "0", "b3": "0"},
    "points": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    "options": {"checks": True, "skew": True, "tri_rectangular": False},
}
VALID_F101 = dict(VALID, field={"kind": "prime", "p": 101})
FORM_KEYS = tuple(VALID["form"])

# a literal is valid when it matches the grammar and has a nonzero denominator
RATIONAL_OK = re.compile(r"-?[0-9]+(?:/[0-9]*[1-9][0-9]*)?")
INTEGER_OK = re.compile(r"-?[0-9]+")

# derandomized, so every run of the suite draws the same examples
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=8)
literal_text = st.text(alphabet="0123456789-/+. e_xé٣", max_size=8) | st.text(max_size=8)


def _assert_rejected(data: bytes) -> None:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        text = None
    if text is not None:
        try:
            load_document(text)
        except InputError:
            pass
        else:
            raise AssertionError(f"load_document accepted {text!r}")
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--input", path])
    finally:
        os.unlink(path)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")


def _document(obj) -> bytes:
    return json.dumps(obj).encode()


def test_valid_base_documents_load():
    for obj in (VALID, VALID_F101):
        load_document(json.dumps(obj))


@SETTINGS
@given(st.binary(max_size=40) | st.text(max_size=40).map(str.encode))
def test_text_that_is_no_document_is_rejected(data):
    _assert_rejected(data)


@SETTINGS
@given(st.integers(min_value=0, max_value=len(json.dumps(VALID)) - 1))
def test_truncated_document_is_rejected(cut):
    _assert_rejected(_document(VALID)[:cut])


@SETTINGS
@given(st.data())
def test_wrong_shape_is_rejected(data):
    obj = json.loads(json.dumps(VALID))
    part = data.draw(st.sampled_from(
        ["top", "field", "form", "form entry", "points", "triple", "coordinate", "option"]))
    if part == "top":
        obj = data.draw(json_values.filter(lambda v: not isinstance(v, dict)))
    elif part == "field":
        obj["field"] = data.draw(json_values.filter(
            lambda v: not isinstance(v, dict) or v.get("kind") not in ("rational", "prime")))
    elif part == "form":
        obj["form"] = data.draw(json_values.filter(
            lambda v: not isinstance(v, dict) or not set(FORM_KEYS) <= set(v)))
    elif part == "form entry":
        key = data.draw(st.sampled_from(FORM_KEYS))
        obj["form"][key] = data.draw(json_values.filter(lambda v: not isinstance(v, str)))
    elif part == "points":
        obj["points"] = data.draw(json_values.filter(
            lambda v: not isinstance(v, list) or len(v) != 4))
    elif part == "triple":
        obj["points"][data.draw(st.integers(0, 3))] = data.draw(json_values.filter(
            lambda v: not isinstance(v, list) or len(v) != 3))
    elif part == "coordinate":
        obj["points"][data.draw(st.integers(0, 3))][data.draw(st.integers(0, 2))] = \
            data.draw(json_values.filter(lambda v: not isinstance(v, str)))
    else:
        name = data.draw(st.sampled_from(["checks", "skew", "tri_rectangular"]))
        obj["options"][name] = data.draw(json_values.filter(lambda v: not isinstance(v, bool)))
    _assert_rejected(_document(obj))


@SETTINGS
@given(st.booleans(), st.integers(0, 17), literal_text)
def test_bad_literal_is_rejected(prime, slot, literal):
    assume(not (INTEGER_OK if prime else RATIONAL_OK).fullmatch(literal))
    obj = json.loads(json.dumps(VALID_F101 if prime else VALID))
    if slot < 6:
        obj["form"][FORM_KEYS[slot]] = literal
    else:
        obj["points"][(slot - 6) // 3][(slot - 6) % 3] = literal
    _assert_rejected(_document(obj))


# the literal grammar as regular expressions, as `_literal_parts` once checked it
RATIONAL_LIT = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
INTEGER_LIT = re.compile(r"-?[0-9]+")


@settings(SETTINGS, max_examples=400)
@given(st.text(alphabet="0123456789-/+_ ²٣", max_size=8), st.sampled_from([None, 7]))
@example("²", None).via("a digit that is not ASCII")
@example("1/٣", None).via("a digit that is not ASCII")
@example("-1/2", None).via("a signed rational")
@example("1/-2", None).via("a signed denominator")
@example("--1", 7).via("two signs")
@example("1/0", None).via("a zero denominator is well formed")
@example("1/2", 7).via("no '/' over F_p")
@example("1/2/3", None).via("two '/'")
def test_literal_grammar_is_the_regular_expressions(text, p):
    # str methods in place of the patterns: each literal either is malformed for both or
    # for neither, over Q and over F_p
    spec = FieldSpec.rational() if p is None else FieldSpec.prime(p)
    try:
        _literal_parts(text, spec)
        well_formed = True
    except MalformedLiteral:
        well_formed = False
    except ZeroDenominator:
        well_formed = True
    assert well_formed == bool((RATIONAL_LIT if p is None else INTEGER_LIT).fullmatch(text))


def _read(reader, text, spec):
    """`reader`'s pair for `text`, or the class and message of the field error it raises."""
    try:
        return reader(text, spec)
    except FieldError as exc:
        return type(exc), str(exc)


# a literal at the digit bound, or one digit over it, on either side of a '/', with a sign
LONG, OVER = "9" * MAX_LITERAL_DIGITS, "1" + "0" * MAX_LITERAL_DIGITS
long_literals = st.builds("{}{}{}{}".format, st.sampled_from(["", "-"]),
                          st.sampled_from(["", "0", "7", LONG, OVER]),
                          st.sampled_from(["", "/", "/-"]),
                          st.sampled_from(["", "0", "07", LONG, "0" + LONG, OVER]))


@settings(SETTINGS, max_examples=600)
@given(st.text(alphabet="0123456789-/+_ .e²٣１", max_size=10) | long_literals,
       st.sampled_from([None, 7, 101]))
@example(LONG, 7).via("the digit bound over F_p")
@example("-" + OVER, 101).via("over the digit bound over F_p")
@example(f"-{LONG}/{LONG}", None).via("the digit bound on both sides of a '/'")
@example(f"{OVER}/1", None).via("over the digit bound before a '/'")
@example(f"1/{OVER}", None).via("over the digit bound after a '/'")
@example(f"{OVER}/0", None).via("too long before a zero denominator")
@example(f"{OVER}/-1", None).via("too long and malformed")
@example("１", None).via("a digit that is not ASCII")
def test_literal_reader_is_the_reference_reader(text, p):
    # the one-pass reader returns the pair of `tests/literal_reader.py`, or raises the same
    # exception with the same message, over Q and over F_p
    spec = FieldSpec.rational() if p is None else FieldSpec.prime(p)
    assert _read(_literal_parts, text, spec) == _read(literal_parts, text, spec)


def test_json_beyond_the_parser_limits_is_rejected():
    # nesting deeper than the recursion limit, and an integer over 4300 digits
    _assert_rejected(b"[" * 100_000)
    _assert_rejected(_document(dict(VALID, field={"kind": "prime", "p": 0}))
                     .replace(b'"p": 0', b'"p": ' + b"7" * 5000))


@st.composite
def literals(draw, p):
    """A literal over Q (p None) or F_p, often not canonical: leading zeros, -0, a fraction
    not in lowest terms, an integer at or over p."""
    num = draw(st.integers(0, 40) | st.integers(0, 3 * (p or 10**6)))
    text = draw(st.sampled_from(["", "-"])) + "0" * draw(st.integers(0, 2)) + str(num)
    if p is None and draw(st.booleans()):
        text += "/" + "0" * draw(st.integers(0, 2)) + str(draw(st.integers(1, 12)))
    return text


def _value(text, p):
    """A literal's value by `Fraction` over Q and `int` over F_p, without `tetrig`."""
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1)) if p is None else int(text) % p


def _spelling(text, p):
    """A literal's canonical spelling, by `Fraction` over Q and `int` over F_p."""
    return str(Fraction(text)) if p is None else str(int(text) % p)


@SETTINGS
@given(st.data(), st.sampled_from([None, 3, 7, 101, 2**31 - 1]))
def test_valid_document_loads_to_its_literals(data, p):
    # the form and the scaled points that parsing keeps are those of the literals read
    # one by one with `parse_element`, and the literals' (num, den) are their values'; the
    # writer is the reader's inverse: it spells each literal canonically, and what it writes
    # reads back to the same integers
    lit = literals(p)
    form_literals = [data.draw(lit) for _ in FORM_KEYS]
    a1, a2, a3, b1, b2, b3 = (_value(text, p) for text in form_literals)
    det = a1 * (a2 * a3 - b1 * b1) - b3 * (b3 * a3 - b1 * b2) + b2 * (b3 * b1 - a2 * b2)
    assume(det != 0 if p is None else det % p != 0)
    points = [[data.draw(lit) for _ in range(3)] for _ in range(4)]
    field = {"kind": "rational"} if p is None else {"kind": "prime", "p": p}
    doc = load_document(json.dumps({"field": field, "form": dict(zip(FORM_KEYS, form_literals)),
                                    "points": points}))

    spec = FieldSpec(p)
    form = SymmetricForm(*(parse_element(text, spec) for text in form_literals))
    scale, coords = doc.coordinates
    tet = draw_tetrahedron(doc.form, coords, scale)
    # a SymmetricForm compares by identity: compare what it holds
    for name in SymmetricForm.__slots__:
        assert getattr(tet.form, name) == getattr(form, name), name
    assert tet.points == tuple(Point3(*(parse_element(text, spec) for text in triple))
                               for triple in points)
    assert doc.coordinates == _scaled_coordinates(tet.points)
    for text in form_literals + [text for triple in points for text in triple]:
        value = _value(text, p)
        assert _literal_parts(text, spec) == ((value.numerator, value.denominator)
                                              if p is None else (value, 1))
    written = _document_obj(doc.form, *doc.coordinates)
    assert written == {
        "field": field, "form": dict(zip(FORM_KEYS, (_spelling(t, p) for t in form_literals))),
        "points": [[_spelling(text, p) for text in triple] for triple in points]}
    again = document_from_obj(written)
    assert (again.form._ints, again.form._scale, again.coordinates) == (
        doc.form._ints, doc.form._scale, doc.coordinates)
