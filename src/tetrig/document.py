"""The interchange document and `report` and `verify`: a document read into the integers the
kernel works on (`document_from_obj`) and written back from them (`_document_obj`), its
canonical table, and the printed report and verdicts.

The right corner (`corner`) is imported only for a document with the `tri_rectangular`
option.  No command builds a field element, and the `FieldElement` library (`element`,
`affine`, `trig`) is never imported here: `trig`'s writers of the library's objects
(`document_to_obj`, `report_to_obj`, `results_to_obj`) read them as integers and call the
writers here.  `--corrupt` (`_corrupt`) works on the canonical table only.
"""

from __future__ import annotations

import json
from operator import add

from .blinalg import DegenerateForm, Record, SymmetricForm
from .cli import InputError, _untimed
from .field import (_LITERAL_BOUND, MAX_LITERAL_DIGITS, FieldError, FieldSpec, LiteralTooLong,
                    _canonical, _literal, _literal_parts, _over_common_den)
from .tetra import (_FIELDS, _IDENTITIES, FAIL, INAPPLICABLE, PASS, DegenerateParams,
                    NotTriRectangular, _gram, _report_table, _verify_parts)


class ReportOptions(Record):
    __slots__ = ("checks", "skew", "tri_rectangular")

    def __init__(self, checks: bool = False, skew: bool = True, tri_rectangular: bool = False):
        self.checks, self.skew, self.tri_rectangular = checks, skew, tri_rectangular


class InputDocument(Record):
    __slots__ = ("form", "options", "coordinates")  # (L, the points' 12 coordinates times L)


# -- input documents -------------------------------------------------------

_FORM_KEYS = ("a1", "a2", "a3", "b1", "b2", "b3")
_MISSING = object()  # stands in for a form entry that the document lacks


def _field_spec_obj(spec: FieldSpec) -> dict:
    return {"kind": "rational"} if spec.is_rational else {"kind": "prime", "p": spec.p}


def _document_obj(form: SymmetricForm, scale: int, coords, options=None) -> dict:
    """The document that `document_from_obj` reads into `form`, the twelve coordinates `coords`
    over `scale` (three per point) and `options` (a `ReportOptions`) if given: each literal is
    written from its canonical pair.  A fuzz failure record holds it, for `verify` to replay."""
    spec = form.spec
    pairs = [*((form._ints[i][j], form._scale) for i, j in form._CELLS),
             *((c, scale) for c in coords)]
    literals = [_literal(*_canonical(spec, num, den)) for num, den in pairs]
    obj = {"field": _field_spec_obj(spec), "form": dict(zip(_FORM_KEYS, literals)),
           "points": [literals[i:i + 3] for i in range(6, 18, 3)]}
    if options is not None:
        obj["options"] = dict(zip(ReportOptions.__slots__, options._fields()))
    return obj


def _field_spec_from_obj(obj, path: str) -> FieldSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError(f"{path}: expected an object with a 'kind' entry")
    kind = obj["kind"]
    if kind == "rational":
        return FieldSpec.rational()
    if kind == "prime":
        if not isinstance(obj.get("p"), int) or isinstance(obj["p"], bool):  # JSON true, false
            raise InputError(f"{path}.p: expected an integer modulus")
        try:
            return FieldSpec.prime(obj["p"])
        except FieldError as exc:
            raise InputError(f"{path}.p: {exc}") from exc
    raise InputError(f"{path}.kind: expected 'rational' or 'prime', got {kind!r}")


def _literals(texts, spec: FieldSpec, path) -> list:
    """The canonical pairs of a document part's literals `texts`, read in one loop; the first that
    is not a literal raises an InputError naming it `path(n)`, n the number read before it."""
    pairs = []
    try:
        for text in texts:
            pairs.append(_literal_parts(text, spec))
    except (AttributeError, TypeError, FieldError) as exc:  # AttributeError, TypeError: not a str
        n = len(pairs)
        if not isinstance(texts[n], str):
            raise InputError(f"{path(n)}: missing entry" if texts[n] is _MISSING else
                             f"{path(n)}: field elements must be literal strings") from None
        raise InputError(f"{path(n)}: {exc}") from exc
    return pairs


def document_from_obj(obj) -> InputDocument:
    if not isinstance(obj, dict):
        raise InputError("top level: expected a JSON object")
    spec = _field_spec_from_obj(obj.get("field"), "field")

    form_obj = obj.get("form")
    if not isinstance(form_obj, dict):
        raise InputError("form: expected an object with entries a1,a2,a3,b1,b2,b3")
    entries = _literals([form_obj.get(key, _MISSING) for key in _FORM_KEYS], spec,
                        lambda n: f"form.{_FORM_KEYS[n]}")
    try:
        form = SymmetricForm.from_parts(spec, entries)
    except DegenerateForm as exc:
        raise InputError(f"form: {exc}") from exc

    points_obj = obj.get("points")
    if not isinstance(points_obj, list) or len(points_obj) != 4:
        raise InputError("points: expected a list of 4 coordinate triples")
    parts = []
    for i, triple in enumerate(points_obj):
        if not isinstance(triple, list) or len(triple) != 3:
            raise InputError(f"points[{i}]: expected a triple of literals")
        parts += _literals(triple, spec, lambda n: f"points[{i}][{n}]")
    # the kernel works on these integers (over F_p, residues): bound them as literals are
    scale, coords = _over_common_den(parts)
    for path, ints in {"form": (form._scale, *sum(form._ints, ())),
                       "points": (scale, *coords)}.items():
        if max(max(ints), -min(ints)) >= _LITERAL_BOUND:
            raise InputError(f"{path}: an integer over the common denominator has over "
                             f"{MAX_LITERAL_DIGITS} digits")

    options_obj = obj.get("options", {})
    if not isinstance(options_obj, dict):
        raise InputError("options: expected an object")
    options = ReportOptions()
    for name, value in options_obj.items():
        if name not in ReportOptions.__slots__:
            raise InputError(f"options.{name}: unknown option; "
                             "expected checks, skew or tri_rectangular")
        if not isinstance(value, bool):
            raise InputError(f"options.{name}: expected a boolean")
        setattr(options, name, value)
    return InputDocument(form, options, (scale, coords))


def load_document(text: str) -> InputDocument:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, nesting or integer length
        raise InputError(f"invalid JSON: {exc}") from exc
    return document_from_obj(obj)


# -- report / verify -------------------------------------------------------

# each section of the printed report in print order (`_FIELDS`): its name, its entries'
# Undefined reason, and per entry its name there (None for V and R) and its path, which is
# its --corrupt key ('V', 'Q.01', 's.0;12')
_SECTIONS = [(section, reason, [(name, f"{section}.{name}" if name else section)
                                for key in keys or (None,)
                                for name in [key_name and key_name(key)]])
             for _, keys, section, key_name, reason in _FIELDS]
_ENTRY_KEYS = {path: n for n, (_, path) in enumerate(
    entry for _, _, entries in _SECTIONS for entry in entries)}


def _report_obj(spec: FieldSpec, table, options: ReportOptions) -> dict:
    """The printed report of a canonical table: each entry n, n/d or {"undefined": reason}."""
    out, rest = {"field": _field_spec_obj(spec)}, iter(table)
    for section, reason, entries in _SECTIONS if options.skew else _SECTIONS[:-1]:  # skew last
        printed = {}
        for (name, path), (num, den) in zip(entries, rest):  # the section's share of `table`
            try:
                printed[name] = _literal(num, den) if den else {"undefined": reason}
            except LiteralTooLong as exc:
                raise InputError(f"report entry {path}: {exc}") from exc
        out[section] = printed if name else printed[None]  # V and R print one entry
    return out


def _results_obj(rows, statuses: list) -> dict:
    """The printed verdicts: each row's identity and instance with its status, and their counts."""
    return {"verdicts": [{"identity": row[0], "instance": row[1], "status": status}
                         for row, status in zip(rows, statuses)],
            "summary": {status: statuses.count(status) for status in (PASS, FAIL, INAPPLICABLE)}}


def _right_corner(spec: FieldSpec, gram, table) -> tuple:
    from .corner import _RIGHT_CORNER, _corner_parts, _right_corner_parts
    try:
        return _RIGHT_CORNER, _right_corner_parts(spec._red, table, _corner_parts(*gram))
    except (NotTriRectangular, DegenerateParams) as exc:
        raise InputError(f"tri_rectangular: {exc}") from exc


def run_report(doc: InputDocument, run=_untimed) -> dict:
    spec = doc.form.spec
    gram = run("analyze", _gram, doc.form, *doc.coordinates)
    table = run("analyze", _report_table, spec, *gram)
    out = run("serialise", _report_obj, spec, table, doc.options)
    if doc.options.checks:
        out["identities"] = run("serialise", _results_obj, _IDENTITIES,
                                run("verify", _verify_parts, spec._red, table))
    if doc.options.tri_rectangular:
        out["tri_rectangular"] = run("serialise", _results_obj,
                                     *run("right corner", _right_corner, spec, gram, table))
    return out


def _corrupt(spec: FieldSpec, table: list, key: str) -> None:
    """Adds 1 to the defined entry of the canonical `table` printed as `key`, e.g. 'E.01'
    or 'V': (n, d) becomes (n + d, d), reduced mod p over F_p."""
    n = _ENTRY_KEYS.get(key)
    if n is None:
        raise InputError(f"--corrupt {key}: unknown entry")
    num, den = table[n]
    if den == 0:
        raise InputError(f"--corrupt {key}: entry is undefined")
    table[n] = spec._red(num + den), den


def run_verify(doc: InputDocument, corrupt: str | None = None,
               run=_untimed) -> tuple[dict, int]:
    spec = doc.form.spec
    gram = run("analyze", _gram, doc.form, *doc.coordinates)
    table = run("analyze", _report_table, spec, *gram)
    if corrupt is not None:
        _corrupt(spec, table, corrupt)
    verdicts = _IDENTITIES, run("verify", _verify_parts, spec._red, table)  # rows, statuses
    if doc.options.tri_rectangular:  # each followed by the right corner's, in a new sequence
        verdicts = map(add, verdicts, run("right corner", _right_corner, spec, gram, table))
    out = run("serialise", _results_obj, *verdicts)
    return out, 1 if out["summary"][FAIL] else 0

