"""`report` and `verify`: an input document parsed to the integers the kernel works on, its
canonical table, and the printed report and verdicts.

The right corner (`corner`) is imported only for a document with the `tri_rectangular`
option, and the `FieldElement` library (`affine`, `trig`) only by `InputDocument.tetrahedron`.
The writers of the library's objects (`document_to_obj`, `report_to_obj`, `results_to_obj`,
`corrupt_entry`) are in `trig`.
"""

from __future__ import annotations

import json

from .blinalg import DegenerateForm, Record, SymmetricForm
from .cli import _FORM_KEYS, InputError, _field_spec_obj, _untimed
from .field import (_LITERAL_BOUND, MAX_LITERAL_DIGITS, FieldError, FieldSpec, _literal_parts,
                    _over_common_den)
from .tetra import (_FIELDS, FAIL, INAPPLICABLE, PASS, DegenerateParams, NotTriRectangular,
                    _identity_verdicts, _report_table)


class ReportOptions(Record):
    __slots__ = ("checks", "skew", "tri_rectangular")

    def __init__(self, checks: bool = False, skew: bool = True, tri_rectangular: bool = False):
        self.checks, self.skew, self.tri_rectangular = checks, skew, tri_rectangular


class InputDocument(Record):
    __slots__ = ("form", "options", "coordinates")  # (L, the points' 12 coordinates times L)

    @property
    def tetrahedron(self) -> Tetrahedron:
        """The points and form as a library `Tetrahedron`, built on each call."""
        from .affine import Point3
        from .trig import Tetrahedron
        (scale, coords), ratio = self.coordinates, self.form.spec._ratio
        return Tetrahedron(*(Point3(*(ratio(c, scale) for c in coords[i:i + 3]))
                             for i in range(0, 12, 3)), self.form)


# -- input documents -------------------------------------------------------

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


def _parts_from_obj(obj, spec: FieldSpec, path: str) -> tuple[int, int]:
    if not isinstance(obj, str):
        raise InputError(f"{path}: field elements must be literal strings")
    try:
        return _literal_parts(obj, spec)
    except FieldError as exc:
        raise InputError(f"{path}: {exc}") from exc


def document_from_obj(obj) -> InputDocument:
    if not isinstance(obj, dict):
        raise InputError("top level: expected a JSON object")
    spec = _field_spec_from_obj(obj.get("field"), "field")

    form_obj = obj.get("form")
    if not isinstance(form_obj, dict):
        raise InputError("form: expected an object with entries a1,a2,a3,b1,b2,b3")
    entries = []
    for key in _FORM_KEYS:
        if key not in form_obj:
            raise InputError(f"form.{key}: missing entry")
        entries.append(_parts_from_obj(form_obj[key], spec, f"form.{key}"))
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
        parts += [_parts_from_obj(triple[j], spec, f"points[{i}][{j}]") for j in range(3)]
    # the kernel works on these integers (over F_p, residues): bound them as literals are
    scale, coords = _over_common_den(parts)
    for path, ints in {"form": (form._scale, *form._ints), "points": (scale, *coords)}.items():
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

# every entry, in print order (`_ENTRIES`): its section, its name there (None for V and R),
# its path, which is its --corrupt key ('V', 'Q.01', 's.0;12'), and its Undefined reason
_PRINTED = [(section, name, f"{section}.{name}" if name else section, reason)
            for _, keys, section, key_name, reason in _FIELDS for key in keys or (None,)
            for name in [key_name and key_name(key)]]
_ENTRY_KEYS = {path: n for n, (_, _, path, _) in enumerate(_PRINTED)}


def _report_obj(spec: FieldSpec, table, options: ReportOptions) -> dict:
    """The printed report of a canonical table: each entry n, n/d or {"undefined": reason}."""
    out = {"field": _field_spec_obj(spec)}
    for (section, name, path, reason), (num, den) in zip(_PRINTED, table):
        if section == "skew" and not options.skew:
            continue
        if den and max(num, -num, den) >= _LITERAL_BOUND:
            raise InputError(f"report entry {path}: value has over {MAX_LITERAL_DIGITS} digits")
        entry = str(num) if den == 1 else f"{num}/{den}" if den else {"undefined": reason}
        if name is None:
            out[section] = entry
        else:
            out.setdefault(section, {})[name] = entry
    return out


def _results_obj(verdicts: list) -> dict:
    """The printed verdicts, from (identity, instance, status) triples."""
    statuses = [status for _, _, status in verdicts]
    return {"verdicts": [{"identity": identity, "instance": instance, "status": status}
                         for identity, instance, status in verdicts],
            "summary": {status: statuses.count(status) for status in (PASS, FAIL, INAPPLICABLE)}}


def _right_corner(doc: InputDocument, table) -> list:
    from .corner import _corner_parts, _right_corner_parts
    try:
        return _right_corner_parts(doc.form.spec._red, table,
                                   _corner_parts(doc.form, *doc.coordinates))
    except (NotTriRectangular, DegenerateParams) as exc:
        raise InputError(f"tri_rectangular: {exc}") from exc


def run_report(doc: InputDocument, run=_untimed) -> dict:
    spec = doc.form.spec
    table = run("analyze", _report_table, doc.form, *doc.coordinates)
    out = run("serialise", _report_obj, spec, table, doc.options)
    if doc.options.checks:
        out["identities"] = run("serialise", _results_obj,
                                run("verify", _identity_verdicts, spec._red, table))
    if doc.options.tri_rectangular:
        out["tri_rectangular"] = run("serialise", _results_obj,
                                     run("right corner", _right_corner, doc, table))
    return out


def _corrupt(spec: FieldSpec, table: list, key: str) -> int:
    """Adds 1 to the defined entry of the canonical `table` printed as `key`, e.g. 'E.01'
    or 'V': (n, d) becomes (n + d, d), reduced mod p over F_p.  Returns its index."""
    n = _ENTRY_KEYS.get(key)
    if n is None:
        raise InputError(f"--corrupt {key}: unknown entry")
    num, den = table[n]
    if den == 0:
        raise InputError(f"--corrupt {key}: entry is undefined")
    table[n] = spec._red(num + den), den
    return n


def run_verify(doc: InputDocument, corrupt: str | None = None,
               run=_untimed) -> tuple[dict, int]:
    spec = doc.form.spec
    table = run("analyze", _report_table, doc.form, *doc.coordinates)
    if corrupt is not None:
        _corrupt(spec, table, corrupt)
    verdicts = run("verify", _identity_verdicts, spec._red, table)
    if doc.options.tri_rectangular:
        verdicts += run("right corner", _right_corner, doc, table)
    out = run("serialise", _results_obj, verdicts)
    return out, 1 if out["summary"][FAIL] else 0

