"""Command-line surface: exact reports, identity verification, and fuzzing.

Interchange documents are JSON with every field element carried as a
string in the element-literal grammar, so exact rationals and explicit
field membership survive the round trip.  Output is byte-stable for
identical input.  Exit codes: 0 success, 1 identity failure, 2 invalid
input or configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import Counter
from functools import partial
from importlib import import_module
from time import perf_counter

from .affine import Point3
from .blinalg import DegenerateForm, Record, SymmetricForm
from .field import (_LITERAL_BOUND, MAX_LITERAL_DIGITS, FieldElement, FieldError, FieldSpec,
                    parse_element)
# report, verify and fuzz work on the kernel's parts; `analyze`, `verify_identities`,
# `skew_quadrance` and `tri_rectangular_checks` stay bound for `bench/run.py --trace 1`
from .tetra import (_ENTRIES, _FIELDS, _FUZZ_ROWS, _INDEX, FAIL, INAPPLICABLE, PASS,
                    CheckResults, DegenerateParams, InvariantReport, NotTriRectangular,
                    Tetrahedron, _analyze_parts, _identity_verdicts, _report_parts,
                    _report_table, _right_corner_parts, _scaled_coordinates, _skew_parts,
                    _verify_parts, analyze, corner_params, skew_quadrance,
                    tri_rectangular_checks, verify_identities)

FUZZ_IDENTITY_NAMES = tuple(dict.fromkeys(row[0] for row in _FUZZ_ROWS))

_FORM_KEYS = ("a1", "a2", "a3", "b1", "b2", "b3")


class InputError(Exception):
    """Invalid input document or configuration; maps to exit code 2."""


class ReportOptions(Record):
    __slots__ = ("checks", "skew", "tri_rectangular")

    def __init__(self, checks: bool = False, skew: bool = True, tri_rectangular: bool = False):
        self.checks, self.skew, self.tri_rectangular = checks, skew, tri_rectangular


class InputDocument(Record):
    __slots__ = ("tetrahedron", "options", "coordinates")  # `_scaled_coordinates` of the points


class FuzzConfig(Record):
    __slots__ = ("prime", "samples", "seed", "reject_degenerate", "random_form", "workers")

    def __init__(self, prime: int, samples: int, seed: int, reject_degenerate: bool = True,
                 random_form: bool = False, workers: int = 1):
        self.prime, self.samples, self.seed, self.workers = prime, samples, seed, workers
        self.reject_degenerate, self.random_form = reject_degenerate, random_form


def _untimed(phase: str, fn, *args):
    """Default `run` of run_report, run_verify and run_fuzz, which call each phase
    as run(phase, fn, *args); `main` passes one that also times it."""
    return fn(*args)


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


def _element_from_obj(obj, spec: FieldSpec, path: str) -> FieldElement:
    if not isinstance(obj, str):
        raise InputError(f"{path}: field elements must be literal strings")
    try:
        return parse_element(obj, spec)
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
        entries.append(_element_from_obj(form_obj[key], spec, f"form.{key}"))
    try:
        form = SymmetricForm(*entries)
    except DegenerateForm as exc:
        raise InputError(f"form: {exc}") from exc

    points_obj = obj.get("points")
    if not isinstance(points_obj, list) or len(points_obj) != 4:
        raise InputError("points: expected a list of 4 coordinate triples")
    points = []
    for i, triple in enumerate(points_obj):
        if not isinstance(triple, list) or len(triple) != 3:
            raise InputError(f"points[{i}]: expected a triple of literals")
        coords = [_element_from_obj(triple[j], spec, f"points[{i}][{j}]") for j in range(3)]
        points.append(Point3(*coords))
    # the kernel works on these integers (over F_p, residues): bound them as literals are
    scale, coords = _scaled_coordinates(points)
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

    tet = Tetrahedron(points[0], points[1], points[2], points[3], form)
    return InputDocument(tet, options, (scale, coords))


def load_document(text: str) -> InputDocument:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, nesting or integer length
        raise InputError(f"invalid JSON: {exc}") from exc
    return document_from_obj(obj)


def _field_spec_obj(spec: FieldSpec) -> dict:
    return {"kind": "rational"} if spec.is_rational else {"kind": "prime", "p": spec.p}


def _document_obj(form: SymmetricForm, points: list) -> dict:
    """Replayable input document of `form` and four points given as rows of literals."""
    return {
        "field": _field_spec_obj(form.spec),
        "form": {key: entry.literal() for key, entry in zip(_FORM_KEYS, form.entries())},
        "points": points,
    }


def document_to_obj(tet: Tetrahedron, options: ReportOptions | None = None) -> dict:
    """Replayable input document for a tetrahedron."""
    obj = _document_obj(tet.form, [[c.literal() for c in p.coordinates()] for p in tet.points])
    if options is not None:
        obj["options"] = dict(zip(ReportOptions.__slots__, options._fields()))
    return obj


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


def report_to_obj(report: InvariantReport, options: ReportOptions) -> dict:
    return _report_obj(report.tetrahedron.spec, _report_parts(report), options)


def _results_obj(verdicts: list) -> dict:
    """The printed verdicts, from (identity, instance, status) triples."""
    statuses = [status for _, _, status in verdicts]
    return {"verdicts": [{"identity": identity, "instance": instance, "status": status}
                         for identity, instance, status in verdicts],
            "summary": {status: statuses.count(status) for status in (PASS, FAIL, INAPPLICABLE)}}


def results_to_obj(results: CheckResults) -> dict:
    return _results_obj([verdict._fields() for verdict in results.verdicts])


def _right_corner(doc: InputDocument, table) -> list:
    try:
        params = corner_params(doc.tetrahedron, doc.coordinates)
    except (NotTriRectangular, DegenerateParams) as exc:
        raise InputError(f"tri_rectangular: {exc}") from exc
    return _right_corner_parts(doc.tetrahedron.spec._red, table, params)


def run_report(doc: InputDocument, run=_untimed) -> dict:
    tet = doc.tetrahedron
    table = run("analyze", _report_table, tet.form, *doc.coordinates)
    out = run("serialise", _report_obj, tet.spec, table, doc.options)
    if doc.options.checks:
        out["identities"] = run("serialise", _results_obj,
                                run("verify", _identity_verdicts, tet.spec._red, table))
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


def corrupt_entry(report: InvariantReport, key: str) -> None:
    """Debug aid: add 1 to the defined report entry printed as `key`, e.g. 'E.01' or 'V'."""
    spec, table = report.tetrahedron.spec, _report_parts(report)
    n = _corrupt(spec, table, key)
    (field, entry_key, _), entry = _ENTRIES[n], spec._ratio(*table[n])
    if entry_key is None:
        setattr(report, field, entry)
    else:
        getattr(report, field)[entry_key] = entry


def run_verify(doc: InputDocument, corrupt: str | None = None,
               run=_untimed) -> tuple[dict, int]:
    tet = doc.tetrahedron
    table = run("analyze", _report_table, tet.form, *doc.coordinates)
    if corrupt is not None:
        _corrupt(tet.spec, table, corrupt)
    verdicts = run("verify", _identity_verdicts, tet.spec._red, table)
    if doc.options.tri_rectangular:
        verdicts += run("right corner", _right_corner, doc, table)
    out = run("serialise", _results_obj, verdicts)
    return out, 1 if out["summary"][FAIL] else 0


# -- fuzzing ----------------------------------------------------------------

def _sample_tetrahedron(rng: random.Random, p: int) -> list[int]:
    """One draw: the twelve residues mod p of a tetrahedron's points, three per point."""
    return [rng.randrange(p) for _ in range(12)]


def _draw_obj(form: SymmetricForm, coords: list[int]) -> dict:
    """`document_to_obj` of a draw, written from its residues, which print as their literals."""
    return _document_obj(form, [[str(r) for r in coords[i:i + 3]] for i in range(0, 12, 3)])


def _run_sample(cfg: FuzzConfig, index: int):
    """One sample: a Counter of its verdicts by (identity, status) and of its rejections
    by "singular_forms" and "degenerate_tetrahedra", and a list of its failure record, if
    any.  Each draw's residues go through the kernel, whose V numerator decides degeneracy, and
    the accepted draw's (num, den) parts are checked as they are, each defined skew part
    against the kernel's skew formula, `_skew_parts`, at points moved along the edges."""
    # per-sample stream derived from (seed, index): the summary cannot
    # depend on how samples are scheduled across workers
    rng = random.Random((cfg.seed << 32) + index)
    p = cfg.prime
    spec = FieldSpec.prime(p)
    red, counts = spec._red, Counter()
    form = None if cfg.random_form else SymmetricForm.identity(spec)
    while form is None:
        try:
            form = SymmetricForm(*(spec.element(rng.randrange(p)) for _ in range(6)))
        except DegenerateForm:
            counts["singular_forms"] += 1
    try:
        while True:
            # the draw is bound before anything that can raise: a fault record needs it
            coords = _sample_tetrahedron(rng, p)
            parts = _analyze_parts(form, 1, coords)
            if not cfg.reject_degenerate or red(parts[_INDEX["quadrume"]][0]) != 0:
                break
            counts["degenerate_tetrahedra"] += 1
        # each defined skew entry again, from points moved along its edges by a drawn t1, t2
        moved = [_skew_parts(form, 1, coords, pairing, rng.randrange(p), rng.randrange(p))
                 if red(parts[n][1]) else (1, 0)
                 for pairing, n in _INDEX["skew_quadrances"].items()]
        statuses = _verify_parts(red, parts, _FUZZ_ROWS, moved)
    except (FieldError, RuntimeError) as exc:
        # an internal fault: record the sample with the draw it was on, tally no verdict, go on
        return counts, [{"sample": index, "input": _draw_obj(form, coords),
                         "error": {"exception": type(exc).__name__, "message": str(exc)}}]
    counts.update((row[0], status) for row, status in zip(_FUZZ_ROWS, statuses))
    failed = [{"identity": row[0], "instance": row[1]}
              for row, status in zip(_FUZZ_ROWS, statuses) if status == FAIL]
    return counts, ([{"sample": index, "input": _draw_obj(form, coords), "failed": failed}]
                    if failed else [])


# fewest samples worth a pool process: below 2 * MIN_SAMPLES_PER_PROCESS a fuzz run maps in
# process, as the pool's start-up costs more than a second core saves (README, --workers)
MIN_SAMPLES_PER_PROCESS = 200


def pool_size(workers: int, samples: int, cpus: int) -> int:
    """Processes for a fuzz run: as asked, but at most one per usable CPU and one per
    MIN_SAMPLES_PER_PROCESS samples."""
    return max(1, min(workers, samples // MIN_SAMPLES_PER_PROCESS, cpus))


def _processes(cfg: FuzzConfig) -> int:
    """`pool_size` of `cfg` on this process's usable CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return pool_size(cfg.workers, cfg.samples, cpus or 1)


def _fold(results) -> tuple[Counter, list]:
    """Adds the Counters and joins the failure lists, in sample order, as results arrive."""
    counts, failures = Counter(), []
    for part_counts, part_failures in results:
        counts.update(part_counts)
        failures += part_failures
    return counts, failures


def _run_span(cfg: FuzzConfig, span: range) -> tuple[Counter, list]:
    """`_fold` of the samples of `span`, a range of sample indices."""
    return _fold(map(partial(_run_sample, cfg), span))


def run_fuzz(cfg: FuzzConfig, run=_untimed) -> tuple[dict, int]:
    try:
        FieldSpec.prime(cfg.prime)
    except FieldError as exc:
        raise InputError(f"--prime: {exc}") from exc
    if cfg.samples < 0:
        raise InputError("--samples: expected a non-negative count")
    if cfg.seed < 0:  # random.Random(-k) replays the stream of k
        raise InputError("--seed: expected a non-negative integer")
    if cfg.workers < 1:
        raise InputError("--workers: expected a positive count")

    # one range of consecutive samples per process, mapped by `_run_span` in process or in a worker
    workers = _processes(cfg)
    size = max(1, -(-cfg.samples // workers))
    spans = [range(i, min(i + size, cfg.samples)) for i in range(0, cfg.samples, size)]
    span = partial(_run_span, cfg)
    if workers <= 1:
        counts, failures = run("samples", _fold, map(span, spans))
    else:
        # start-up: import the pool (report, verify and one-worker fuzz never do), create it
        # and hand each worker its span, which starts them
        futures = run("pool start-up", import_module, "concurrent.futures")
        with run("pool start-up", futures.ProcessPoolExecutor, workers) as pool:
            counts, failures = run("samples", _fold, run("pool start-up", pool.map, span, spans))

    summary = {
        "config": {"prime": cfg.prime, "samples": cfg.samples, "seed": cfg.seed,
                   "reject_degenerate": cfg.reject_degenerate,
                   "random_form": cfg.random_form},
        "rejected": {key: counts[key] for key in ("degenerate_tetrahedra", "singular_forms")},
        "identities": {name: {"checked": sum(counts[name, s] for s in (PASS, FAIL, INAPPLICABLE)),
                              "passed": counts[name, PASS],
                              "inapplicable": counts[name, INAPPLICABLE]}
                       for name in FUZZ_IDENTITY_NAMES},
        "failures": failures,
    }
    return summary, (1 if failures else 0)


# -- entry point -------------------------------------------------------------

def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_output(path: str | None, obj: dict) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetrig",
        description="Exact tetrahedron trigonometry over Q or an odd prime field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="compute the full invariant report")
    verify = sub.add_parser("verify", help="check every identity on one tetrahedron")
    for command in (report, verify):
        command.add_argument("--input", help="input document path (default: stdin)")
        command.add_argument("--output", help="output path (default: stdout)")
    verify.add_argument("--corrupt", metavar="ENTRY",
                        help="debug: add 1 to one report entry (e.g. E.01) before checking")

    fuzz = sub.add_parser("fuzz", help="randomized identity check over a prime field")
    fuzz.add_argument("--prime", type=int, required=True, help="odd prime modulus")
    fuzz.add_argument("--samples", type=int, required=True, help="number of tetrahedra")
    fuzz.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    fuzz.add_argument("--allow-degenerate", action="store_true",
                      help="keep quadrume-zero samples instead of resampling")
    fuzz.add_argument("--random-form", action="store_true",
                      help="sample a non-degenerate form per sample instead of the identity")
    fuzz.add_argument("--workers", type=int, default=1,
                      help="worker processes; the summary does not depend on this")
    fuzz.add_argument("--output", help="output path (default: stdout)")
    for command in (report, verify, fuzz):
        command.add_argument("--timings", action="store_true",
                             help="write one JSON line of timings per phase to stderr")
    return parser


def main(argv=None, startup=None) -> int:
    """Run the CLI; `startup` is (seconds importing this module, process CPU
    seconds so far), as timed by `__main__` for --timings."""
    args = _build_parser().parse_args(argv)
    timings = {}  # phase -> {"ms": wall milliseconds, other figures}, for --timings
    if startup is not None:
        timings["import"] = {"ms": startup[0] * 1000, "process_cpu_ms": startup[1] * 1000}

    def run(phase: str, fn, *args):
        start = perf_counter()
        out = fn(*args)
        timings.setdefault(phase, {"ms": 0.0})["ms"] += (perf_counter() - start) * 1000
        return out

    try:
        if args.command != "fuzz":
            doc = run("parse", load_document, _read_input(args.input))
            out, code = ((run_report(doc, run), 0) if args.command == "report" else
                         run_verify(doc, args.corrupt, run))
            run("serialise", _write_output, args.output, out)
            return code
        cfg = FuzzConfig(prime=args.prime, samples=args.samples, seed=args.seed,
                         reject_degenerate=not args.allow_degenerate,
                         random_form=args.random_form, workers=args.workers)
        summary, code = run_fuzz(cfg, run)
        timings["samples"].update(processes=_processes(cfg),
                                  samples_per_s=cfg.samples * 1000 / timings["samples"]["ms"])
        run("serialise", _write_output, args.output, summary)
        return code
    except (InputError, OSError, UnicodeDecodeError) as exc:  # unreadable or not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.timings:
            for phase, figures in timings.items():
                figures = {name: round(value, 3) for name, value in figures.items()}
                print(json.dumps({"phase": phase, **figures}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
