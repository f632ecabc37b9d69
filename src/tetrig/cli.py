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
from .blinalg import DegenerateForm, Record, SymmetricForm, adj_cross_values, dot_values
from .field import (_LITERAL_BOUND, MAX_LITERAL_DIGITS, FieldElement, FieldError, FieldSpec,
                    LiteralTooLong, parse_element)
# `skew_quadrance` is not called here (a fuzz sample projects on residues, `_skew_projection`);
# it stays bound because `bench/run.py --trace 1` times `tetrig.cli.skew_quadrance` by name
from .tetra import (EDGES, FACE_SPREAD_KEYS, FACES, FAIL, IDENTITY_NAMES, INAPPLICABLE,
                    PASS, SKEW_PAIRINGS, VERTICES, CheckResults, DegenerateParams,
                    InvariantReport, NotTriRectangular, Tetrahedron, Verdict, _analyze_parts,
                    _decide, _scaled_coordinates, _verify_parts, analyze, is_defined,
                    pairing_name, skew_quadrance, tri_rectangular_checks, verify_identities)

FUZZ_IDENTITY_NAMES = IDENTITY_NAMES + ("skew-quadrance-projection",)

_FORM_KEYS = ("a1", "a2", "a3", "b1", "b2", "b3")


class InputError(Exception):
    """Invalid input document or configuration; maps to exit code 2."""


class ReportOptions(Record):
    __slots__ = ("checks", "skew", "tri_rectangular")

    def __init__(self, checks: bool = False, skew: bool = True, tri_rectangular: bool = False):
        self.checks, self.skew, self.tri_rectangular = checks, skew, tri_rectangular


class InputDocument(Record):
    __slots__ = ("tetrahedron", "options")


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
    if spec.is_rational:  # analyze works on these integers: bound them as literals are
        scale, coords = _scaled_coordinates(points)
        scaled = {"form": (form._scale, *form._ints), "points": (scale, *coords)}
        for path, ints in scaled.items():
            if max(max(ints), -min(ints)) >= _LITERAL_BOUND:
                raise InputError(f"{path}: an integer over the common denominator has over "
                                 f"{MAX_LITERAL_DIGITS} digits")

    options_obj = obj.get("options", {})
    if not isinstance(options_obj, dict):
        raise InputError("options: expected an object")
    options = ReportOptions()
    for name in ("checks", "skew", "tri_rectangular"):
        if name in options_obj:
            if not isinstance(options_obj[name], bool):
                raise InputError(f"options.{name}: expected a boolean")
            setattr(options, name, options_obj[name])

    tet = Tetrahedron(points[0], points[1], points[2], points[3], form)
    return InputDocument(tet, options)


def load_document(text: str) -> InputDocument:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, nesting or integer length
        raise InputError(f"invalid JSON: {exc}") from exc
    return document_from_obj(obj)


def _field_spec_obj(spec: FieldSpec) -> dict:
    if spec.is_rational:
        return {"kind": "rational"}
    return {"kind": "prime", "p": spec.p}


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
        obj["options"] = {"checks": options.checks, "skew": options.skew,
                          "tri_rectangular": options.tri_rectangular}
    return obj


# -- report / verify -------------------------------------------------------

# report sections in print order: section -> (InvariantReport field, {entry
# name: key}), or (field, None) for a section that is one entry
_SECTIONS = {
    "Q": ("quadrances", {"%d%d" % k: k for k in EDGES}),
    "A": ("quadreas", {"%d%d%d" % k: k for k in FACES}),
    "V": ("quadrume", None),
    "s": ("face_spreads", {"%d;%d%d" % k: k for k in FACE_SPREAD_KEYS}),
    "E": ("dihedral_spreads", {"%d%d" % k: k for k in EDGES}),
    "S": ("solid_spreads", {str(i): i for i in VERTICES}),
    "D": ("dual_solid_spreads", {str(i): i for i in VERTICES}),
    "R": ("ratio_constant", None),
    "skew": ("skew_quadrances", {pairing_name(k): k for k in SKEW_PAIRINGS}),
}
# every entry by its printed name, which is its --corrupt key ('V', 'Q.01',
# 's.0;12', ...): (field, key) of a table entry, (field, None) of a section
_ENTRY_KEYS = {section: (field, None)
               for section, (field, names) in _SECTIONS.items() if names is None}
_ENTRY_KEYS.update((f"{section}.{name}", (field, key))
                   for section, (field, names) in _SECTIONS.items() if names
                   for name, key in names.items())


def _entry_obj(entry, *path: str):
    if not is_defined(entry):
        return {"undefined": entry.reason}
    try:
        return entry.literal()
    except LiteralTooLong as exc:
        raise InputError(f"report entry {'.'.join(path)}: {exc}") from exc


def report_to_obj(report: InvariantReport, options: ReportOptions) -> dict:
    out = {"field": _field_spec_obj(report.tetrahedron.spec)}
    for section, (field, names) in _SECTIONS.items():
        if section != "skew" or options.skew:
            table = getattr(report, field)
            out[section] = (_entry_obj(table, section) if names is None else
                            {name: _entry_obj(table[key], section, name)
                             for name, key in names.items()})
    return out


def results_to_obj(results: CheckResults) -> dict:
    return {
        "verdicts": [{"identity": v.identity, "instance": v.instance, "status": v.status}
                     for v in results.verdicts],
        "summary": results.counts(),
    }


def _right_corner(report: InvariantReport) -> CheckResults:
    try:
        return tri_rectangular_checks(report)
    except (NotTriRectangular, DegenerateParams) as exc:
        raise InputError(f"tri_rectangular: {exc}") from exc


def run_report(doc: InputDocument, run=_untimed) -> dict:
    report = run("analyze", analyze, doc.tetrahedron)
    out = run("serialise", report_to_obj, report, doc.options)
    if doc.options.checks:
        out["identities"] = run("serialise", results_to_obj,
                                run("verify", verify_identities, report))
    if doc.options.tri_rectangular:
        out["tri_rectangular"] = run("serialise", results_to_obj,
                                     run("right corner", _right_corner, report))
    return out


def corrupt_entry(report: InvariantReport, key: str) -> None:
    """Debug aid: add 1 to the defined report entry printed as `key`, e.g. 'E.01' or 'V'."""
    if key not in _ENTRY_KEYS:
        raise InputError(f"--corrupt {key}: unknown entry")
    field, entry_key = _ENTRY_KEYS[key]
    table = getattr(report, field)
    entry = table if entry_key is None else table[entry_key]
    if not is_defined(entry):
        raise InputError(f"--corrupt {key}: entry is undefined")
    entry = entry + report.tetrahedron.spec.one()
    if entry_key is None:
        setattr(report, field, entry)
    else:
        table[entry_key] = entry


def run_verify(doc: InputDocument, corrupt: str | None = None,
               run=_untimed) -> tuple[dict, int]:
    report = run("analyze", analyze, doc.tetrahedron)
    if corrupt is not None:
        corrupt_entry(report, corrupt)
    verdicts = list(run("verify", verify_identities, report).verdicts)
    if doc.options.tri_rectangular:
        verdicts.extend(run("right corner", _right_corner, report).verdicts)
    combined = CheckResults(verdicts)
    return run("serialise", results_to_obj, combined), 1 if combined.failures else 0


# -- fuzzing ----------------------------------------------------------------

def _sample_tetrahedron(form: SymmetricForm, coords: list[int]) -> Tetrahedron:
    """The tetrahedron of one draw: twelve residues, three per point, over the field of `form`."""
    spec = form.spec
    points = [Point3.of(spec, *coords[i:i + 3]) for i in range(0, 12, 3)]
    return Tetrahedron(points[0], points[1], points[2], points[3], form)


def _draw_obj(form: SymmetricForm, coords: list[int]) -> dict:
    """`document_to_obj` of a draw, written from its residues, which print as their literals."""
    return _document_obj(form, [[str(r) for r in coords[i:i + 3]] for i in range(0, 12, 3)])


def _skew_projection(form: SymmetricForm, coords: list[int], pairing, t1: int, t2: int):
    """(num, den) of the skew quadrance of `pairing` ((a, b), (c, d)) over F_p, by moved
    points and a projection on the draw's residues: the gap w from a + t1 v1 to c + t2 v2,
    for the edge vectors v1 = ab and v2 = cd, projected onto their common perpendicular
    n = v1 x_B v2 has quadrance (n . w)^2 / Q(n)."""
    red, b = form.spec._red, form._ints
    (i, j), (k, l) = pairing

    def edge(start, end):
        return [coords[3 * end + c] - coords[3 * start + c] for c in range(3)]
    v1, v2 = edge(i, j), edge(k, l)
    n = tuple(map(red, adj_cross_values(form._adj, v1, v2)))
    w = [x + t2 * y - t1 * z for x, y, z in zip(edge(i, k), v2, v1)]
    nw = red(dot_values(b, n, w))
    return nw * nw, red(dot_values(b, n, n))


def _run_sample(cfg: FuzzConfig, index: int):
    """One sample: a Counter of its verdicts by (identity, status) and of its rejections
    by "singular_forms" and "degenerate_tetrahedra", and its failure record or None.
    Each draw goes through the kernel, whose V numerator decides degeneracy, and the
    accepted draw's (num, den) parts are checked as they are, each defined skew part
    against `_skew_projection` on the draw's residues."""
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
            # the residues are bound before anything that can raise: a fault record needs them
            coords = [rng.randrange(p) for _ in range(12)]
            parts = _analyze_parts(_sample_tetrahedron(form, coords))
            if not cfg.reject_degenerate or red(parts["quadrume"][0]) != 0:
                break
            counts["degenerate_tetrahedra"] += 1
        verdicts = list(_verify_parts(red, parts).verdicts)
        for pairing in SKEW_PAIRINGS:
            skew, status = parts["skew_quadrances"][pairing], INAPPLICABLE
            if red(skew[1]) != 0:
                t1, t2 = rng.randrange(p), rng.randrange(p)
                reference = _skew_projection(form, coords, pairing, t1, t2)
                status = _decide(red, 1, [reference], 1, [skew])
            verdicts.append(Verdict("skew-quadrance-projection", pairing_name(pairing), status))
    except (FieldError, RuntimeError) as exc:
        # an internal fault: record the sample with the draw it was on, tally no verdict, go on
        return counts, {"sample": index, "input": _draw_obj(form, coords),
                        "error": {"exception": type(exc).__name__, "message": str(exc)}}
    counts.update((v.identity, v.status) for v in verdicts)
    failed = [{"identity": v.identity, "instance": v.instance}
              for v in verdicts if v.status == FAIL]
    return counts, ({"sample": index, "input": _draw_obj(form, coords), "failed": failed}
                    if failed else None)


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
    """Adds the per-sample Counters and keeps the failures, in sample order, as results arrive."""
    counts, failures = Counter(), []
    for sample_counts, failure in results:
        counts.update(sample_counts)
        if failure is not None:
            failures.append(failure)
    return counts, failures


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

    workers = _processes(cfg)
    sample, indices = partial(_run_sample, cfg), range(cfg.samples)
    if workers <= 1:
        counts, failures = run("samples", _fold, map(sample, indices))
    else:
        # start-up: import the pool (report, verify and one-worker fuzz never do), create it
        # and hand each worker one run of consecutive samples (chunksize), which starts them
        futures = run("pool start-up", import_module, "concurrent.futures")
        with run("pool start-up", futures.ProcessPoolExecutor, workers) as pool:
            chunks = partial(pool.map, sample, chunksize=-(-cfg.samples // workers))
            counts, failures = run("samples", _fold, run("pool start-up", chunks, indices))

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
    report.add_argument("--input", help="input document path (default: stdin)")
    report.add_argument("--output", help="output path (default: stdout)")

    verify = sub.add_parser("verify", help="check every identity on one tetrahedron")
    verify.add_argument("--input", help="input document path (default: stdin)")
    verify.add_argument("--output", help="output path (default: stdout)")
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
        if args.command == "report":
            doc = run("parse", load_document, _read_input(args.input))
            run("serialise", _write_output, args.output, run_report(doc, run))
            return 0
        if args.command == "verify":
            doc = run("parse", load_document, _read_input(args.input))
            out, code = run_verify(doc, args.corrupt, run)
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
