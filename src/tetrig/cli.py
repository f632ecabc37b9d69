"""Command-line surface: exact reports, identity verification, and fuzzing.

Interchange documents are JSON with every field element carried as a
string in the element-literal grammar, so exact rationals and explicit
field membership survive the round trip.  Output is byte-stable for
identical input.  Exit codes: 0 success, 1 identity failure, 2 invalid
input or configuration.

This module is the command line only.  `main` imports the code of the command it runs:
`document` for `report` and `verify`, `fuzz` for `fuzz`; neither is loaded by the other's
launch, nor by importing this module.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter, process_time

from . import _resolver
# `FieldSpec`, `SymmetricForm` and `parse_element` stay bound here for `bench/run.py`
from .blinalg import SymmetricForm
from .field import FieldSpec, parse_element  # noqa: F401

_FORM_KEYS = ("a1", "a2", "a3", "b1", "b2", "b3")


class InputError(Exception):
    """Invalid input document or configuration; maps to exit code 2."""


def _untimed(phase: str, fn, *args):
    """Default `run` of run_report, run_verify and run_fuzz, which call each phase
    as run(phase, fn, *args); `main` passes one that also times it."""
    return fn(*args)


def _field_spec_obj(spec: FieldSpec) -> dict:
    return {"kind": "rational"} if spec.is_rational else {"kind": "prime", "p": spec.p}


def _document_obj(form: SymmetricForm, points: list) -> dict:
    """Replayable input document of `form` and four points given as rows of literals: what
    `report` and `verify` read, and what a fuzz failure record holds."""
    return {
        "field": _field_spec_obj(form.spec),
        "form": {key: entry.literal() for key, entry in zip(_FORM_KEYS, form.entries())},
        "points": points,
    }


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


def main(argv=None, startup: float | None = None) -> int:
    """Run the CLI; `startup` is the seconds `__main__` took to import this module, for
    --timings, whose `import` line adds the import of the command's module to it."""
    args = _build_parser().parse_args(argv)
    start = perf_counter()
    if args.command == "fuzz":
        from . import fuzz as command
    else:
        from . import document as command
    timings = {}  # phase -> {"ms": wall milliseconds, other figures}, for --timings
    if startup is not None:
        timings["import"] = {"ms": (startup + perf_counter() - start) * 1000,
                             "process_cpu_ms": process_time() * 1000}

    def run(phase: str, fn, *args):
        start = perf_counter()
        out = fn(*args)
        timings.setdefault(phase, {"ms": 0.0})["ms"] += (perf_counter() - start) * 1000
        return out

    try:
        if args.command != "fuzz":
            doc = run("parse", command.load_document, _read_input(args.input))
            out, code = ((command.run_report(doc, run), 0) if args.command == "report" else
                         command.run_verify(doc, args.corrupt, run))
            run("serialise", _write_output, args.output, out)
            return code
        cfg = command.FuzzConfig(prime=args.prime, samples=args.samples, seed=args.seed,
                                 reject_degenerate=not args.allow_degenerate,
                                 random_form=args.random_form, workers=args.workers)
        summary, code = command.run_fuzz(cfg, run)
        timings["samples"].update(processes=command._processes(cfg),
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


# the names that moved to the command modules, and the library's names that `bench/run.py
# --trace 1` patches here, resolve at this address on first use
__getattr__ = _resolver(globals(), {
    "document": ("ReportOptions", "InputDocument", "_field_spec_from_obj", "_parts_from_obj",
                 "document_from_obj", "load_document", "document_to_obj", "_PRINTED",
                 "_ENTRY_KEYS", "_report_obj", "report_to_obj", "_results_obj", "results_to_obj",
                 "_right_corner", "run_report", "_corrupt", "corrupt_entry", "run_verify"),
    "fuzz": ("FUZZ_IDENTITY_NAMES", "FuzzConfig", "_sample_tetrahedron", "_draw_obj",
             "_run_sample", "MIN_SAMPLES_PER_PROCESS", "pool_size", "_processes", "_fold",
             "_run_span", "run_fuzz"),
    "trig": ("analyze", "verify_identities", "skew_quadrance", "tri_rectangular_checks",
             "CheckResults", "InvariantReport")})
