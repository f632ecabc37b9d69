"""Command-line surface: exact reports, identity verification, and fuzzing.

Interchange documents are JSON with every field element carried as a
string in the element-literal grammar, so exact rationals and explicit
field membership survive the round trip.  Output is byte-stable for
identical input.  Exit codes: 0 success, 1 identity failure, 2 invalid
input or configuration.

This module is the command line only; the document format is `document`'s.  `main` imports
the command it runs: `document` for `report` and `verify`, `fuzz` for `fuzz`, which imports
`document` only to write a failure record.  Importing this module loads neither.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
from time import perf_counter, process_time

from . import _resolver
# bound here for `bench/run.py`'s set-up, which reads `parse_element` through the hook at the end
from .blinalg import SymmetricForm
from .field import FieldSpec


class InputError(Exception):
    """Invalid command line, input document or configuration; maps to exit code 2."""


def _untimed(phase: str, fn, *args):
    """Default `run` of run_report, run_verify and run_fuzz, which call each phase
    as run(phase, fn, *args); `main` passes one that also times it."""
    return fn(*args)


# -- entry point -------------------------------------------------------------

def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_output(path: str | None, text: str) -> None:
    """Write `text` to the file at `path`, or with none or "-" to stdout, flushed: `launch` ends
    the process with no stdout byte unwritten.  On a closed stdout, fd 1 becomes os.devnull, so
    that no later flush fails (as the `signal` docs' note on SIGPIPE advises), and the error goes
    on to `main`'s handler."""
    if path in (None, "-"):
        try:
            print(text, end="", flush=True)
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            raise
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


# each command's options and their defaults: False marks a switch, and `int` an integer that
# must be given; `_INTEGERS` take an int
_OPTIONS = {"report": {"input": None, "output": None, "timings": False},
            "verify": {"input": None, "output": None, "corrupt": None, "timings": False},
            "fuzz": {"prime": int, "samples": int, "seed": 0, "allow_degenerate": False,
                     "random_form": False, "workers": 1, "output": None, "timings": False}}
_INTEGERS = ("prime", "samples", "seed", "workers")
_USAGE = """usage: tetrig report [--input PATH] [--output PATH] [--timings]
       tetrig verify [--input PATH] [--output PATH] [--corrupt ENTRY] [--timings]
       tetrig fuzz --prime P --samples N [--seed 0] [--workers 1] [--allow-degenerate]
                   [--random-form] [--output PATH] [--timings]
A PATH of - or none is stdin or stdout.  --corrupt adds 1 to one report entry (e.g. E.01)
before the check; --allow-degenerate keeps quadrume-zero samples; --random-form draws a form
per sample; --timings writes phase timings to stderr.  An option may be cut to a unique
prefix and given as --option=VALUE.  Exit 0: success, 1: an identity failed, 2: bad input."""


def _parse_args(argv):
    """The command of `argv` under "command" and each of its options under its name, '_' for
    '-'.  A unique prefix names a flag; its value follows '=' or is the next token, whatever that
    holds (`--input -`, `--seed -1`); a repeated option keeps its last value."""
    command, *tokens = argv or [None]
    if command not in _OPTIONS:
        raise InputError(f"expected a command, report, verify or fuzz, not {command!r}")
    options = _OPTIONS[command]
    args, tokens = {"command": command, **options}, iter(tokens)
    for token in tokens:
        flag, eq, value = token.partition("=")
        names = [name for name in options if f"--{name}".replace("_", "-").startswith(flag)]
        if len(names) != 1:
            raise InputError(f"{command}: unknown or ambiguous option {token!r}")
        name = names[0]
        value = (not eq or None) if options[name] is False else value if eq else next(tokens, None)
        if value is None:  # a value missing, or one given to a switch
            raise InputError(f"{token}: expected {'no' if eq else 'a'} value")
        try:
            args[name] = int(value) if name in _INTEGERS else value
        except ValueError:
            raise InputError(f"--{name}: expected an integer, not {value!r}") from None
    if int in args.values():
        raise InputError("fuzz: --prime and --samples are required")
    return args


def main(argv=None, startup: float | None = None) -> int:
    """Run the CLI; `startup` is the seconds `__main__` took to import this module, for
    --timings, whose `import` line adds the import of the command's module to it."""
    args = {}  # empty until the command line parses: an error then prints the usage too
    argv = sys.argv[1:] if argv is None else argv
    timings = {}  # phase -> {"ms": wall milliseconds, other figures}, for --timings

    def run(phase: str, fn, *args):
        start = perf_counter()
        out = fn(*args)
        timings.setdefault(phase, {"ms": 0.0})["ms"] += (perf_counter() - start) * 1000
        return out

    try:
        if {"-h", "--h", "--he", "--hel", "--help"} & {*argv}:  # --help or a prefix of it
            args = {"command": "help"}  # so that a closed stdout prints no usage
            _write_output(None, _USAGE + "\n")
            return 0
        args = _parse_args(argv)
        start = perf_counter()
        if args["command"] == "fuzz":
            from . import fuzz as command
        else:
            from . import document as command
        if startup is not None:
            timings["import"] = {"ms": (startup + perf_counter() - start) * 1000,
                                 "process_cpu_ms": process_time() * 1000}
        if args["command"] == "fuzz":
            cfg = command.FuzzConfig(args["prime"], args["samples"], args["seed"],
                                     not args["allow_degenerate"], args["random_form"],
                                     args["workers"])
            out, code = command.run_fuzz(cfg, run)
            timings["samples"].update(processes=command._processes(cfg),
                                      samples_per_s=cfg.samples * 1000 / timings["samples"]["ms"])
        else:
            doc = run("parse", command.load_document, _read_input(args["input"]))
            out, code = ((command.run_report(doc, run), 0) if args["command"] == "report" else
                         command.run_verify(doc, args["corrupt"], run))
        run("serialise", lambda: _write_output(args["output"], json.dumps(out, indent=2) + "\n"))
        return code
    except (InputError, OSError, UnicodeDecodeError) as exc:  # unreadable or not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        if not args:
            print(_USAGE, file=sys.stderr)
        return 2
    finally:
        if args.get("timings"):
            for phase, figures in timings.items():
                figures = {name: round(value, 3) for name, value in figures.items()}
                print(json.dumps({"phase": phase, **figures}), file=sys.stderr)


def launch(startup=None):
    """`python -m tetrig` and the `tetrig` script: run `main` and end the process with its code.
    `main` has flushed stdout; once the atexit handlers have run and stderr is flushed,
    `os._exit` skips module teardown and the final collection, which do no work for the user.
    Under -X dev, there to show what finalization warns of, the process exits as usual."""
    code = main(None, startup)
    if sys.flags.dev_mode:
        raise SystemExit(code)
    atexit._run_exitfuncs()
    sys.stderr.flush()
    os._exit(code)


# read by `bench/run.py` here; ROADMAP item 1's benchmark retarget deletes them
__getattr__ = _resolver(globals(), {
    "document": ("load_document", "run_report", "run_verify"),
    "element": ("parse_element",),
    "fuzz": ("FuzzConfig", "run_fuzz", "_run_sample", "_sample_tetrahedron"),
    "trig": ("analyze", "verify_identities", "skew_quadrance", "tri_rectangular_checks",
             "report_to_obj", "results_to_obj")})
