"""One SHA-256 per group of CLI runs, to show that a change keeps the output bytes.

    python tools/output_digest.py [SRC]

imports `tetrig` from SRC (default: this checkout's `src/`) and runs `tetrig.cli.main`
in-process on a fixed document set, capturing stdout, stderr and the exit code of
each run.  Run it once against a parent checkout's `src/` and once against the
change's: equal lines mean equal bytes in that group.  The documents come from
`bench/corpus.py` and `tests/fixtures`, both read from this checkout, so the two
runs see the same inputs.  The groups:

- report, verify: `q_corpus(777, 150)`, 30 random-form `fp_corpus` documents (seed p) at
  each prime in PRIMES, and the six fixtures;
- tri-rectangular: report and verify of the same documents with the
  `tri_rectangular` option on, mostly the exit-2 path;
- corrupt: `verify --corrupt K` for every entry name K of the right-corner fixtures;
- fuzz: each of FUZZ_RUNS at `--workers 1` and `2`;
- fuzz-fault: each p=101 and p=7 run of FUZZ_RUNS at `--workers 1`, with
  `tetrig.tetra.solid_spread_from_parts` off by one, so that every sample with
  a defined solid spread is a failure record; this pins the records' bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
PRIMES = (3, 7, 11, 101, 2**31 - 1)
RIGHT_CORNER_FIXTURES = ("unit_tri_rectangular", "tri_rectangular_mixed_corner",
                         "tri_rectangular_f101")
FUZZ_RUNS = (
    ["--prime", "101", "--samples", "200", "--seed", "42"],
    ["--prime", "2147483647", "--random-form", "--samples", "30", "--seed", "7"],
    ["--prime", "7", "--random-form", "--samples", "200", "--seed", "5"],
    ["--prime", "7", "--allow-degenerate", "--samples", "200", "--seed", "3"],
    ["--prime", "3", "--random-form", "--samples", "200", "--seed", "1"],
)


def fixtures() -> dict[str, str]:
    """Fixture name -> document text; a counterexample fixture's document is its "input"."""
    docs = {}
    for path in sorted(FIXTURES.glob("*.json")):
        text = path.read_text(encoding="utf-8")
        obj = json.loads(text)
        docs[path.stem] = json.dumps(obj["input"]) if "input" in obj else text
    return docs


def documents() -> list[str]:
    sys.path.insert(0, str(ROOT / "bench"))
    from corpus import fp_corpus, q_corpus

    docs = [text for _, text in q_corpus(777, 150)]
    for p in PRIMES:
        docs += [text for _, text in fp_corpus(p, 30, p, True)]
    return docs + list(fixtures().values())


def with_tri_rectangular(text: str) -> str:
    obj = json.loads(text)
    obj.setdefault("options", {})["tri_rectangular"] = True
    return json.dumps(obj)


def run(main, argv: list[str], stdin: str = "") -> tuple[int | str, str, str]:
    """Exit code, stdout and stderr of one in-process run of the CLI; an
    exception that escapes `main` stands in for the exit code."""
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:
        code = f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = sys.__stdin__
    return code, out.getvalue(), err.getvalue()


def record(main, argv: list[str], stdin: str = "") -> bytes:
    """argv, exit code, stdout and stderr of one run, each length-prefixed."""
    code, out, err = run(main, argv, stdin)
    parts = [json.dumps(argv), str(code), out, err]
    return b"".join(len(b).to_bytes(8, "big") + b for b in (s.encode() for s in parts))


def digests(main) -> dict[str, tuple[int, str]]:
    docs = documents()
    groups = {"report": [], "verify": [], "tri-rectangular": [], "corrupt": [], "fuzz": [],
              "fuzz-fault": []}
    for text in docs:
        for command in ("report", "verify"):
            groups[command].append(record(main, [command], text))
            groups["tri-rectangular"].append(record(main, [command], with_tri_rectangular(text)))
    corner = fixtures()
    for name in RIGHT_CORNER_FIXTURES:
        report = json.loads(run(main, ["report"], corner[name])[1])
        for section, table in report.items():
            if section in ("field", "identities", "tri_rectangular"):
                continue
            keys = ([section] if isinstance(table, str) or "undefined" in table
                    else [f"{section}.{entry}" for entry in table])
            groups["corrupt"] += [record(main, ["verify", "--corrupt", key], corner[name])
                                  for key in keys]
    for argv in FUZZ_RUNS:
        for workers in ("1", "2"):
            groups["fuzz"].append(record(main, ["fuzz", *argv, "--workers", workers]))
    tetra = sys.modules["tetrig.tetra"]
    solid_spread = tetra.solid_spread_from_parts

    def off_by_one(*args):  # num/den + 1
        num, den = solid_spread(*args)
        return num + den, den
    tetra.solid_spread_from_parts = off_by_one
    try:  # one worker: a pool's processes need not see the patch
        groups["fuzz-fault"] += [record(main, ["fuzz", *argv, "--workers", "1"])
                                 for argv in FUZZ_RUNS if argv[1] in ("101", "7")]
    finally:
        tetra.solid_spread_from_parts = solid_spread
    return {name: (len(runs), hashlib.sha256(b"".join(runs)).hexdigest())
            for name, runs in groups.items()}


def main(argv: list[str]) -> int:
    src = Path(argv[0] if argv else ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import tetrig.cli

    if not Path(tetrig.cli.__file__).resolve().is_relative_to(src):
        print(f"error: tetrig imported from {tetrig.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    for name, (count, digest) in digests(tetrig.cli.main).items():
        print(f"{name:16} {count:5} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
