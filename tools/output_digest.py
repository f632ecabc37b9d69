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
- fuzz: each of FUZZ_RUNS at `--workers 1` and `2`.  No run has over 200 samples, below
  `2 * tetrig.fuzz.MIN_SAMPLES_PER_PROCESS` (400), so `pool_size` gives each one process
  and the `--workers 2` runs map in process, as `--workers 1` does: this group starts no
  pool.  The pool's byte check is CI's three pooled `cmp` steps, which compare `fuzz
  --prime 101 --seed 42 --samples 600` (with and without `-X dev`) and `fuzz --prime
  2147483647 --random-form --seed 7 --samples 500` at `--workers 2` with `--workers 1`;
- fuzz-fault: each p=101 and p=7 run of FUZZ_RUNS at `--workers 1`, with
  `tetrig.tetra.solid_spread_from_parts` off by one, so that every sample with
  a defined solid spread is a failure record; this pins the records' bytes;
- invalid: report and verify of `invalid_documents()`, one document per exit-2 path
  of parsing and of the right corner; this pins their messages.
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


def invalid_documents() -> list[str]:
    """The unit corner with the identities and the right corner on, broken one way each."""
    unit = json.loads((FIXTURES / "unit_tri_rectangular.json").read_text(encoding="utf-8"))
    unit["options"] = {"checks": True, "tri_rectangular": True}

    def variant(**changes) -> str:
        return json.dumps({**unit, **changes})

    def form(*diagonal, b="0") -> dict:
        return dict(zip(("a1", "a2", "a3", "b1", "b2", "b3"), (*diagonal, b, b, b)))

    def corner(*edges) -> list:  # vertex 0 at the origin, the others at its edge vectors
        return [["0", "0", "0"], *([str(x) for x in edge] for edge in edges)]

    def point1(literal: str) -> list:  # the unit points with `literal` as point 1's x
        return [["0", "0", "0"], [literal, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    f7 = {"kind": "prime", "p": 7}
    return [
        "{", "[]", variant(field={"kind": "prime", "p": 9}),
        variant(form={**unit["form"], "a2": "x"}), variant(points=point1("1.5")),
        variant(field=f7, points=point1("3/2")),
        variant(points=point1("1/0")), variant(points=point1("1" * 4301)),
        variant(form=form("1", "1", "1", b="1")),  # singular
        variant(points=unit["points"][:3]), variant(points=[*unit["points"][:3], ["0", "1"]]),
        variant(options={"checks": True, "tri_rectangle": True}), variant(options={"skew": 1}),
        variant(points=[[f"1/{10 ** 399 + 3 * i + j}" for j in range(3)] for i in range(4)]),
        variant(points=corner((1, 0, 0), (1, 1, 0), (0, 0, 1))),  # not a right corner
        # the three DegenerateParams: a zero K_i, K_i + K_j, K1 K2 + K1 K3 + K2 K3
        variant(form=form("1", "1", "-1"), points=corner((1, 0, 1), (0, 1, 0), (2, 0, 2))),
        variant(form=form("1", "1", "-1")),
        variant(form=form("2", "2", "-1")),
        variant(field=f7, points=corner((0, 1, 2), (1, 3, 2), (1, 3, 2))),
        variant(field=f7, points=corner((0, 0, 1), (1, 2, 0), (3, 2, 0))),
        variant(field=f7, points=corner((0, 0, 1), (0, 2, 0), (3, 0, 0))),
    ]


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
              "fuzz-fault": [], "invalid": []}
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
    groups["invalid"] += [record(main, [command], text) for text in invalid_documents()
                          for command in ("report", "verify")]
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
