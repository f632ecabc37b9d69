"""Byte identity of CLI and fuzz output against pinned outputs.

`tests/fixtures/golden` holds the stdout of `tetrig report`, `verify` and
`fuzz` for fixed inputs.  A change to the arithmetic, or to the order in
which `analyze` evaluates shared subexpressions, must reproduce every byte.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tetrig.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

# report/verify inputs; the counterexample fixture carries its document under "input"
DOCUMENTS = {
    "unit_tri_rectangular": (FIXTURES / "unit_tri_rectangular.json").read_text(),
    "tri_rectangular_mixed_corner": (FIXTURES / "tri_rectangular_mixed_corner.json").read_text(),
    "tri_rectangular_f101": (FIXTURES / "tri_rectangular_f101.json").read_text(),
    # 6-digit numerators over 3-digit denominators, off-diagonal form
    "tall_literal_q": (FIXTURES / "tall_literal_q.json").read_text(),
    "skew_denominator_counterexample": json.dumps(
        json.loads((FIXTURES / "skew_denominator_counterexample.json").read_text())["input"]),
}

FUZZ_RUNS = {
    "fuzz-p101-s200-seed42.json": ["--prime", "101", "--samples", "200", "--seed", "42"],
    "fuzz-p2147483647-random-form-s30-seed7.json": ["--prime", "2147483647", "--random-form",
                                                    "--samples", "30", "--seed", "7"],
    # most entries Undefined: 6567 of 8800 verdicts inapplicable
    "fuzz-p3-random-form-s200-seed1.json": ["--prime", "3", "--random-form",
                                            "--samples", "200", "--seed", "1"],
}


def golden(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("command", ["report", "verify"])
@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_document_output_matches_golden(name, command, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(DOCUMENTS[name]))
    assert main([command]) == 0
    assert capsys.readouterr().out.encode() == golden(f"{command}-{name}.json")


def test_invalid_literal_output_matches_golden(capsys):
    assert main(["verify", "--input", str(FIXTURES / "invalid_bad_literal.json")]) == 2
    assert capsys.readouterr().out.encode() == golden("verify-invalid_bad_literal.txt")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(FUZZ_RUNS))
def test_fuzz_summary_matches_golden(name, workers, capsys):
    assert main(["fuzz", *FUZZ_RUNS[name], "--workers", str(workers)]) == 0
    assert capsys.readouterr().out.encode() == golden(name)


def test_verify_under_optimize_flag_matches_golden():
    # -O strips asserts; the internal consistency checks must not rely on them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-m", "tetrig", "verify", "--input",
                           str(FIXTURES / "unit_tri_rectangular.json")],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden("verify-unit_tri_rectangular.json")


def launch(argv, stdin=""):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "tetrig", *argv], input=stdin.encode(),
                          capture_output=True, env=env, timeout=120)


LAUNCHES = {  # name: argv, stdin
    **{f"{command}-{name}": ([command], DOCUMENTS[name])
       for name in DOCUMENTS for command in ("report", "verify")},
    "verify-invalid_bad_literal": (["verify", "--input",
                                    str(FIXTURES / "invalid_bad_literal.json")], ""),
    **{f"{name}-w{workers}": (["fuzz", *FUZZ_RUNS[name], "--workers", workers], "")
       for name in FUZZ_RUNS for workers in ("1", "2")},
    "verify-corrupt": (["verify", "--corrupt", "E.01"], DOCUMENTS["unit_tri_rectangular"]),
    "usage-error": (["fuzz", "--prime", "101"], ""),
    "help": (["--help"], ""),
    "verify-timings": (["verify", "--timings", "--input",
                        str(FIXTURES / "tri_rectangular_mixed_corner.json")], ""),
}


@pytest.mark.parametrize("name", sorted(LAUNCHES))
def test_a_launch_prints_what_main_returns(name, monkeypatch, capsys):
    # `python -m tetrig` ends without finalization; its stdout bytes, stderr and exit code are
    # those of `main` in process (1 for verify-corrupt, 2 for a usage error and an invalid
    # literal), and its --timings phases add `import` before main's
    argv, stdin = LAUNCHES[name]
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    expected = capsys.readouterr()
    proc = launch(argv, stdin)
    assert (proc.returncode, proc.stdout) == (code, expected.out.encode())
    if "--timings" in argv:
        def phases(err):
            return [json.loads(line)["phase"] for line in err.splitlines()]
        assert phases(proc.stderr.decode()) == ["import", *phases(expected.err)]
    else:
        assert proc.stderr.decode() == expected.err


OUTPUT_LAUNCHES = {  # golden name: argv
    "report-unit_tri_rectangular.json": ["report", "--input",
                                         str(FIXTURES / "unit_tri_rectangular.json")],
    "fuzz-p101-s200-seed42.json": ["fuzz", *FUZZ_RUNS["fuzz-p101-s200-seed42.json"]],
}


@pytest.mark.parametrize("name", sorted(OUTPUT_LAUNCHES))
def test_a_launch_with_output_writes_the_stdout_bytes_to_the_file(name, tmp_path):
    out = tmp_path / "out.json"
    proc = launch([*OUTPUT_LAUNCHES[name], "--output", str(out)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert out.read_bytes() == golden(name)
