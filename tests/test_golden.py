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
