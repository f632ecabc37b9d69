"""CLI surface: interchange format, exit codes, fuzz reproducibility."""

import concurrent.futures
import io
import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from tetrig import DivisionByZero, FieldSpec, SymmetricForm, parse_element
from tetrig.cli import _USAGE, InputError, _parse_args, main
from tetrig.document import document_from_obj, load_document, run_report, run_verify
from tetrig.fuzz import MIN_SAMPLES_PER_PROCESS, FuzzConfig, pool_size, run_fuzz
from tetrig.tetra import FAIL, INAPPLICABLE, PASS
from tetrig.trig import document_to_obj
from support import Q, draw_tetrahedron

F101_IDENTITY = SymmetricForm.identity(FieldSpec.prime(101))

FIXTURES = Path(__file__).parent / "fixtures"
UNIT_DOC = FIXTURES / "unit_tri_rectangular.json"
SRC = Path(__file__).resolve().parents[1] / "src"
M = MIN_SAMPLES_PER_PROCESS  # a fuzz run gets a second process from 2 * M samples on


def load_fixture_doc():
    return load_document(UNIT_DOC.read_text())


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_contains_exact_literals():
    out = run_report(load_fixture_doc())
    assert out["V"] == "4"
    assert out["R"] == "1/3"
    assert out["Q"]["23"] == "2"
    assert out["s"]["1;23"] == "3/4"
    assert out["skew"]["01;23"] == "1/2"


def test_report_round_trips_to_identical_elements():
    doc = load_fixture_doc()
    out = run_report(doc)
    spec = doc.tetrahedron.spec
    from tetrig import analyze
    rep = analyze(doc.tetrahedron)
    assert parse_element(out["V"], spec) == rep.quadrume
    assert parse_element(out["R"], spec) == rep.ratio_constant
    for (i, j), value in rep.quadrances.items():
        assert parse_element(out["Q"][f"{i}{j}"], spec) == value
    for (i, j, k), value in rep.face_spreads.items():
        assert parse_element(out["s"][f"{i};{j}{k}"], spec) == value


def test_report_marks_undefined_entries():
    doc = document_from_obj({
        "field": {"kind": "prime", "p": 7},
        "form": {"a1": "1", "a2": "1", "a3": "1", "b1": "0", "b2": "0", "b3": "0"},
        "points": [["0", "0", "0"], ["1", "2", "3"], ["0", "1", "0"], ["0", "0", "1"]],
    })
    out = run_report(doc)
    assert out["Q"]["01"] == "0"
    assert out["s"]["0;12"] == {"undefined": "NullEdge"}
    assert out["S"]["0"] == {"undefined": "NullEdge"}


def test_report_repeated_point():
    doc = document_from_obj({
        "field": {"kind": "rational"},
        "form": {"a1": "1", "a2": "1", "a3": "1", "b1": "0", "b2": "0", "b3": "0"},
        "points": [["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    })
    out = run_report(doc)
    assert out["Q"]["01"] == "0"
    assert out["V"] == "0"
    assert out["s"]["0;12"] == {"undefined": "NullEdge"}
    assert out["E"]["01"] == {"undefined": "NullNormal"}
    assert out["R"] == {"undefined": "ZeroQuadrea"}


def test_report_byte_stable(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["report", "--input", str(UNIT_DOC), "--output", str(out1)]) == 0
    assert main(["report", "--input", str(UNIT_DOC), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_optional_sections():
    doc = load_fixture_doc()
    doc.options.checks = True
    doc.options.tri_rectangular = True
    out = run_report(doc)
    assert out["identities"]["summary"]["fail"] == 0
    assert out["tri_rectangular"]["summary"]["fail"] == 0
    doc.options.skew = False
    assert "skew" not in run_report(doc)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_on_fixture():
    out, code = run_verify(load_fixture_doc())
    assert code == 0
    assert out["summary"]["fail"] == 0
    assert len(out["verdicts"]) == 41


def test_verify_corrupt_entry_fails():
    out, code = run_verify(load_fixture_doc(), corrupt="E.01")
    assert code == 1
    failed = {(v["identity"], v["instance"]) for v in out["verdicts"]
              if v["status"] == "fail"}
    assert ("dihedral-spread-ratio", "01|23") in failed


@pytest.mark.parametrize("key", ["V", "R", "Q.01", "A.012", "s.0;12", "E.01",
                                 "S.0", "D.0", "skew.01;23"])
def test_verify_corrupt_accepts_every_section(key):
    _, code = run_verify(load_fixture_doc(), corrupt=key)
    assert code == 1


def test_verify_corrupt_reaches_right_corner_checks():
    # the right-corner checks read the same (corrupted) report as the identities
    doc = load_document((FIXTURES / "tri_rectangular_mixed_corner.json").read_text())
    out, code = run_verify(doc, corrupt="S.1")
    assert code == 1
    failed = {(v["identity"], v["instance"]) for v in out["verdicts"]
              if v["status"] == "fail"}
    assert ("closed-form-solid-spread", "S1") in failed
    assert ("solid-spread-square", "(1-S1-S2-S3)^2") in failed


def test_verify_corrupt_unknown_key_rejected():
    with pytest.raises(InputError):
        run_verify(load_fixture_doc(), corrupt="X.99")


@pytest.mark.parametrize("key", ["Q.0123", "s.0;12zz", "E.01x", "A.0124", "skew.01;23;45",
                                 "S.+1", "S. 1"])
def test_verify_corrupt_takes_only_exact_entry_names(key, capsys):
    # each key starts like a real entry name; none may be read as that entry
    assert main(["verify", "--input", str(UNIT_DOC), "--corrupt", key]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --corrupt {key}: unknown entry\n"


def test_exit_codes_on_golden_fixtures(tmp_path, capsys):
    ok = main(["verify", "--input", str(UNIT_DOC), "--output",
               str(tmp_path / "ok.json")])
    assert ok == 0
    bad = main(["verify", "--input", str(UNIT_DOC), "--corrupt", "E.01",
                "--output", str(tmp_path / "bad.json")])
    assert bad == 1
    invalid = main(["verify", "--input", str(FIXTURES / "invalid_bad_literal.json"),
                    "--output", str(tmp_path / "invalid.json")])
    assert invalid == 2
    err = capsys.readouterr().err
    assert "points[1][0]" in err


def test_malformed_json_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["report", "--input", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

def test_input_rejects_degenerate_form():
    with pytest.raises(InputError, match="form"):
        document_from_obj({
            "field": {"kind": "rational"},
            "form": {"a1": "1", "a2": "1", "a3": "0", "b1": "0", "b2": "0", "b3": "0"},
            "points": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        })


def test_input_rejects_composite_modulus():
    with pytest.raises(InputError, match="field.p"):
        document_from_obj({
            "field": {"kind": "prime", "p": 9},
            "form": {"a1": "1", "a2": "1", "a3": "1", "b1": "0", "b2": "0", "b3": "0"},
            "points": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        })


@pytest.mark.parametrize("p", [True, False])
def test_input_rejects_boolean_modulus(p):
    # JSON true and false load as Python bools, which are ints; neither is a modulus
    with pytest.raises(InputError, match=r"^field\.p: expected an integer modulus$"):
        document_from_obj({
            "field": {"kind": "prime", "p": p},
            "form": {"a1": "1", "a2": "1", "a3": "1", "b1": "0", "b2": "0", "b3": "0"},
            "points": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        })


def _doc_with_coordinate(literal):
    doc = json.loads(UNIT_DOC.read_text())
    doc["points"][1][0] = literal
    return json.dumps(doc)


def test_oversized_input_literal_is_exit_2(monkeypatch, capsys):
    # 5000 digits: past both the documented bound and int()'s own limit
    monkeypatch.setattr("sys.stdin", io.StringIO(_doc_with_coordinate("7" * 5000)))
    assert main(["report"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: points[1][0]: ") and "4300 digits" in err


def test_oversized_report_literal_is_exit_2(monkeypatch, capsys):
    # 1500 digits parse, but a face spread grows past 4300 digits
    monkeypatch.setattr("sys.stdin", io.StringIO(_doc_with_coordinate("7" * 1500)))
    assert main(["report"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: report entry s.1;23: ") and "4300 digits" in err


@pytest.mark.parametrize("section, digits", [("points", 400), ("form", 800)])
def test_oversized_common_denominator_is_exit_2(section, digits, monkeypatch, capsys):
    # each literal is short, but analyze scales the points by the lcm of their 12
    # denominators and the form by the lcm of its 6: here over 4300 digits
    doc = json.loads(UNIT_DOC.read_text())
    if section == "points":
        doc["points"] = [[f"1/{10 ** (digits - 1) + 3 * i + j}" for j in range(3)]
                         for i in range(4)]
    else:
        doc["form"] = {key: f"1/{10 ** (digits - 1) + k}" for k, key in enumerate(doc["form"])}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["verify"]) == 2
    assert capsys.readouterr() == ("", f"error: {section}: an integer over the common "
                                       "denominator has over 4300 digits\n")


@pytest.mark.parametrize("options, key", [({"tri_rectangle": True, "check": True}, "tri_rectangle"),
                                          ({"checks": True, "Skew": False}, "Skew")])
def test_unknown_option_is_exit_2(options, key, monkeypatch, capsys):
    # a misspelt option must not pass silently as a run with no checks
    doc = {**json.loads(UNIT_DOC.read_text()), "options": options}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main(["report"]) == 2
    assert capsys.readouterr() == ("", f"error: options.{key}: unknown option; "
                                       "expected checks, skew or tri_rectangular\n")


def test_input_rejects_wrong_point_count():
    with pytest.raises(InputError, match="points"):
        document_from_obj({
            "field": {"kind": "rational"},
            "form": {"a1": "1", "a2": "1", "a3": "1", "b1": "0", "b2": "0", "b3": "0"},
            "points": [["0", "0", "0"]],
        })


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

def test_fuzz_zero_samples():
    summary, code = run_fuzz(FuzzConfig(prime=101, samples=0, seed=1))
    assert code == 0
    assert summary["failures"] == []
    assert all(row == {"checked": 0, "passed": 0, "inapplicable": 0}
               for row in summary["identities"].values())


def test_fuzz_small_run_passes():
    summary, code = run_fuzz(FuzzConfig(prime=101, samples=40, seed=1))
    assert code == 0
    assert summary["failures"] == []
    for row in summary["identities"].values():
        assert row["checked"] == row["passed"] + row["inapplicable"]


def test_fuzz_small_field_has_inapplicable_instances():
    summary, code = run_fuzz(FuzzConfig(prime=7, samples=60, seed=3))
    assert code == 0
    assert sum(row["inapplicable"] for row in summary["identities"].values()) > 0


def test_fuzz_reproducible_and_worker_independent():
    # below the cut-over every --workers maps in process; above it a pool runs
    # wherever two CPUs are usable
    for samples in (60, 2 * M + 10):
        cfg = dict(prime=101, samples=samples, seed=9)
        s1, _ = run_fuzz(FuzzConfig(**cfg, workers=1))
        for workers in (2, 3):
            s2, _ = run_fuzz(FuzzConfig(**cfg, workers=workers))
            assert json.dumps(s1) == json.dumps(s2)


def test_pool_size_is_capped_by_samples_and_cpus():
    assert pool_size(10**6, 1000 * M, 2) == 2
    assert pool_size(2, 1000 * M, 2) == 2
    assert pool_size(8, 3 * M, 16) == 3
    assert pool_size(8, 3 * M - 1, 16) == 2
    assert pool_size(2, 2 * M - 1, 16) == 1
    assert pool_size(1, 1000 * M, 16) == 1
    assert pool_size(4, 0, 16) == 1
    assert pool_size(3, 1000 * M, 1) == 1


def test_fuzz_workers_capped_at_usable_cpus(monkeypatch):
    # with one usable CPU no pool starts, whatever --workers asks for; with
    # several, none starts below the cut-over either
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    capped, _ = run_fuzz(FuzzConfig(prime=101, samples=6, seed=3, workers=10**6))
    single, _ = run_fuzz(FuzzConfig(prime=101, samples=6, seed=3, workers=1))
    assert capped == single
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    short, _ = run_fuzz(FuzzConfig(prime=101, samples=2 * M - 1, seed=3, workers=2))
    single, _ = run_fuzz(FuzzConfig(prime=101, samples=2 * M - 1, seed=3, workers=1))
    assert short == single


def test_fuzz_pool_gets_one_run_of_samples_per_worker(monkeypatch):
    # a stand-in pool that maps in process: 3 M + 1 samples on 3 workers go out as
    # one range of consecutive samples per worker, and the summary is the one-worker
    # summary; at 10^6 samples each worker's task still pickles small, as the parent
    # builds no per-sample index
    asked, run_spans = [], True

    class InProcessPool:
        def __init__(self, workers):
            asked.append(("workers", workers))

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize=1):
            spans = list(iterable)
            asked.append(("spans", spans, [len(pickle.dumps((fn, span))) for span in spans]))
            return map(fn, spans) if run_spans else []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    pooled, _ = run_fuzz(FuzzConfig(prime=101, samples=3 * M + 1, seed=6, workers=3))
    assert asked[0] == ("workers", 3)
    assert asked[1][1] == [range(0, M + 1), range(M + 1, 2 * M + 2), range(2 * M + 2, 3 * M + 1)]
    single, _ = run_fuzz(FuzzConfig(prime=101, samples=3 * M + 1, seed=6, workers=1))
    assert json.dumps(pooled) == json.dumps(single)

    asked.clear()
    run_spans = False
    run_fuzz(FuzzConfig(prime=101, samples=10**6, seed=6, workers=3))
    (_, workers), (_, spans, sizes) = asked
    assert workers == 3 and len(spans) == 3
    assert [i for span in spans for i in (span.start, span.stop)] == [
        0, 333334, 333334, 666668, 666668, 10**6]
    assert all(span.step == 1 for span in spans)
    assert max(sizes) < 1024


def test_fuzz_above_the_cut_over_builds_one_real_pool(monkeypatch):
    # two usable CPUs and 2 M samples: one pool of two processes, with the one-worker bytes
    built, real = [], concurrent.futures.ProcessPoolExecutor

    class CountingPool(real):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    pooled, _ = run_fuzz(FuzzConfig(prime=101, samples=2 * M, seed=11, workers=2))
    assert built == [(2,)]
    single, _ = run_fuzz(FuzzConfig(prime=101, samples=2 * M, seed=11, workers=1))
    assert built == [(2,)]
    assert json.dumps(pooled) == json.dumps(single)


def test_fuzz_random_form_counts_rejections():
    summary, code = run_fuzz(FuzzConfig(prime=7, samples=40, seed=4, random_form=True))
    assert code == 0
    assert summary["rejected"]["singular_forms"] >= 0
    assert summary["config"]["random_form"] is True


def test_fuzz_allow_degenerate():
    summary, code = run_fuzz(FuzzConfig(prime=7, samples=40, seed=5,
                                        reject_degenerate=False))
    assert code == 0
    assert summary["rejected"]["degenerate_tetrahedra"] == 0


def test_fault_in_analyze_is_a_recorded_failure(monkeypatch):
    # a wrong defining formula must surface as failing verdicts with a
    # replayable input document, not as an exception from inside analyze
    from tetrig import tetra
    solid_spread = tetra.solid_spread_from_parts

    def off_by_one(*args):  # num/den + 1
        num, den = solid_spread(*args)
        return num + den, den
    monkeypatch.setattr(tetra, "solid_spread_from_parts", off_by_one)
    summary, code = run_fuzz(FuzzConfig(prime=101, samples=3, seed=1))
    assert code == 1
    recorded = [f for f in summary["failures"]
                if any(v["identity"] == "solid-spread-formula" for v in f["failed"])]
    assert recorded
    for failure in recorded:
        doc = load_document(json.dumps(failure["input"]))
        assert document_to_obj(doc.tetrahedron) == failure["input"]
    _, code = run_verify(load_fixture_doc())
    assert code == 1


def _fault_in_sample(monkeypatch, fuzz, index, target, fault):
    """Make `fuzz.<target>` raise `fault` at its first call in fuzz sample `index`,
    with no pool; returns each sample's draws, by index, as the run makes them."""
    draws, current = {}, []
    run_sample, sample, real = fuzz._run_sample, fuzz._sample_tetrahedron, getattr(fuzz, target)

    def tracking_run(cfg, i):
        current.append(i)
        draws[i] = []
        return run_sample(cfg, i)

    def tracking_sample(*args):
        drawn = sample(*args)
        draws[current[-1]].append(drawn)
        return drawn

    def faulty(*args, **kwargs):
        if current[-1] == index:
            raise fault
        return real(*args, **kwargs)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(fuzz, "_run_sample", tracking_run)
    monkeypatch.setattr(fuzz, "_sample_tetrahedron", tracking_sample)
    monkeypatch.setattr(fuzz, target, faulty)
    return draws


@pytest.mark.parametrize("target, fault", [
    ("_analyze_parts", DivisionByZero("injected")),
    ("_verify_parts", RuntimeError("injected")),
    ("_skew_parts", DivisionByZero("injected"))])
def test_fuzz_fault_is_a_failure_record(monkeypatch, capsys, target, fault):
    # a fault raised while sample 2 is checked is recorded with its input;
    # the other samples are tallied as before and the run exits 1
    from tetrig import fuzz
    cfg = FuzzConfig(prime=101, samples=5, seed=8)
    clean, _ = run_fuzz(cfg)
    sample_2 = fuzz._run_sample(cfg, 2)[0]
    draws = _fault_in_sample(monkeypatch, fuzz, 2, target, fault)
    assert main(["fuzz", "--prime", "101", "--samples", "5", "--seed", "8",
                 "--workers", "1"]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["failures"] == [{
        "sample": 2, "input": document_to_obj(draw_tetrahedron(F101_IDENTITY, draws[2][-1])),
        "error": {"exception": type(fault).__name__, "message": "injected"}}]
    for name, row in summary["identities"].items():
        expected = clean["identities"][name]
        passed, inapplicable = sample_2[name, PASS], sample_2[name, INAPPLICABLE]
        checked = passed + inapplicable + sample_2[name, FAIL]
        assert [row["checked"], row["passed"], row["inapplicable"]] == [
            expected["checked"] - checked, expected["passed"] - passed,
            expected["inapplicable"] - inapplicable]
    assert sample_2["skew-quadrance-projection", PASS] > 0  # the skew route ran in sample 2
    monkeypatch.undo()
    _, code = run_verify(load_document(json.dumps(summary["failures"][0]["input"])))
    assert code == 0


def test_fuzz_fault_on_a_rejected_draw_is_a_failure_record(monkeypatch, capsys):
    # the kernel also decides degeneracy, inside the fault guard: a fault on a
    # draw that would be rejected as degenerate is recorded with that draw
    from tetrig import fuzz
    from tetrig.trig import quadrume
    cfg = FuzzConfig(prime=7, samples=10, seed=2)
    index = next(i for i in range(cfg.samples)
                 if fuzz._run_sample(cfg, i)[0]["degenerate_tetrahedra"])
    draws = _fault_in_sample(monkeypatch, fuzz, index, "_analyze_parts",
                             DivisionByZero("injected"))
    assert main(["fuzz", "--prime", "7", "--samples", "10", "--seed", "2",
                 "--workers", "1"]) == 1
    summary = json.loads(capsys.readouterr().out)
    # the sample's first draw, which a clean run rejects
    (rejected,) = (draw_tetrahedron(SymmetricForm.identity(FieldSpec.prime(7)), coords)
                   for coords in draws[index])
    assert quadrume(rejected).is_zero
    assert summary["failures"] == [{
        "sample": index, "input": document_to_obj(rejected),
        "error": {"exception": "DivisionByZero", "message": "injected"}}]


def test_fuzz_fault_on_the_first_draw_is_a_failure_record(monkeypatch):
    # a fault in the kernel on each sample's first draw is recorded with that
    # draw, written from its residues, and the run goes on
    from tetrig import fuzz
    draws, sample = [], fuzz._sample_tetrahedron

    def tracking_sample(rng, p):
        draws.append(sample(rng, p))
        return draws[-1]

    def faulty(*args):
        raise DivisionByZero("injected")
    monkeypatch.setattr(fuzz, "_sample_tetrahedron", tracking_sample)
    monkeypatch.setattr(fuzz, "_analyze_parts", faulty)
    summary, code = run_fuzz(FuzzConfig(prime=101, samples=2, seed=1))
    monkeypatch.undo()
    assert code == 1
    assert len(draws) == 2
    assert summary["failures"] == [
        {"sample": i, "input": document_to_obj(draw_tetrahedron(F101_IDENTITY, coords)),
         "error": {"exception": "DivisionByZero", "message": "injected"}}
        for i, coords in enumerate(draws)]
    assert all(row["checked"] == 0 for row in summary["identities"].values())


def _skew_instances(p, count):
    """`count` random defined skew instances over F_p: `_skew_parts`' arguments (form, 1,
    coords, pairing, t1, t2) and the (num, den) of the library's FieldElement route,
    `trig.skew_quadrance`."""
    import random
    from tetrig.blinalg import DegenerateForm
    from tetrig.tetra import SKEW_PAIRINGS, _skew_parts
    from tetrig.trig import NotSkewOrDegenerate, NullCommonPerpendicular, skew_quadrance
    rng, spec, out = random.Random(p), FieldSpec.prime(p), []
    while len(out) < count:
        try:
            form = SymmetricForm(*(spec.element(rng.randrange(p)) for _ in range(6)))
        except DegenerateForm:
            continue
        coords = [rng.randrange(p) for _ in range(12)]
        tet = draw_tetrahedron(form, coords)
        for pairing in SKEW_PAIRINGS:
            t1, t2 = rng.randrange(p), rng.randrange(p)
            try:
                library = skew_quadrance(tet, pairing, params=(spec.element(t1),
                                                               spec.element(t2)))
            except (NotSkewOrDegenerate, NullCommonPerpendicular):  # undefined both ways
                assert spec._red(_skew_parts(form, 1, coords, pairing, t1, t2)[1]) == 0
                continue
            out.append(((form, 1, coords, pairing, t1, t2), library._parts()))
    return out


@pytest.mark.parametrize("p", [7, 101, 2**31 - 1])
def test_skew_projection_on_residues_matches_the_library_route(monkeypatch, p):
    # the kernel's integer skew formula at moved points, which a fuzz sample checks
    # the kernel's skew part against, and the library's FieldElement route agree on
    # every defined instance; two broken integer routes fail on most of them
    from tetrig import tetra
    from tetrig.blinalg import adj_values
    from tetrig.tetra import _decide, _skew_parts
    red, instances = FieldSpec.prime(p)._red, _skew_instances(p, 150)

    def statuses(route):
        return [_decide(red, 1, [route(*args)], 1, [library]) for args, library in instances]

    def no_den(*args):
        return _skew_parts(*args)[0], 1
    assert statuses(_skew_parts) == [PASS] * len(instances)
    assert statuses(no_den).count(FAIL) > len(instances) // 2
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # the plain cross product, not B's
    monkeypatch.setattr(tetra, "adj_values", lambda adj, c: adj_values(unit, c))
    assert statuses(_skew_parts).count(FAIL) > len(instances) // 2


def test_fuzz_sample_builds_no_report(monkeypatch):
    # a sample checks the kernel's (num, den) parts of its drawn residues as they
    # are: no points or tetrahedron built, no report, no boundary, no read-back and
    # no second computation of V
    from tetrig import affine, fuzz, tetra, trig
    configs = [FuzzConfig(prime=7, samples=30, seed=4, random_form=True),
               FuzzConfig(prime=101, samples=20, seed=5)]
    clean = [run_fuzz(cfg) for cfg in configs]
    targets = (trig.analyze, trig.verify_identities, trig._report_parts, trig.quadrume,
               trig.Tetrahedron, affine.Point3)

    def forbidden(*args, **kwargs):
        raise AssertionError("called by a fuzz sample")
    for module in (fuzz, affine, tetra, trig):  # every name bound to a target
        for name, value in list(vars(module).items()):
            if any(value is target for target in targets):
                monkeypatch.setattr(module, name, forbidden)
    assert [run_fuzz(cfg) for cfg in configs] == clean
    assert clean[0][0]["rejected"]["degenerate_tetrahedra"] > 0


def _fixture_documents():
    """Each fixture with golden report and verify outputs, by name; a counterexample
    fixture's document is its input."""
    docs = {}
    for path in sorted(FIXTURES.glob("*.json")):
        if (FIXTURES / "golden" / f"report-{path.stem}.json").exists():
            obj = json.loads(path.read_text())
            docs[path.stem] = json.dumps(obj["input"]) if "input" in obj else json.dumps(obj)
    return docs


def test_report_and_verify_build_no_report(monkeypatch, capsys):
    # report, verify and verify --corrupt work on one canonical table per document:
    # no report, boundary, read-back, Verdict or CheckResults, and the same bytes
    from tetrig import document, tetra, trig
    from tetrig.document import _ENTRY_KEYS
    docs = _fixture_documents()
    runs = [(name, [command]) for name in docs for command in ("report", "verify")]
    runs += [(name, ["verify", "--corrupt", key]) for name in docs
             for key in [*_ENTRY_KEYS, "Q.0123"]]

    def outputs():
        out = []
        for name, argv in runs:
            monkeypatch.setattr("sys.stdin", io.StringIO(docs[name]))
            code = main(argv)
            out.append((code, *capsys.readouterr()))
        return out
    clean = outputs()
    targets = (trig.analyze, trig.verify_identities, trig._report_parts,
               trig.tri_rectangular_checks, trig.Verdict, trig.CheckResults,
               trig.InvariantReport, trig.Undefined, trig.report_to_obj,
               trig.results_to_obj, trig.corrupt_entry)

    def forbidden(*args, **kwargs):
        raise AssertionError("called by report or verify")
    for module in (document, tetra, trig):  # every name bound to a target
        for name, value in list(vars(module).items()):
            if any(value is target for target in targets):
                monkeypatch.setattr(module, name, forbidden)
    assert outputs() == clean
    for (name, argv), (code, out, _) in zip(runs, clean):
        if len(argv) == 1:
            assert code == 0
            assert out == (FIXTURES / "golden" / f"{argv[0]}-{name}.json").read_text()
    assert {code for code, _, _ in clean} == {0, 1, 2}  # passing, corrupted, unknown key


# the standard library's command-line parser and the translation lookup it loads
ARGPARSE = ("argparse", "gettext", "locale")


def _launch_modules(code: str) -> tuple[list, list]:
    """The lines a fresh interpreter prints running `code`, and the modules it then holds of
    the tetrig package, of `fractions`, `decimal` and `numbers` (Q's `Fraction`) and of
    ARGPARSE."""
    probe = (f"{code}\nimport sys\nprint(*sorted(m for m in sys.modules if "
             f"m.split('.')[0] in ('tetrig', 'fractions', 'decimal', 'numbers', *{ARGPARSE!r})))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    *printed, modules = run.stdout.splitlines()
    return printed, modules.split()


def test_commands_load_only_the_integer_kernel():
    # each launch imports the kernel, the CLI and its command's module only, never the
    # FieldElement library (`affine`, `trig`): report and verify `document`, with `corner`
    # for a right corner only, and fuzz `fuzz`; none imports `fractions`, `decimal` or
    # `numbers`, over Q either, as the form and the points are parsed to integers
    q_plain, fp_corner = (str(FIXTURES / name) for name in ("tall_literal_q.json",
                                                             "tri_rectangular_f101.json"))
    kernel = ["tetrig", "tetrig.blinalg", "tetrig.cli", "tetrig.field", "tetrig.tetra"]
    launches = [
        (["report", "--input", q_plain], 0, [*kernel, "tetrig.document"]),
        (["verify", "--input", q_plain], 0, [*kernel, "tetrig.document"]),
        (["report", "--input", fp_corner], 0, [*kernel, "tetrig.corner", "tetrig.document"]),
        (["verify", "--input", fp_corner], 0, [*kernel, "tetrig.corner", "tetrig.document"]),
        (["verify", "--input", fp_corner, "--corrupt", "E.01"], 1,
         [*kernel, "tetrig.corner", "tetrig.document"]),
        (["fuzz", "--prime", "101", "--samples", "30"], 0, [*kernel, "tetrig.fuzz"]),
        (["fuzz", "--prime", "7", "--samples", "30", "--random-form"], 0,
         [*kernel, "tetrig.fuzz"])]
    for argv, code, modules in launches:
        launch = ("import contextlib, io, sys\nfrom tetrig.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    code = main({argv!r})\nprint(code)")
        assert _launch_modules(launch) == ([str(code)], sorted(modules)), argv
    # importing the CLI loads no command module
    assert _launch_modules("import tetrig.cli") == (
        [], ["tetrig", "tetrig.blinalg", "tetrig.cli", "tetrig.field"])


def test_report_and_verify_read_the_points_once(monkeypatch):
    # parsing scales the points without `_scaled_coordinates` and builds the form on the
    # literals' integers, with no field element; per document, one kernel call on the
    # coordinates that parsing scaled, and no field element built after parsing, the
    # right corner's K1, K2, K3 included
    from tetrig import corner, document, field, tetra, trig
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    for module in (document, corner, tetra, trig):
        for name, home in (("_analyze_parts", tetra), ("_scaled_coordinates", trig)):
            monkeypatch.setattr(module, name, counted(name, getattr(home, name)), raising=False)
    element = field.FieldElement
    monkeypatch.setattr(element, "__init__", counted("element", element.__init__))
    monkeypatch.setattr(field.FieldSpec, "_wrap", counted("element", field.FieldSpec._wrap))
    for name, text in _fixture_documents().items():
        for options in ({"checks": True}, {"checks": True, "tri_rectangular": True}):
            obj = json.loads(text)
            obj["options"] = options
            calls.clear()
            doc = load_document(json.dumps(obj))
            assert calls == {}, name
            for command in (run_report, run_verify):
                calls.clear()
                try:
                    command(doc)
                except InputError:  # a right corner that is not one: exit 2
                    assert options.get("tri_rectangular")
                assert calls == {"_analyze_parts": 1}, name


@pytest.mark.parametrize("reject_degenerate", [True, False])
@pytest.mark.parametrize("p", [3, 7, 101, 2**31 - 1])
def test_parts_path_matches_report_path(monkeypatch, p, reject_degenerate):
    # on every draw of a fuzz run, the verdicts on the kernel's parts of the
    # residues equal those on the report, inapplicable ones included
    from tetrig import fuzz
    from tetrig.tetra import _verify_parts
    from tetrig.trig import analyze, verify_identities
    draws, kernel = [], fuzz._analyze_parts

    def tracking_kernel(form, scale, coords):
        draws.append((form, coords, kernel(form, scale, coords)))
        return draws[-1][2]
    monkeypatch.setattr(fuzz, "_analyze_parts", tracking_kernel)
    run_fuzz(FuzzConfig(prime=p, samples=40, seed=p % 1000, random_form=True,
                        reject_degenerate=reject_degenerate))
    statuses = set()
    for form, coords, parts in draws:
        verdicts = _verify_parts(form.spec._red, parts)
        report = verify_identities(analyze(draw_tetrahedron(form, coords)))
        assert verdicts == [v.status for v in report.verdicts]
        statuses.update(verdicts)
    assert statuses == ({PASS} if p > 101 else {PASS, INAPPLICABLE})


def _right_corner_doc(name):
    """The fixture `name` with the identities and the right corner switched on."""
    obj = json.loads((FIXTURES / f"{name}.json").read_text())
    obj["options"] = {"checks": True, "tri_rectangular": True}
    return load_document(json.dumps(obj))


def _tracked_verdicts(monkeypatch):
    """Binds every name for `_decide` in the command modules, `corner` and `tetra` to a
    wrapper that records its caller's name, and every name for `_verify_parts` to one that
    records its rows and extra factors; returns the two lists."""
    from tetrig import corner, document, fuzz, tetra
    callers, calls = [], []
    decide, verify_parts = tetra._decide, tetra._verify_parts

    def tracked_decide(*args):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame (3.11)
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return decide(*args)

    def tracked_verify_parts(red, parts, rows=tetra._IDENTITIES, extra=(), *args):
        calls.append((rows, list(extra)))
        return verify_parts(red, parts, rows, extra, *args)
    for module in (document, fuzz, corner, tetra):
        for name, value in list(vars(module).items()):
            if value is decide:
                monkeypatch.setattr(module, name, tracked_decide)
            elif value is verify_parts:
                monkeypatch.setattr(module, name, tracked_verify_parts)
    return callers, calls


def test_every_verdict_is_decided_in_verify_parts(monkeypatch):
    # report, verify, verify --corrupt and fuzz decide every identity, right-corner
    # relation and skew projection in `_verify_parts`: once per document for the
    # identities and once for the right corner, and once per fuzz sample
    from tetrig.corner import _RIGHT_CORNER
    from tetrig.tetra import _FUZZ_ROWS, _IDENTITIES
    callers, calls = _tracked_verdicts(monkeypatch)
    for name in ("unit_tri_rectangular", "tri_rectangular_mixed_corner", "tri_rectangular_f101"):
        doc = _right_corner_doc(name)
        for run in (run_report, run_verify, lambda doc: run_verify(doc, "E.01")):
            calls.clear()
            run(doc)
            assert [rows for rows, _ in calls] == [_IDENTITIES, _RIGHT_CORNER], name
    for cfg in (FuzzConfig(prime=7, samples=30, seed=3, random_form=True),
                FuzzConfig(prime=101, samples=20, seed=5)):
        calls.clear()
        summary, _ = run_fuzz(cfg)
        assert [rows for rows, _ in calls] == [_FUZZ_ROWS] * cfg.samples
        assert summary["identities"]["skew-quadrance-projection"]["passed"] > 0
    assert callers and set(callers) == {"_verify_parts"}


def test_row_factors_index_what_their_callers_supply(monkeypatch):
    # the identities index only the entries, the product of the Q^2 and the skew dens;
    # the right corner and the fuzz projection rows index those and every extra factor
    # that their callers pass, and no other
    from tetrig.corner import _RIGHT_CORNER
    from tetrig.tetra import _EXTRA, _FUZZ_ROWS, _IDENTITIES
    _, calls = _tracked_verdicts(monkeypatch)
    run_verify(_right_corner_doc("unit_tri_rectangular"))
    run_fuzz(FuzzConfig(prime=101, samples=1, seed=5))
    (_, no_extra), (_, corner_extra), (_, fuzz_extra) = calls

    def indices(rows):
        return {n for _, _, _, lhs, _, rhs in rows for n in lhs + rhs}
    assert no_extra == [] and max(indices(_IDENTITIES)) < _EXTRA
    assert _FUZZ_ROWS[:len(_IDENTITIES)] == _IDENTITIES
    for rows, extra in ((_RIGHT_CORNER, corner_extra),
                        (_FUZZ_ROWS[len(_IDENTITIES):], fuzz_extra)):
        assert indices(rows) - set(range(_EXTRA)) == set(range(_EXTRA, _EXTRA + len(extra)))
    assert len(corner_extra) == 11 and len(fuzz_extra) == 3


def test_right_corner_rows_are_the_golden_verdicts():
    # the 38 right-corner relations, in the order `verify` prints them
    from tetrig.corner import _RIGHT_CORNER
    from tetrig.tetra import _IDENTITIES
    golden = json.loads((FIXTURES / "golden" / "verify-tri_rectangular_f101.json").read_text())
    printed = [(v["identity"], v["instance"]) for v in golden["verdicts"][len(_IDENTITIES):]]
    assert [row[:2] for row in _RIGHT_CORNER] == printed
    assert len(printed) == 38


def test_fuzz_invalid_prime_is_exit_2(capsys):
    assert main(["fuzz", "--prime", "9", "--samples", "5"]) == 2
    assert "prime" in capsys.readouterr().err


def test_fuzz_negative_seed_is_exit_2(capsys):
    # random.Random seeds from |seed|, so seed -1 would replay seed 1's samples
    assert main(["fuzz", "--prime", "101", "--samples", "1", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed: expected a non-negative integer\n"


def test_fuzz_cli_output(tmp_path):
    out = tmp_path / "fuzz.json"
    code = main(["fuzz", "--prime", "101", "--samples", "25", "--seed", "2",
                 "--output", str(out)])
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["config"] == {"prime": 101, "samples": 25, "seed": 2,
                                 "reject_degenerate": True, "random_form": False}


def test_report_stdin_stdout(monkeypatch, capsys):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(UNIT_DOC.read_text()))
    assert main(["report"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["V"] == "4"


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

REPORT_DEFAULTS = {"command": "report", "input": None, "output": None, "timings": False}
VERIFY_DEFAULTS = {**REPORT_DEFAULTS, "command": "verify", "corrupt": None}
FUZZ_DEFAULTS = {"command": "fuzz", "prime": 101, "samples": 40, "seed": 0,
                 "allow_degenerate": False, "random_form": False, "workers": 1, "output": None,
                 "timings": False}


# each expected value is what argparse gave for the same command line before `_parse_args`
@pytest.mark.parametrize("argv, args", [
    (["report", "--input=doc.json", "--output=-"],
     {**REPORT_DEFAULTS, "input": "doc.json", "output": "-"}),
    (["verify", "--inp", "doc.json", "--corrupt=E.01", "--ti"],
     {**VERIFY_DEFAULTS, "input": "doc.json", "corrupt": "E.01", "timings": True}),
    (["fuzz", "--prime", "101", "--sa", "40", "--se", "3", "--work=2", "--random-form",
      "--allow-degenerate"],
     {**FUZZ_DEFAULTS, "seed": 3, "workers": 2, "random_form": True, "allow_degenerate": True}),
    (["fuzz", "--samples", "40", "--prime=7", "--prime", "101"], FUZZ_DEFAULTS),
    (["verify", "--output", "a", "--output", "b", "--timings", "--timings"],
     {**VERIFY_DEFAULTS, "output": "b", "timings": True}),
    (["report", "--input", "-"], {**REPORT_DEFAULTS, "input": "-"}),
    (["fuzz", "--prime", "101", "--samples", "40", "--seed", "-1"], {**FUZZ_DEFAULTS, "seed": -1}),
])
def test_command_line_grammar(argv, args):
    # --flag=VALUE, unique prefixes, the last of a repeated flag, and a value that starts
    # with '-': it is the next token whatever it holds
    assert _parse_args(argv) == args


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["report", "--help"],
                                  ["fuzz", "--prime", "7", "-h"], ["verify", "--he"]])
def test_help_prints_the_usage_on_stdout_and_exits_0(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr() == (_USAGE + "\n", "")


def _unit_doc(**changes) -> str:
    return json.dumps({**json.loads(UNIT_DOC.read_text()), **changes})


UNIT_FORM = json.loads(UNIT_DOC.read_text())["form"]
REPEATED_POINT = [["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
INPUT_ERRORS = [  # argv, the document on stdin, the message
    (["report"], _unit_doc(field={"kind": "real"}),
     "field.kind: expected 'rational' or 'prime', got 'real'"),
    (["report"], _unit_doc(form=list(UNIT_FORM.values())),
     "form: expected an object with entries a1,a2,a3,b1,b2,b3"),
    (["verify"], _unit_doc(form={k: v for k, v in UNIT_FORM.items() if k != "b2"}),
     "form.b2: missing entry"),
    (["report"], _unit_doc(options=[]), "options: expected an object"),
    (["verify", "--corrupt", "R"], _unit_doc(points=REPEATED_POINT),
     "--corrupt R: entry is undefined"),
    (["fuzz", "--prime", "101", "--samples", "-1"], "", "--samples: expected a non-negative count"),
    (["fuzz", "--prime", "101", "--samples", "1", "--workers", "0"], "",
     "--workers: expected a positive count"),
]
USAGE_ERRORS = [  # argv, the message; each is followed by the usage
    ([], "expected a command, report, verify or fuzz, not None"),
    (["tally"], "expected a command, report, verify or fuzz, not 'tally'"),
    (["report", "--inputs", "doc.json"], "report: unknown or ambiguous option '--inputs'"),
    (["fuzz", "--prime", "101", "--s", "1"], "fuzz: unknown or ambiguous option '--s'"),
    (["report", "doc.json"], "report: unknown or ambiguous option 'doc.json'"),
    (["report", "--input"], "--input: expected a value"),
    (["verify", "--cor"], "--cor: expected a value"),
    (["report", "--timings=yes"], "--timings=yes: expected no value"),
    (["fuzz", "--prime", "seven", "--samples", "1"], "--prime: expected an integer, not 'seven'"),
    (["fuzz", "--prime", "101", "--samples=1.5"], "--samples: expected an integer, not '1.5'"),
    (["fuzz", "--samples", "1"], "fuzz: --prime and --samples are required"),
    (["fuzz", "--prime", "101"], "fuzz: --prime and --samples are required"),
]


@pytest.mark.parametrize("argv, stdin, message, usage", [
    *((argv, stdin, message, "") for argv, stdin, message in INPUT_ERRORS),
    *((argv, "", message, "\n" + _USAGE) for argv, message in USAGE_ERRORS)])
def test_every_input_error_returns_2_with_its_message(argv, stdin, message, usage, monkeypatch,
                                                      capsys):
    # each exit-2 path of the command line, of parsing and of fuzz's configuration: `main`
    # returns 2 (it raises no SystemExit), with nothing on stdout and one error on stderr,
    # which a command-line error follows with the usage
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}{usage}\n")


# ---------------------------------------------------------------------------
# start-up and --timings
# ---------------------------------------------------------------------------

def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


def test_cli_import_loads_no_pool_dataclasses_or_typing():
    # modules a fresh interpreter gains by importing the CLI; report and verify
    # must not pay for the process pool or for dataclasses' inspect/typing, and no
    # command for argparse, which imports gettext and, through it, locale
    proc = run_python("-c", "import sys; bare = set(sys.modules); import tetrig.cli; "
                            "print(*sorted(set(sys.modules) - bare))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.decode().split())
    assert "tetrig.cli" in loaded
    assert not loaded & {"concurrent.futures", "multiprocessing", "dataclasses", "inspect",
                         "typing", *ARGPARSE}
    for argv in (["report", "--input", str(UNIT_DOC)], ["verify", "--input", str(UNIT_DOC)],
                 ["fuzz", "--prime", "101", "--samples", "30"]):
        launch = ("import contextlib, io\nfrom tetrig.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    code = main({argv!r})\nprint(code)")
        printed, modules = _launch_modules(launch)
        assert printed == ["0"] and not set(modules) & set(ARGPARSE), argv


MIXED_CORNER = str(FIXTURES / "tri_rectangular_mixed_corner.json")


@pytest.mark.parametrize("argv, phases", [
    (["report", "--input", MIXED_CORNER],
     ["parse", "analyze", "serialise", "verify", "right corner"]),
    (["verify", "--input", MIXED_CORNER],
     ["parse", "analyze", "verify", "right corner", "serialise"]),
    (["fuzz", "--prime", "101", "--samples", str(2 * M), "--seed", "3", "--workers", "2"],
     ["pool start-up", "samples", "serialise"]),
    (["fuzz", "--prime", "101", "--samples", "6", "--seed", "3", "--workers", "2"],
     ["samples", "serialise"])])
def test_timings_go_to_stderr_and_leave_stdout_alone(argv, phases, monkeypatch, capsys):
    # two usable CPUs, so a fuzz run above the cut-over starts its pool on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code = main(argv)
    plain = capsys.readouterr()
    assert main(argv + ["--timings"]) == code
    timed = capsys.readouterr()
    assert timed.out == plain.out and plain.err == ""
    lines = [json.loads(line) for line in timed.err.splitlines()]
    assert [line["phase"] for line in lines] == phases
    assert all(line["ms"] >= 0 for line in lines)
    if argv[0] == "fuzz":
        samples = lines[phases.index("samples")]
        assert samples["samples_per_s"] > 0
        assert samples["processes"] == (2 if "pool start-up" in phases else 1)


def test_timings_time_the_import_under_python_m():
    fixture = str(FIXTURES / "unit_tri_rectangular.json")
    proc = run_python("-m", "tetrig", "report", "--timings", "--input", fixture)
    assert proc.returncode == 0
    assert proc.stdout == (FIXTURES / "golden" / "report-unit_tri_rectangular.json").read_bytes()
    lines = [json.loads(line) for line in proc.stderr.decode().splitlines()]
    assert [line["phase"] for line in lines] == ["import", "parse", "analyze", "serialise"]
    assert lines[0]["ms"] > 0 and lines[0]["process_cpu_ms"] > 0


def test_timings_count_the_command_import_as_import_under_python_m():
    # `verify` imports its command module after `__main__` imported the CLI; that import is
    # timed in the `import` line, and no other phase is added
    fixture = FIXTURES / "tall_literal_q.json"
    proc = run_python("-m", "tetrig", "verify", "--timings", "--input", str(fixture))
    assert proc.returncode == 0
    assert proc.stdout == (FIXTURES / "golden" / "verify-tall_literal_q.json").read_bytes()
    lines = [json.loads(line) for line in proc.stderr.decode().splitlines()]
    assert [line["phase"] for line in lines] == ["import", "parse", "analyze", "verify",
                                                 "serialise"]
    assert lines[0]["ms"] > 0 and lines[0]["process_cpu_ms"] > 0
