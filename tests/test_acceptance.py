"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact field equality; there are no tolerances anywhere.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import functools
import json
from pathlib import Path

from tetrig import (DegeneratePlane, FieldSpec, NotSkewOrDegenerate, NullCross,
                    NullCommonPerpendicular, NullDirection, NullNormal, Plane,
                    Point3, SymmetricForm, Tetrahedron, Triangle, TriLines,
                    analyze, b_cross, b_dot, det3, dihedral_spread,
                    dihedral_spread_common_edge, displacement, dual_solid_spread,
                    quad_scalar, quad_vector, quadrance, quadrance_vec, quadrea,
                    quadrume, quadrume_from_gram, quadrume_from_quadrances,
                    scalar_triple, skew_quadrance, skew_quadrance_closed_form,
                    solid_spread, spread_vectors, triple_of_crosses,
                    vector_triple, verify_identities, SKEW_PAIRINGS)
from tetrig.cli import main
from tetrig.document import document_from_obj
from tetrig.fuzz import FuzzConfig, run_fuzz
from support import Q, draw_tetrahedron, rand_form, rand_point, rand_vector, rng

F10007 = FieldSpec.prime(10007)
FIXTURES = Path(__file__).parent / "fixtures"

SAMPLES_PER_FORM = 350  # x3 form classes = 1050 tuples per field kind


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")
        return wrapper
    return decorate


def form_classes(spec, rnd):
    """Identity, diag(1,2,3), and a fresh random non-degenerate form."""
    diag = SymmetricForm.diagonal(spec.element(1), spec.element(2), spec.element(3))
    return (lambda: SymmetricForm.identity(spec), lambda: diag,
            lambda: rand_form(spec, rnd))


# ---------------------------------------------------------------------------
# criterion 1: products of vectors
# ---------------------------------------------------------------------------

def check_product_identities(v1, v2, v3, v4, form):
    det = form.det
    t123 = scalar_triple(v1, v2, v3, form)
    # full antisymmetry chain plus both determinant expressions
    assert t123 == scalar_triple(v2, v3, v1, form) == scalar_triple(v3, v1, v2, form)
    assert t123 == -scalar_triple(v1, v3, v2, form)
    assert t123 == -scalar_triple(v2, v1, v3, form)
    assert t123 == -scalar_triple(v3, v2, v1, form)
    assert t123 == det * det3(v1, v2, v3)
    # vector triple expansion
    expanded = (v2 * b_dot(v1, v3, form) - v3 * b_dot(v1, v2, form)) * det
    assert vector_triple(v1, v2, v3, form) == expanded
    # scalar quadruple expansion
    rhs = det * (b_dot(v1, v3, form) * b_dot(v2, v4, form)
                 - b_dot(v1, v4, form) * b_dot(v2, v3, form))
    assert quad_scalar(v1, v2, v3, v4, form) == rhs
    # cross quadrance expansion
    d12 = b_dot(v1, v2, form)
    lag = det * (quadrance_vec(v1, form) * quadrance_vec(v2, form) - d12 * d12)
    assert quadrance_vec(b_cross(v1, v2, form), form) == lag
    # vector quadruple, both expansions
    qv = quad_vector(v1, v2, v3, v4, form)
    assert qv == (v3 * scalar_triple(v1, v2, v4, form)
                  - v4 * scalar_triple(v1, v2, v3, form)) * det
    assert qv == (v2 * scalar_triple(v1, v3, v4, form)
                  - v1 * scalar_triple(v2, v3, v4, form)) * det
    # repeated-pair special case
    assert quad_vector(v1, v2, v1, v3, form) == v1 * (det * det * det3(v1, v2, v3))
    # triple product of the three pairwise crosses
    assert triple_of_crosses(v1, v2, v3, form) == det * t123 * t123


@criterion("ACCEPTANCE 1 (vector product identity suite)")
def test_criterion_1_vector_product_suite():
    rnd = rng(101)
    for spec in (Q, F10007):
        for make_form in form_classes(spec, rnd):
            for _ in range(SAMPLES_PER_FORM):
                form = make_form()
                vs = [rand_vector(spec, rnd, bound=100) for _ in range(4)]
                check_product_identities(*vs, form)


# ---------------------------------------------------------------------------
# criterion 2: triangle / tetrahedron invariant formulas
# ---------------------------------------------------------------------------

def check_quadrea_forms(points, form):
    a1, a2, a3 = points
    tri = Triangle(a1, a2, a3)
    scaled = form.det * quadrea(tri, form) / 4
    v12 = displacement(a1, a2)
    v23 = displacement(a2, a3)
    v31 = displacement(a3, a1)
    for u, w in ((v12, v31), (v12, v23), (v23, v31),
                 (-v12, -v31), (-v12, -v23), (-v23, -v31)):
        assert quadrance_vec(b_cross(u, w, form), form) == scaled


def check_quadrea_spread(points, form):
    """Returns False when a null quadrance makes the spreads undefined."""
    a1, a2, a3 = points
    q1 = quadrance(a2, a3, form)
    q2 = quadrance(a1, a3, form)
    q3 = quadrance(a1, a2, form)
    if q1.is_zero or q2.is_zero or q3.is_zero:
        return False
    s1 = spread_vectors(displacement(a1, a2), displacement(a1, a3), form)
    s2 = spread_vectors(displacement(a1, a2), displacement(a2, a3), form)
    s3 = spread_vectors(displacement(a1, a3), displacement(a2, a3), form)
    area = quadrea(Triangle(a1, a2, a3), form)
    assert area == 4 * q1 * q2 * s3 == 4 * q1 * q3 * s2 == 4 * q2 * q3 * s1
    return True


def check_quadrume_routes(points, form):
    tet = Tetrahedron(*points, form)
    v = quadrume(tet)
    assert v == quadrume_from_gram(tet)
    q = {key: quadrance(points[key[0]], points[key[1]], form)
         for key in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))}
    assert v == quadrume_from_quadrances(q[(0, 1)], q[(0, 2)], q[(0, 3)],
                                         q[(1, 2)], q[(1, 3)], q[(2, 3)])


def check_dihedral_factorization(spec, rnd, form, bound):
    base = rand_point(spec, rnd, bound)
    shared = rand_vector(spec, rnd, bound)
    w1 = rand_vector(spec, rnd, bound)
    w2 = rand_vector(spec, rnd, bound)
    try:
        p1, p2 = Plane(base, shared, w1), Plane(base, shared, w2)
    except DegeneratePlane:
        return None  # malformed sample, not a null-quadrance skip
    try:
        assert dihedral_spread(p1, p2, form) == dihedral_spread_common_edge(shared, w1, w2, form)
    except NullNormal:
        return False
    return True

def check_solid_factorizations(spec, rnd, form, bound):
    apex = rand_point(spec, rnd, bound)
    d1, d2, d3 = (rand_vector(spec, rnd, bound) for _ in range(3))
    try:
        lines = TriLines(apex, d1, d2, d3)
        p12, p13, p23 = (Plane(apex, u, w) for u, w in ((d1, d2), (d1, d3), (d2, d3)))
    except (ValueError, DegeneratePlane):
        return None
    try:
        total = solid_spread(lines, form)
        s12 = spread_vectors(d1, d2, form)
        s13 = spread_vectors(d1, d3, form)
        s23 = spread_vectors(d2, d3, form)
        e12_13 = dihedral_spread(p12, p13, form)
        e12_23 = dihedral_spread(p12, p23, form)
        e13_23 = dihedral_spread(p13, p23, form)
        assert total == e12_13 * s12 * s13 == e12_23 * s12 * s23 == e13_23 * s13 * s23
        dual = dual_solid_spread(lines, form)
        t = scalar_triple(d1, d2, d3, form)
        qn = (quadrance_vec(b_cross(d1, d2, form), form)
              * quadrance_vec(b_cross(d1, d3, form), form)
              * quadrance_vec(b_cross(d2, d3, form), form))
        assert dual == form.det * t ** 4 / qn
        assert dual == s12 * e12_13 * e12_23 == s13 * e12_13 * e13_23 == s23 * e12_23 * e13_23
    except (NullDirection, NullNormal, NullCross):
        return False
    return True


@criterion("ACCEPTANCE 2 (triangle and tetrahedron formula suite)")
def test_criterion_2_invariant_formula_suite():
    rnd = rng(102)
    for spec, bound in ((Q, 100), (F10007, 100)):
        applicable = 0
        for make_form in form_classes(spec, rnd):
            for _ in range(SAMPLES_PER_FORM):
                form = make_form()
                tri_points = [rand_point(spec, rnd, bound) for _ in range(3)]
                check_quadrea_forms(tri_points, form)
                if check_quadrea_spread(tri_points, form):
                    applicable += 1
                tet_points = [rand_point(spec, rnd, bound) for _ in range(4)]
                check_quadrume_routes(tet_points, form)
                outcome = check_dihedral_factorization(spec, rnd, form, bound)
                if outcome:
                    applicable += 1
                outcome = check_solid_factorizations(spec, rnd, form, bound)
                if outcome:
                    applicable += 1
        # the suite must actually exercise the factorizations, not skip them
        assert applicable > 2 * SAMPLES_PER_FORM


# ---------------------------------------------------------------------------
# criterion 3: whole-tetrahedron identity fuzzing
# ---------------------------------------------------------------------------

@criterion("ACCEPTANCE 3 (fuzz --prime 101 --samples 1000 --seed 42)")
def test_criterion_3_fuzz_run():
    summary, code = run_fuzz(FuzzConfig(prime=101, samples=1000, seed=42))
    assert code == 0
    assert summary["failures"] == []
    rows = summary["identities"]
    for name, row in rows.items():
        assert row["checked"] == row["passed"] + row["inapplicable"], name
        assert row["passed"] > 0, name
    # skew quadrances get re-derived from randomly moved line points
    assert rows["skew-quadrance-projection"]["checked"] == 3000


# ---------------------------------------------------------------------------
# criterion 4: unit tri-rectangular desk values
# ---------------------------------------------------------------------------

@criterion("ACCEPTANCE 4 (unit tri-rectangular desk values)")
def test_criterion_4_desk_values():
    spec = Q
    el = spec.element
    tet = Tetrahedron(Point3.of(spec, 0, 0, 0), Point3.of(spec, 1, 0, 0),
                      Point3.of(spec, 0, 1, 0), Point3.of(spec, 0, 0, 1),
                      SymmetricForm.identity(spec))
    rep = analyze(tet)
    a = rep.quadreas
    assert rep.quadrume == el(4)
    assert a[(1, 2, 3)] == el(12) == a[(0, 1, 2)] + a[(0, 1, 3)] + a[(0, 2, 3)]
    e = rep.dihedral_spreads
    assert e[(1, 2)] == e[(1, 3)] == e[(2, 3)] == el(2) / 3
    assert e[(1, 2)] + e[(1, 3)] + e[(2, 3)] == el(2)
    s = rep.solid_spreads
    assert s[1] == s[2] == s[3] == el(1) / 4
    assert (1 - s[1] - s[2] - s[3]) ** 2 == 4 * s[1] * s[2] * s[3]
    d = rep.dual_solid_spreads
    assert d[1] == d[2] == d[3] == el(1) / 3
    assert d[1] + d[2] + d[3] == el(1)
    # the ratio constant three ways: direct, opposite-dihedral products,
    # dual-solid over opposite quadrea
    third = el(1) / 3
    assert rep.ratio_constant == third
    assert e[(0, 1)] * e[(2, 3)] / (rep.quadrances[(0, 1)] * rep.quadrances[(2, 3)]) == third
    assert 4 * d[0] / a[(1, 2, 3)] == third
    assert rep.skew_quadrances[((0, 1), (2, 3))] == el(1) / 2


# ---------------------------------------------------------------------------
# criterion 5: skew denominator adjudication
# ---------------------------------------------------------------------------

@criterion("ACCEPTANCE 5 (skew quadrance denominator adjudication)")
def test_criterion_5_skew_denominator():
    rnd = rng(105)
    spec = F10007
    pairing = ((0, 3), (1, 2))
    compared = 0
    while compared < 1000:
        form = (SymmetricForm.identity(spec) if compared % 2 else rand_form(spec, rnd))
        points = [rand_point(spec, rnd, bound=100) for _ in range(4)]
        tet = Tetrahedron(*points, form)
        try:
            projected = skew_quadrance(tet, pairing)
        except (NotSkewOrDegenerate, NullCommonPerpendicular):
            continue
        assert projected == skew_quadrance_closed_form(tet, pairing)
        compared += 1

    # frozen counterexample: a denominator that reuses the 02;13 pattern
    # disagrees with the projection value
    fixture = json.loads((FIXTURES / "skew_denominator_counterexample.json").read_text())
    doc = document_from_obj(fixture["input"])
    scale, coords = doc.coordinates
    tet = draw_tetrahedron(doc.form, coords, scale)
    rep = analyze(tet)
    q = rep.quadrances
    for key, literal in fixture["quadrances"].items():
        assert q[(int(key[0]), int(key[1]))] == tet.spec.element(int(literal))
    projected = skew_quadrance(tet, pairing)
    assert projected == tet.spec.element(4) / 5
    assert projected == skew_quadrance_closed_form(tet, pairing)
    misprint_den = (4 * q[(0, 2)] * q[(1, 3)]
                    - (q[(0, 1)] + q[(2, 3)] - q[(0, 3)] - q[(1, 2)]) ** 2)
    misprinted = rep.quadrume / misprint_den
    assert misprinted == tet.spec.element(9) / 10
    assert misprinted != projected


# ---------------------------------------------------------------------------
# criterion 6: negative controls and exit codes
# ---------------------------------------------------------------------------

def every_entry_key():
    for key in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        yield ("quadrances", key)
        yield ("dihedral_spreads", key)
    for key in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        yield ("quadreas", key)
    yield ("quadrume", None)
    yield ("ratio_constant", None)
    for i in range(4):
        yield ("solid_spreads", i)
        yield ("dual_solid_spreads", i)
    for i in range(4):
        others = [m for m in range(4) if m != i]
        for a in range(3):
            for b in range(a + 1, 3):
                yield ("face_spreads", (i, others[a], others[b]))
    for pairing in SKEW_PAIRINGS:
        yield ("skew_quadrances", pairing)


@criterion("ACCEPTANCE 6 (single-entry mutations flip a verdict; exit codes)")
def test_criterion_6_negative_controls(tmp_path, capsys):
    spec = Q
    tet = Tetrahedron(Point3.of(spec, 0, 0, 0), Point3.of(spec, 1, 0, 0),
                      Point3.of(spec, 0, 1, 0), Point3.of(spec, 0, 0, 1),
                      SymmetricForm.identity(spec))
    mutated_count = 0
    for section, key in every_entry_key():
        rep = analyze(tet)
        if key is None:
            setattr(rep, section, getattr(rep, section) + spec.one())
        else:
            table = getattr(rep, section)
            table[key] = table[key] + spec.one()
        results = verify_identities(rep)
        assert results.failures, f"mutating {section}[{key}] flipped no verdict"
        mutated_count += 1
    assert mutated_count == 41

    fixture = str(FIXTURES / "unit_tri_rectangular.json")
    assert main(["verify", "--input", fixture, "--output",
                 str(tmp_path / "ok.json")]) == 0
    assert main(["verify", "--input", fixture, "--corrupt", "A.123", "--output",
                 str(tmp_path / "corrupt.json")]) == 1
    assert main(["verify", "--input", str(FIXTURES / "invalid_bad_literal.json"),
                 "--output", str(tmp_path / "invalid.json")]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# criterion 7: reproducibility across worker counts
# ---------------------------------------------------------------------------

@criterion("ACCEPTANCE 7 (byte-identical fuzz summaries across workers)")
def test_criterion_7_reproducibility():
    # above the cut-over of --workers, so a pool runs wherever two CPUs are usable
    cfg = dict(prime=101, samples=600, seed=7)
    serialized = []
    for workers in (1, 3):
        summary, code = run_fuzz(FuzzConfig(**cfg, workers=workers))
        assert code == 0
        serialized.append(json.dumps(summary, indent=2))
    assert serialized[0] == serialized[1]
