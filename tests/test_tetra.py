"""Invariant reports, identity verification, skew quadrances, tri-rectangular checks."""

import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from tetrig import (EDGES, FACES, SKEW_PAIRINGS, DegenerateParams,
                    DegeneratePlane, FieldSpec, NotSkewOrDegenerate,
                    NotTriRectangular, NullCommonPerpendicular, NullCross,
                    NullDirection, NullNormal, NullPivot, Point3, SymmetricForm,
                    Tetrahedron, Triangle, TriLines, TriRectParams, Undefined,
                    Vector3, analyze, b_cross, b_dot, dihedral_spread,
                    dual_solid_spread, is_defined, plane_through, quadrance,
                    quadrance_vec, quadrea, quadrume, quadrume_from_gram,
                    skew_quadrance, skew_quadrance_closed_form, solid_spread,
                    spread_vectors, translate, tri_rectangular_checks,
                    tri_rectangular_frame, verify_identities)
from tetrig.document import load_document
from tetrig.trig import corner_params
from support import Q, rand_element, rand_form, rand_point, rng

F7 = FieldSpec.prime(7)
F101 = FieldSpec.prime(101)


def pt(spec, x, y, z):
    return Point3.of(spec, x, y, z)


def vec(spec, x, y, z):
    return Vector3.of(spec, x, y, z)


def unit_tri_rect(spec):
    return Tetrahedron(pt(spec, 0, 0, 0), pt(spec, 1, 0, 0), pt(spec, 0, 1, 0),
                       pt(spec, 0, 0, 1), SymmetricForm.identity(spec))


def rand_tet(spec, rnd, form=None):
    if form is None:
        form = rand_form(spec, rnd)
    return Tetrahedron(rand_point(spec, rnd), rand_point(spec, rnd),
                       rand_point(spec, rnd), rand_point(spec, rnd), form)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_unit_tri_rectangular_desk_values():
    rep = analyze(unit_tri_rect(Q))
    el = Q.element
    half, third, quarter = el(1) / 2, el(1) / 3, el(1) / 4
    assert rep.quadrume == el(4)
    assert rep.quadreas == {(0, 1, 2): el(4), (0, 1, 3): el(4), (0, 2, 3): el(4),
                            (1, 2, 3): el(12)}
    for j in (1, 2, 3):
        assert rep.dihedral_spreads[(0, j)] == el(1)
    for key in ((1, 2), (1, 3), (2, 3)):
        assert rep.dihedral_spreads[key] == el(2) / 3
    assert rep.solid_spreads == {0: el(1), 1: quarter, 2: quarter, 3: quarter}
    assert rep.dual_solid_spreads == {0: el(1), 1: third, 2: third, 3: third}
    assert rep.ratio_constant == third
    for pairing in SKEW_PAIRINGS:
        assert rep.skew_quadrances[pairing] == half
    for key in ((0, 1, 2), (0, 1, 3), (0, 2, 3)):
        assert rep.face_spreads[key] == el(1)
    assert rep.face_spreads[(1, 0, 2)] == half
    assert rep.face_spreads[(1, 2, 3)] == el(3) / 4


def test_analyze_repeated_point_marks_undefined():
    tet = Tetrahedron(pt(Q, 0, 0, 0), pt(Q, 0, 0, 0), pt(Q, 1, 0, 0),
                      pt(Q, 0, 1, 0), SymmetricForm.identity(Q))
    rep = analyze(tet)
    assert rep.quadrume.is_zero
    assert rep.face_spreads[(0, 1, 2)] == Undefined("NullEdge")
    assert rep.dihedral_spreads[(0, 1)] == Undefined("NullNormal")
    assert rep.solid_spreads[0] == Undefined("NullEdge")
    assert rep.dual_solid_spreads[0] == Undefined("NullNormal")
    assert rep.ratio_constant == Undefined("ZeroQuadrea")


def test_analyze_planar_quadrilateral_is_mostly_zero():
    # coplanar with four proper faces: everything defined, volume-like
    # quantities vanish
    tet = Tetrahedron(pt(Q, 0, 0, 0), pt(Q, 1, 0, 0), pt(Q, 0, 1, 0),
                      pt(Q, 1, 2, 0), SymmetricForm.identity(Q))
    rep = analyze(tet)
    assert rep.quadrume.is_zero
    for i in range(4):
        assert rep.solid_spreads[i].is_zero
        assert rep.dual_solid_spreads[i].is_zero
    assert rep.ratio_constant.is_zero
    skew = rep.skew_quadrances[((0, 1), (2, 3))]
    assert is_defined(skew) and skew.is_zero


def test_analyze_null_edge_over_f7():
    tet = Tetrahedron(pt(F7, 0, 0, 0), pt(F7, 1, 2, 3), pt(F7, 0, 1, 0),
                      pt(F7, 0, 0, 1), SymmetricForm.identity(F7))
    rep = analyze(tet)
    assert rep.quadrances[(0, 1)].is_zero
    assert rep.face_spreads[(0, 1, 2)] == Undefined("NullEdge")
    assert rep.face_spreads[(1, 0, 2)] == Undefined("NullEdge")
    assert rep.solid_spreads[0] == Undefined("NullEdge")
    assert rep.face_spreads[(2, 0, 1)] != Undefined("NullEdge")


def _undefined_on(reason, compute, *errors):
    """Value of compute(), or Undefined(reason) when it raises one of errors."""
    try:
        return compute()
    except errors:
        return Undefined(reason)


def _trig_entry(compute):
    """Value of a trig spread, or the Undefined that analyze reports when a
    face normal vanishes or has quadrance zero."""
    return _undefined_on("NullNormal", compute, DegeneratePlane, NullNormal, NullCross)


def _trig_dual_solid(tet, i):
    j, k, l = (m for m in range(4) if m != i)
    try:
        lines = TriLines(tet.vertex(i), tet.edge_vector(i, j), tet.edge_vector(i, k),
                         tet.edge_vector(i, l))
    except ValueError:  # a repeated point: its edge and the faces on it are null
        return Undefined("NullNormal")
    return _trig_entry(lambda: dual_solid_spread(lines, tet.form))


def _tall_point(rnd):
    """Rational point with 6-digit numerators and denominators up to 999."""
    return Point3(*(Q.element(Fraction(rnd.choice((-1, 1)) * rnd.randint(100_000, 999_999),
                                       rnd.randint(1, 999))) for _ in range(3)))


@pytest.mark.parametrize("spec, tall, count", [
    (Q, False, 200), (Q, True, 100), (FieldSpec.prime(3), False, 100),
    (FieldSpec.prime(5), False, 100), (F7, False, 200), (FieldSpec.prime(10007), False, 200),
    (FieldSpec.prime(2**61 - 1), False, 100)],
    ids=["Q", "Q-tall", "F_3", "F_5", "F_7", "F_10007", "F_2305843009213693951"])
def test_analyze_shared_normals_agree_with_trig(spec, tall, count):
    # analyze evaluates every entry on integers as (num, den), builds each face
    # normal once, and makes an entry Undefined exactly where its own den
    # vanishes; the FieldElement routes of trig and skew_quadrance build
    # everything afresh and raise where a quadrance they divide by vanishes
    rnd = rng(41)
    reasons = set()
    for _ in range(count):
        form = rand_form(spec, rnd)
        tet = (Tetrahedron(*(_tall_point(rnd) for _ in range(4)), form) if tall
               else rand_tet(spec, rnd, form))
        rep = analyze(tet)
        P = tet.vertex
        for (i, j) in EDGES:
            assert rep.quadrances[(i, j)] == quadrance(P(i), P(j), form)
        vol = quadrume(tet)
        assert rep.quadrume == vol == quadrume_from_gram(tet)
        for (i, j, k) in FACES:
            assert rep.quadreas[(i, j, k)] == quadrea(Triangle(P(i), P(j), P(k)), form)
            n = b_cross(tet.edge_vector(i, j), tet.edge_vector(i, k), form)
            assert quadrance_vec(n, form) * 4 == form.det * rep.quadreas[(i, j, k)]
        for (i, j, k), entry in rep.face_spreads.items():
            assert entry == _undefined_on("NullEdge", lambda: spread_vectors(
                tet.edge_vector(i, j), tet.edge_vector(i, k), form), NullDirection)
        for (i, j) in EDGES:
            k, l = (m for m in range(4) if m not in (i, j))
            expected = _trig_entry(lambda: dihedral_spread(
                plane_through(P(i), P(j), P(k)), plane_through(P(i), P(j), P(l)), form))
            assert rep.dihedral_spreads[(i, j)] == expected
        for i in range(4):
            j, k, l = (m for m in range(4) if m != i)
            assert rep.solid_spreads[i] == _undefined_on("NullEdge", lambda: solid_spread(
                TriLines(P(i), tet.edge_vector(i, j), tet.edge_vector(i, k),
                         tet.edge_vector(i, l)), form), NullDirection, ValueError)
            assert rep.dual_solid_spreads[i] == _trig_dual_solid(tet, i)
        prod_a = rep.quadreas[(0, 1, 2)] * rep.quadreas[(0, 1, 3)] * rep.quadreas[(0, 2, 3)]
        prod_a = prod_a * rep.quadreas[(1, 2, 3)]
        assert rep.ratio_constant == (Undefined("ZeroQuadrea") if prod_a.is_zero
                                      else vol * vol * 16 / prod_a)
        for pairing in SKEW_PAIRINGS:
            assert rep.skew_quadrances[pairing] == _undefined_on(
                "ZeroDenominator", lambda: skew_quadrance(tet, pairing),
                NotSkewOrDegenerate, NullCommonPerpendicular)
        entries = [rep.ratio_constant]
        for table in (rep.face_spreads, rep.dihedral_spreads, rep.solid_spreads,
                      rep.dual_solid_spreads, rep.skew_quadrances):
            entries.extend(table.values())
        reasons |= {e.reason for e in entries if not is_defined(e)}
    if spec.p in (3, 5, 7):
        assert reasons == {"NullEdge", "NullNormal", "ZeroQuadrea", "ZeroDenominator"}


def _ekey(perm, i, j):
    return tuple(sorted((perm[i], perm[j])))


def _fkey(perm, i, j, k):
    return tuple(sorted((perm[i], perm[j], perm[k])))


def _pairing_image(perm, pairing):
    (a, b), (c, d) = pairing
    first = tuple(sorted((perm[a], perm[b])))
    second = tuple(sorted((perm[c], perm[d])))
    return (first, second) if first[0] == 0 else (second, first)


def test_analyze_permutation_covariance():
    rnd = rng(50)
    spec = F101
    perms = list(itertools.permutations(range(4)))
    for _ in range(10):
        form = rand_form(spec, rnd)
        points = [rand_point(spec, rnd) for _ in range(4)]
        base = analyze(Tetrahedron(*points, form))
        perm = rnd.choice(perms)
        relabeled = analyze(Tetrahedron(*(points[perm[i]] for i in range(4)), form))
        for (i, j) in EDGES:
            assert relabeled.quadrances[(i, j)] == base.quadrances[_ekey(perm, i, j)]
            assert relabeled.dihedral_spreads[(i, j)] == base.dihedral_spreads[_ekey(perm, i, j)]
        for (i, j, k) in FACES:
            assert relabeled.quadreas[(i, j, k)] == base.quadreas[_fkey(perm, i, j, k)]
        assert relabeled.quadrume == base.quadrume
        assert relabeled.ratio_constant == base.ratio_constant
        for i in range(4):
            assert relabeled.solid_spreads[i] == base.solid_spreads[perm[i]]
            assert relabeled.dual_solid_spreads[i] == base.dual_solid_spreads[perm[i]]
        for (i, j, k) in relabeled.face_spreads:
            src = (perm[i],) + tuple(sorted((perm[j], perm[k])))
            assert relabeled.face_spreads[(i, j, k)] == base.face_spreads[src]
        for pairing in SKEW_PAIRINGS:
            image = _pairing_image(perm, pairing)
            assert relabeled.skew_quadrances[pairing] == base.skew_quadrances[image]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_unit_tri_rectangular_all_pass():
    results = verify_identities(analyze(unit_tri_rect(Q)))
    counts = results.counts()
    assert counts["fail"] == 0 and counts["inapplicable"] == 0
    assert counts["pass"] == len(results.verdicts) == 41


def test_verify_random_rational_tetrahedra():
    rnd = rng(51)
    for _ in range(15):
        results = verify_identities(analyze(rand_tet(Q, rnd)))
        assert results.all_applicable_pass


def test_verify_random_prime_field_tetrahedra():
    rnd = rng(52)
    for _ in range(150):
        results = verify_identities(analyze(rand_tet(F101, rnd)))
        assert results.all_applicable_pass


def test_verify_thousand_f10007_tetrahedra():
    rnd = rng(55)
    spec = FieldSpec.prime(10007)
    identity = SymmetricForm.identity(spec)
    for n in range(1000):
        form = identity if n % 2 else rand_form(spec, rnd)
        results = verify_identities(analyze(rand_tet(spec, rnd, form)))
        assert results.all_applicable_pass


def test_verify_flipped_dihedral_fails_ratio_identity():
    rep = analyze(unit_tri_rect(Q))
    rep.dihedral_spreads[(0, 1)] = rep.dihedral_spreads[(0, 1)] + Q.one()
    results = verify_identities(rep)
    failed = {(v.identity, v.instance) for v in results.failures}
    assert ("dihedral-spread-ratio", "01|23") in failed


# ---------------------------------------------------------------------------
# skew quadrances
# ---------------------------------------------------------------------------

def test_skew_quadrance_unit_tri_rectangular():
    tet = unit_tri_rect(Q)
    got = skew_quadrance(tet, ((0, 1), (2, 3)))
    # 4 / (4 * 1 * 2 - 0^2)
    assert got == Q.element(4) / (Q.element(4) * Q.element(1) * Q.element(2))
    assert got == Q.one() / 2


def test_skew_quadrance_point_independence():
    rnd = rng(53)
    for spec in (Q, F101):
        done = 0
        while done < 25:
            tet = rand_tet(spec, rnd)
            for pairing in SKEW_PAIRINGS:
                try:
                    fixed = skew_quadrance(tet, pairing)
                except (NotSkewOrDegenerate, NullCommonPerpendicular):
                    continue
                assert fixed == skew_quadrance_closed_form(tet, pairing)
                for _ in range(3):
                    params = (rand_element(spec, rnd), rand_element(spec, rnd))
                    assert skew_quadrance(tet, pairing, params=params) == fixed
                done += 1


def test_skew_quadrance_parallel_edges_raise():
    # edge 01 and edge 23 both run along (1,0,0)
    tet = Tetrahedron(pt(Q, 0, 0, 0), pt(Q, 1, 0, 0), pt(Q, 0, 1, 0),
                      pt(Q, 1, 1, 0), SymmetricForm.identity(Q))
    with pytest.raises(NotSkewOrDegenerate):
        skew_quadrance(tet, ((0, 1), (2, 3)))


def test_skew_quadrance_null_perpendicular_raises():
    # edges (1,0,0) and (0,1,3): cross (0,-3,1) has quadrance 10 = 0 mod 5
    spec = FieldSpec.prime(5)
    tet = Tetrahedron(pt(spec, 0, 0, 0), pt(spec, 1, 0, 0), pt(spec, 0, 0, 1),
                      pt(spec, 0, 1, 4), SymmetricForm.identity(spec))
    with pytest.raises(NullCommonPerpendicular):
        skew_quadrance(tet, ((0, 1), (2, 3)))


# ---------------------------------------------------------------------------
# tri-rectangular machinery
# ---------------------------------------------------------------------------

def test_frame_identity_and_diagonal_forms():
    frame = tri_rectangular_frame(SymmetricForm.identity(Q))
    assert frame == (vec(Q, 1, 0, 0), vec(Q, 0, 1, 0), vec(Q, 0, 0, 1))
    diag = SymmetricForm.diagonal(Q.element(1), Q.element(2), Q.element(3))
    assert tri_rectangular_frame(diag) == (vec(Q, 1, 0, 0), vec(Q, 0, 1, 0),
                                           vec(Q, 0, 0, 1))


def test_frame_off_diagonal_sweep():
    # b3 = 1 couples the first two basis vectors
    form = SymmetricForm(Q.element(2), Q.element(1), Q.element(1),
                         Q.zero(), Q.zero(), Q.one())
    v1, v2, v3 = tri_rectangular_frame(form)
    assert v1 == vec(Q, 1, 0, 0)
    # e2 - (b_dot(e1, e2) / Q(e1)) e1
    assert v2 == vec(Q, 0, 1, 0) - vec(Q, 1, 0, 0) * (Q.one() / 2)
    for a, b in ((v1, v2), (v1, v3), (v2, v3)):
        assert b_dot(a, b, form).is_zero
    for v in (v1, v2, v3):
        assert not quadrance_vec(v, form).is_zero


def test_frame_null_pivot():
    # Q(e1) = 0 for this non-degenerate form
    form = SymmetricForm(Q.zero(), Q.zero(), Q.one(),
                         Q.zero(), Q.zero(), Q.one())
    with pytest.raises(NullPivot):
        tri_rectangular_frame(form)


def test_tri_rectangular_checks_unit_corner():
    results = tri_rectangular_checks(analyze(unit_tri_rect(Q)))
    counts = results.counts()
    assert counts["fail"] == 0 and counts["inapplicable"] == 0


def test_tri_rectangular_checks_mixed_corner_quadrances():
    # K = (1, 2, 3) realized by unit axes under diag(1, 2, 3)
    spec = Q
    form = SymmetricForm.diagonal(spec.element(1), spec.element(2), spec.element(3))
    tet = Tetrahedron(pt(spec, 0, 0, 0), pt(spec, 1, 0, 0), pt(spec, 0, 1, 0),
                      pt(spec, 0, 0, 1), form)
    rep = analyze(tet)
    assert rep.solid_spreads[1] == spec.element(6) / (spec.element(3) * spec.element(4))
    results = tri_rectangular_checks(rep)
    assert results.all_applicable_pass
    s1, s2, s3 = (rep.solid_spreads[i] for i in (1, 2, 3))
    assert (1 - s1 - s2 - s3) ** 2 == 4 * s1 * s2 * s3


def test_tri_rectangular_checks_rejects_skewed_corner():
    tet = Tetrahedron(pt(Q, 0, 0, 0), pt(Q, 1, 0, 0), pt(Q, 1, 1, 0),
                      pt(Q, 0, 0, 1), SymmetricForm.identity(Q))
    with pytest.raises(NotTriRectangular):
        tri_rectangular_checks(analyze(tet))


def test_tri_rectangular_params_degenerate_sum():
    spec = F7
    with pytest.raises(DegenerateParams):
        TriRectParams(spec.element(3), spec.element(4), spec.element(1))
    with pytest.raises(DegenerateParams):
        TriRectParams(spec.element(0), spec.element(1), spec.element(1))


def _corner_params_reference(tet):
    """`corner_params` by the FieldElement route: the form's dot and quadrance of the
    edge vectors at vertex 0."""
    form = tet.form
    v1, v2, v3 = (tet.edge_vector(0, j) for j in (1, 2, 3))
    if not (form.dot(v1, v2).is_zero and form.dot(v1, v3).is_zero
            and form.dot(v2, v3).is_zero):
        raise NotTriRectangular("corner edge vectors are not mutually B-perpendicular")
    return TriRectParams(form.quadrance(v1), form.quadrance(v2), form.quadrance(v3))


def _corner_outcome(route, tet):
    """K1, K2, K3 of `route`, or the name and message of what it raised."""
    try:
        params = route(tet)
    except (NotTriRectangular, DegenerateParams) as exc:
        return type(exc).__name__, str(exc)
    return params.k1, params.k2, params.k3


@pytest.mark.parametrize("fixture", ["unit_tri_rectangular", "tri_rectangular_mixed_corner",
                                     "tri_rectangular_f101"])
def test_corner_params_matches_the_element_route_on_fixtures(fixture):
    path = Path(__file__).parent / "fixtures" / f"{fixture}.json"
    tet = load_document(path.read_text()).tetrahedron
    params = _corner_outcome(corner_params, tet)
    assert params == _corner_outcome(_corner_params_reference, tet)
    assert all(is_defined(k) for k in params)


@pytest.mark.parametrize("spec, tall", [(Q, False), (Q, True), (F7, False), (F101, False)],
                         ids=["Q", "Q-tall", "F_7", "F_101"])
def test_corner_params_matches_the_element_route(spec, tall):
    # the integer corner_params gives the K values, or raises the same exception with
    # the same message, as the form's dot and quadrance on FieldElements
    rnd = rng(62)
    point = (lambda: _tall_point(rnd)) if tall else (lambda: rand_point(spec, rnd))
    seen = set()
    for n in range(160):
        form = rand_form(spec, rnd)
        base = point()
        if n % 4 == 0:  # four random points: no right corner, as a rule
            tet = Tetrahedron(base, point(), point(), point(), form)
        else:
            try:
                frame = list(tri_rectangular_frame(form))
            except NullPivot:
                continue
            if n % 4 == 1:  # one pair of corner edges, in turn, made not B-perpendicular
                j = n // 4 % 3
                frame[j] = frame[j] + frame[(j + 1) % 3]
            # each frame vector scaled by a small element, zero included, so some
            # corner quadrances vanish and (over F_p) some sums do
            scales = (spec.element(rnd.randint(-3, 3)) / spec.element(rnd.randint(1, 3))
                      for _ in frame)
            tet = Tetrahedron(base, *(translate(base, v * k) for v, k in zip(frame, scales)),
                              form)
        outcome = _corner_outcome(corner_params, tet)
        assert outcome == _corner_outcome(_corner_params_reference, tet)
        seen.add(outcome[1] if isinstance(outcome[0], str) else "K values")
    assert {"K values", "corner edge vectors are not mutually B-perpendicular",
            "a corner quadrance is zero"} <= seen
    if spec is F7:
        assert {"an opposite edge quadrance K_i + K_j is zero",
                "the face quadrea opposite the corner is zero"} <= seen


def test_tri_rectangular_checks_random_frames():
    rnd = rng(54)
    done = 0
    while done < 10:
        form = rand_form(F101, rnd)
        try:
            v1, v2, v3 = tri_rectangular_frame(form)
        except NullPivot:
            continue
        base = rand_point(F101, rnd)
        tet = Tetrahedron(base, translate(base, v1), translate(base, v2),
                          translate(base, v3), form)
        try:
            results = tri_rectangular_checks(analyze(tet))
        except DegenerateParams:
            continue
        assert results.all_applicable_pass
        done += 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_one_inversion_per_table_equals_one_per_entry(p):
    # over F_p the canonical table inverts the product of its nonzero dens once
    # (`_residue_table`); inverting each den on its own gives the same table, with none,
    # some or all of the entries Undefined (den 0 mod p), and on the kernel's tables
    from tetrig.tetra import _analyze_parts, _report_table, _residue_table

    def per_entry(parts):
        return [(num * pow(den, -1, p) % p, 1) if den % p else (1, 0) for num, den in parts]
    rnd = rng(p)
    for undefined in (lambda n: False, lambda n: n % 3 == 1, lambda n: True):
        for size in (0, 1, 2, 41):
            for _ in range(30):
                parts = [(rnd.randrange(-9 * p, 9 * p),
                          p * rnd.randrange(-9, 10) if undefined(n)
                          else rnd.choice((-1, 1)) * (p * rnd.randrange(9) + rnd.randrange(1, p)))
                         for n in range(size)]
                assert _residue_table(p, parts) == per_entry(parts), parts
    spec, with_undefined = FieldSpec.prime(p), 0
    for _ in range(200):
        form = rand_form(spec, rnd)
        coords = [rnd.randrange(p) for _ in range(12)]
        table = _report_table(form, 1, coords)
        assert table == per_entry(_analyze_parts(form, 1, coords))
        with_undefined += (1, 0) in table
    assert with_undefined > 0
