"""`verify_identities` and `tri_rectangular_checks` against a plain
Fraction / residue reference.

The reference reads every report entry as a `Fraction` over Q or a residue
over F_p, evaluates both sides of each identity (or each right-corner closed
form and sum relation, from K1, K2, K3 of the tetrahedron) in that arithmetic
and compares them; the library cross-multiplies integer pairs instead.  The
two must agree verdict for verdict, on clean reports (where every applicable
relation holds) and after any one defined entry is bumped by 1, as
`tetrig verify --corrupt` does.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from tetrig import (EDGES, FACES, SKEW_PAIRINGS, DegenerateParams, FieldSpec,
                    InvariantReport, NullPivot, Point3, Tetrahedron, Undefined, analyze,
                    is_defined, translate, tri_rectangular_checks, tri_rectangular_frame,
                    verify_identities)
from tetrig.corner import _sum
from tetrig.document import _SECTIONS, ReportOptions, _corrupt, _report_obj, load_document
from tetrig.tetra import _ENTRIES, _analyze_parts, _by_field, _gram, _report_table
from tetrig.trig import _report_parts, _scaled_coordinates, report_to_obj
from support import Q, draw_tetrahedron, rand_form, rand_point, rng, verify_row

FIXTURES = Path(__file__).parent / "fixtures"

VERTICES = range(4)


def _rest(*fixed):
    return [m for m in VERTICES if m not in fixed]


def entry_reader(p):
    """Reads a report entry as a Fraction over Q (p None) or as a residue mod p;
    None where it is Undefined."""
    def val(entry):
        if not is_defined(entry):
            return None
        return Fraction(entry.numerator, entry.denominator) if p is None else entry.residue
    return val


def reference_verdicts(report):
    p = report.tetrahedron.spec.p
    val = entry_reader(p)

    def table(entries):
        return {key: val(entry) for key, entry in entries.items()}

    q = table(report.quadrances)
    q.update({(j, i): x for (i, j), x in list(q.items())})
    a, s = table(report.quadreas), table(report.face_spreads)
    e, sol, dual = (table(report.dihedral_spreads), table(report.solid_spreads),
                    table(report.dual_solid_spreads))
    skew = table(report.skew_quadrances)
    vol, rich = val(report.quadrume), val(report.ratio_constant)
    out = []

    def check(identity, instance, entries, lhs, rhs):
        if any(x is None for x in entries):
            status = "inapplicable"
        else:
            diff = lhs() - rhs()
            status = "pass" if (diff == 0 if p is None else diff % p == 0) else "fail"
        out.append((identity, instance, status))

    def spread(apex, j, k):
        return s[(apex, min(j, k), max(j, k))]

    def face(*vertices):
        return a[tuple(sorted(vertices))]

    for i in VERTICES:
        x, y, z = _rest(i)
        lhs = [spread(x, i, y), spread(y, i, z), spread(z, i, x)]
        rhs = [spread(x, i, z), spread(y, i, x), spread(z, i, y)]
        check("alternating-spreads", f"vertex-{i}", lhs + rhs,
              lambda: lhs[0] * lhs[1] * lhs[2], lambda: rhs[0] * rhs[1] * rhs[2])
    for i, j in EDGES:
        k, l = _rest(i, j)
        check("dihedral-spread-formula", f"E{i}{j}", [e[i, j]],
              lambda: e[i, j] * face(i, j, k) * face(i, j, l), lambda: 4 * q[i, j] * vol)
    for p1, p2 in SKEW_PAIRINGS:
        check("dihedral-spread-ratio", f"{p1[0]}{p1[1]}|{p2[0]}{p2[1]}", [e[p1], e[p2], rich],
              lambda: e[p1] * e[p2], lambda: rich * q[p1] * q[p2])
    for i in VERTICES:
        j, k, l = _rest(i)
        check("solid-spread-formula", f"S{i}", [sol[i]],
              lambda: 4 * sol[i] * q[i, j] * q[i, k] * q[i, l], lambda: vol)
    for i, j in EDGES:
        k, l = _rest(i, j)
        check("solid-spread-ratio", f"S{i}|S{j}", [sol[i], sol[j]],
              lambda: sol[i] * q[i, k] * q[i, l], lambda: sol[j] * q[j, k] * q[j, l])
    for (i, j), (k, l) in SKEW_PAIRINGS:
        check("solid-spread-pair-ratio", f"{i}{j}|{k}{l}", [sol[i], sol[j], sol[k], sol[l]],
              lambda: sol[i] * sol[j] * q[i, j] ** 2, lambda: sol[k] * sol[l] * q[k, l] ** 2)
    prod_q2 = 1
    for key in EDGES:
        prod_q2 *= q[key] ** 2
    for o in VERTICES:
        i, j, k = _rest(o)
        check("solid-spread-triple-ratio", f"S{i}S{j}S{k}", [sol[i], sol[j], sol[k]],
              lambda: 64 * sol[i] * sol[j] * sol[k] * prod_q2,
              lambda: vol ** 3 * q[i, o] * q[j, o] * q[k, o])
    for i in VERTICES:
        j, k, l = _rest(i)
        check("dual-solid-spread-formula", f"D{i}", [dual[i]],
              lambda: dual[i] * face(i, j, k) * face(i, j, l) * face(i, k, l),
              lambda: 4 * vol ** 2)
    for i in VERTICES:
        check("dual-solid-quadrea-ratio", f"D{i}", [dual[i], rich],
              lambda: 4 * dual[i], lambda: rich * face(*_rest(i)))
    for pairing in SKEW_PAIRINGS:
        (i, j), (k, l) = pairing
        den = 4 * q[i, j] * q[k, l] - (q[i, k] + q[j, l] - q[i, l] - q[j, k]) ** 2
        check("skew-quadrance-formula", f"{i}{j};{k}{l}", [skew[pairing]],
              lambda: skew[pairing] * den, lambda: vol)
    return out


def kernel_verdicts(report):
    return [(v.identity, v.instance, v.status) for v in verify_identities(report).verdicts]


def defined_entry_keys(report):
    """Every --corrupt key naming a defined entry, e.g. 'Q.01', 's.1;23', 'V'."""
    keys = []
    for section, entries in report_to_obj(report, ReportOptions()).items():
        if isinstance(entries, str):
            keys.append(section)
        elif section != "field" and "undefined" not in entries:
            keys += [f"{section}.{name}" for name, v in entries.items() if isinstance(v, str)]
    return keys


def corrupted_report(report, key):
    """`report` with the defined entry printed as `key` bumped by 1, as `verify --corrupt`
    bumps it (`_corrupt` on the report's table), read back as `analyze` reads a table."""
    spec, table = report.tetrahedron.spec, _report_parts(report)
    _corrupt(spec, table, key)
    return InvariantReport(report.tetrahedron, *_by_field(
        spec._ratio(num, den) if den else Undefined(reason)
        for (_, _, reason), (num, den) in zip(_ENTRIES, table)))


def copy_report(report):
    fields = (getattr(report, name) for name in InvariantReport.__slots__)
    return InvariantReport(*(dict(v) if isinstance(v, dict) else v for v in fields))


def _tall_point(rnd):
    return Point3(*(Q.element(Fraction(rnd.choice((-1, 1)) * rnd.randint(100_000, 999_999),
                                       rnd.randint(1, 999))) for _ in range(3)))


def tetrahedra(spec, tall, count, seed):
    rnd = rng(seed)
    for _ in range(count):
        form = rand_form(spec, rnd)
        make = (lambda: _tall_point(rnd)) if tall else (lambda: rand_point(spec, rnd))
        yield Tetrahedron(*(make() for _ in range(4)), form)


@pytest.mark.parametrize("spec, tall, count", [
    (Q, False, 6), (Q, True, 3), (FieldSpec.prime(7), False, 30), (FieldSpec.prime(101), False, 6),
    (FieldSpec.prime(2**61 - 1), False, 4)],
    ids=["Q", "Q-tall", "F_7", "F_101", "F_2305843009213693951"])
def test_verify_matches_reference_on_clean_and_corrupted_reports(spec, tall, count):
    statuses = set()
    for tet in tetrahedra(spec, tall, count, seed=61):
        report = analyze(tet)
        clean = kernel_verdicts(report)
        assert clean == reference_verdicts(report)
        assert "fail" not in {status for _, _, status in clean}
        statuses |= {status for _, _, status in clean}
        for key in defined_entry_keys(report):
            corrupted = corrupted_report(report, key)
            verdicts = kernel_verdicts(corrupted)
            assert verdicts == reference_verdicts(corrupted), key
            statuses |= {status for _, _, status in verdicts}
    assert {"pass", "fail"} <= statuses
    if spec.p == 7:
        assert "inapplicable" in statuses


@pytest.mark.parametrize("spec, tall, count", [
    (Q, False, 12), (Q, True, 6), (FieldSpec.prime(7), False, 40),
    (FieldSpec.prime(101), False, 12), (FieldSpec.prime(2**61 - 1), False, 8)],
    ids=["Q", "Q-tall", "F_7", "F_101", "F_2305843009213693951"])
def test_canonical_table_is_the_report_read_back(spec, tall, count):
    # the table that report, verify and --corrupt read is the report of analyze read
    # back as (num, den), entry for entry, and the Fraction / residue division of the
    # kernel's own parts; each entry prints as its element's literal or Undefined reason
    undefined = 0
    for tet in tetrahedra(spec, tall, count, seed=67):
        gram = _gram(tet.form, *_scaled_coordinates(tet.points))
        table = _report_table(spec, *gram)
        report = analyze(tet)
        assert table == _report_parts(report)
        assert table == [(1, 0) if spec._red(den) == 0 else spec._ratio(num, den)._parts()
                         for num, den in _analyze_parts(spec._red, *gram)]
        printed = _report_obj(spec, table, ReportOptions())
        entries = [entry for field in report._fields()[1:]
                   for entry in (field.values() if isinstance(field, dict) else (field,))]
        names = [(section, name) for section, _, keys in _SECTIONS for name, _ in keys]
        for (section, name), entry in zip(names, entries, strict=True):
            literal = printed[section] if name is None else printed[section][name]
            assert literal == (entry.literal() if is_defined(entry) else
                               {"undefined": entry.reason})
        undefined += sum(den == 0 for _, den in table)
    if spec.p == 7:
        assert undefined > 0


# ---------------------------------------------------------------------------
# right-corner relations
# ---------------------------------------------------------------------------

def reference_right_corner(report):
    """Verdicts of the tri-rectangular closed forms, units and sum relations,
    each entry compared with its expected value in plain arithmetic; an
    Undefined entry fails."""
    tet = report.tetrahedron
    p = tet.spec.p
    val = entry_reader(p)

    def div(x, y):
        return Fraction(x) / y if p is None else x * pow(y, -1, p) % p

    def same(x, y):
        return x == y if p is None else (x - y) % p == 0

    a1, a2, a3, b1, b2, b3 = (val(x) for x in tet.form.entries())
    rows = ((a1, b3, b2), (b3, a2, b1), (b2, b1, a3))
    origin = [val(c) for c in tet.vertex(0).coordinates()]
    k = {}
    for i in (1, 2, 3):
        v = [val(c) - o for c, o in zip(tet.vertex(i).coordinates(), origin)]
        k[i] = sum(v[r] * rows[r][c] * v[c] for r in range(3) for c in range(3))
    cs = k[1] * k[2] + k[1] * k[3] + k[2] * k[3]
    q = {key: val(x) for key, x in report.quadrances.items()}
    a = {key: val(x) for key, x in report.quadreas.items()}
    s = {key: val(x) for key, x in report.face_spreads.items()}
    e = {key: val(x) for key, x in report.dihedral_spreads.items()}
    sol = {key: val(x) for key, x in report.solid_spreads.items()}
    dual = {key: val(x) for key, x in report.dual_solid_spreads.items()}
    out = []

    def check(identity, instance, entries, lhs, rhs):
        ok = all(x is not None for x in entries) and same(lhs(), rhs())
        out.append((identity, instance, "pass" if ok else "fail"))

    def closed(identity, instance, entry, expected):
        check(identity, instance, [entry], lambda: entry, lambda: expected)

    for j, m in ((1, 2), (1, 3), (2, 3)):
        closed("closed-form-quadrance", f"Q{j}{m}", q[j, m], k[j] + k[m])
    closed("closed-form-quadrume", "V", val(report.quadrume), 4 * k[1] * k[2] * k[3])
    for j, m in ((1, 2), (1, 3), (2, 3)):
        closed("closed-form-quadrea", f"A0{j}{m}", a[0, j, m], 4 * k[j] * k[m])
    closed("closed-form-quadrea", "A123", a[1, 2, 3], 4 * cs)
    for i in (1, 2, 3):
        j, m = _rest(0, i)
        closed("closed-form-face-spread", f"s{i};0{j}", s[i, 0, j], div(k[j], k[i] + k[j]))
        closed("closed-form-face-spread", f"s{i};0{m}", s[i, 0, m], div(k[m], k[i] + k[m]))
        closed("closed-form-face-spread", f"s{i};{j}{m}", s[i, j, m],
               div(cs, (k[i] + k[j]) * (k[i] + k[m])))
    for j, m in ((1, 2), (1, 3), (2, 3)):
        (n,) = _rest(0, j, m)
        closed("closed-form-dihedral-spread", f"E{j}{m}", e[j, m], div(k[n] * (k[j] + k[m]), cs))
    for i in (1, 2, 3):
        j, m = _rest(0, i)
        closed("closed-form-solid-spread", f"S{i}", sol[i],
               div(k[j] * k[m], (k[i] + k[j]) * (k[i] + k[m])))
    for i in (1, 2, 3):
        j, m = _rest(0, i)
        closed("closed-form-dual-solid-spread", f"D{i}", dual[i], div(k[j] * k[m], cs))
    for j, m in ((1, 2), (1, 3), (2, 3)):
        closed("right-corner-units", f"s0;{j}{m}", s[0, j, m], 1)
    for j in (1, 2, 3):
        closed("right-corner-units", f"E0{j}", e[0, j], 1)
    closed("right-corner-units", "S0", sol[0], 1)
    closed("right-corner-units", "D0", dual[0], 1)
    check("face-quadrea-sum", "A123", [],
          lambda: a[1, 2, 3], lambda: a[0, 1, 2] + a[0, 1, 3] + a[0, 2, 3])
    check("dihedral-spread-sum", "E12+E13+E23", [e[1, 2], e[1, 3], e[2, 3]],
          lambda: e[1, 2] + e[1, 3] + e[2, 3], lambda: 2)
    check("solid-spread-square", "(1-S1-S2-S3)^2", [sol[1], sol[2], sol[3]],
          lambda: (1 - sol[1] - sol[2] - sol[3]) ** 2, lambda: 4 * sol[1] * sol[2] * sol[3])
    check("dual-solid-spread-sum", "D1+D2+D3", [dual[1], dual[2], dual[3]],
          lambda: dual[1] + dual[2] + dual[3], lambda: 1)
    return out


def right_corner_verdicts(report):
    return [(v.identity, v.instance, v.status)
            for v in tri_rectangular_checks(report).verdicts]


def right_corners(spec, count, seed):
    """Corners on tri_rectangular_frame of random forms; frames that hit a null
    pivot or degenerate corner quadrances are skipped."""
    rnd = rng(seed)
    while count:
        form = rand_form(spec, rnd)
        try:
            v1, v2, v3 = tri_rectangular_frame(form)
        except NullPivot:
            continue
        base = rand_point(spec, rnd)
        tet = Tetrahedron(base, translate(base, v1), translate(base, v2), translate(base, v3),
                          form)
        try:
            tri_rectangular_checks(analyze(tet))
        except DegenerateParams:
            continue
        count -= 1
        yield tet


def fixture_corners():
    for name in ("unit_tri_rectangular", "tri_rectangular_mixed_corner", "tri_rectangular_f101"):
        doc = load_document((FIXTURES / f"{name}.json").read_text())
        scale, coords = doc.coordinates
        yield draw_tetrahedron(doc.form, coords, scale)


@pytest.mark.parametrize("corners", [
    fixture_corners, lambda: right_corners(Q, 4, 71),
    lambda: right_corners(FieldSpec.prime(7), 10, 72),
    lambda: right_corners(FieldSpec.prime(101), 6, 73)],
    ids=["fixtures", "Q", "F_7", "F_101"])
def test_right_corner_matches_reference_on_clean_and_corrupted_reports(corners):
    seen = 0
    for tet in corners():
        report = analyze(tet)
        clean = right_corner_verdicts(report)
        assert clean == reference_right_corner(report)
        assert {status for _, _, status in clean} == {"pass"}
        for key in defined_entry_keys(report):
            corrupted = corrupted_report(report, key)
            assert right_corner_verdicts(corrupted) == reference_right_corner(corrupted), key
        seen += 1
    assert seen >= 3


def test_right_corner_undefined_entry_fails():
    report = copy_report(analyze(next(fixture_corners())))
    report.solid_spreads[1] = Undefined("NullEdge")
    verdicts = right_corner_verdicts(report)
    assert verdicts == reference_right_corner(report)
    failed = {(identity, instance) for identity, instance, status in verdicts
              if status == "fail"}
    assert failed == {("closed-form-solid-spread", "S1"),
                      ("solid-spread-square", "(1-S1-S2-S3)^2")}
    assert "inapplicable" not in {status for _, _, status in verdicts}


def test_verify_parts_reads_a_den_that_vanishes_mod_p_as_undefined():
    # kernel parts carry unreduced dens: a nonzero multiple of p is a zero den
    red = FieldSpec.prime(7)._red
    assert verify_row(red, 1, [(3, 14)], 1, [(3, 1)]) is None
    assert verify_row(red, 1, [(1, 1)], 2, [(2, 21), (1, 1)]) is None
    assert verify_row(red, 1, [(3, 8)], 1, [(3, 1)]) == "pass"  # 8 is 1 mod 7
    assert verify_row(red, 1, [(3, 8)], 1, [(4, 1)]) == "fail"
    assert verify_row(red, 1, [Undefined("NullEdge")._parts()], 1, []) is None
    # a zero den stays zero through a sum, so the sum is undecided too
    num, den = _sum((1, 1), (2, 7))
    assert den != 0 and red(den) == 0
    assert verify_row(red, 1, [(num, den)], 1, [(3, 1)]) is None
    # over Q only a den of 0 is undefined
    assert verify_row(int, 2, [(1, 14)], 1, [(1, 7)]) == "pass"
    assert verify_row(int, 1, [_sum((1, 2), Undefined("ZeroQuadrea")._parts())], 1, []) is None


def _product_test_statuses(red, parts, rows, extra):
    """Each row's status by the test that `_verify_parts` made before it tested each side's
    dens: undecided (None) where the product ld * rd of both sides' den products is zero
    under `red`, with the factors that `_verify_parts` builds from `parts` and `extra`."""
    from math import prod
    from tetrig.field import _over_common_den
    from tetrig.tetra import _SKEW_EDGES, _skew_denominator
    d, nums = _over_common_den(parts[:len(EDGES)])
    factors = [*parts, (prod(nums) ** 2, d ** 12),
               *((_skew_denominator(*(nums[n] for n in edges)), d * d)
                 for edges in _SKEW_EDGES.values()),
               *extra]
    statuses = []
    for _, _, ln, lhs, rn, rhs in rows:
        ld = rd = 1
        for n in lhs:
            ln, ld = ln * factors[n][0], ld * factors[n][1]
        for n in rhs:
            rn, rd = rn * factors[n][0], rd * factors[n][1]
        statuses.append(None if red(ld * rd) == 0 else
                        "pass" if red(ln * rd - rn * ld) == 0 else "fail")
    return statuses, factors


@pytest.mark.parametrize("p", [7, 101])
def test_a_zero_den_tested_per_side_gives_the_product_test_statuses(p):
    # on fuzz's unreduced parts and moved skew parts, a row is undecided when either side's
    # den product is zero mod p exactly when the product of the two is: F_p has no zero
    # divisors.  Dens that are nonzero multiples of p are planted in one or two entries, so
    # that rows have a zero den on the left side only, on the right side only and on both
    import random
    from tetrig.fuzz import _FUZZ_ROWS, _identity_form, _skew_parts
    from tetrig.tetra import _INDEX, _verify_parts
    spec, rnd, seen = FieldSpec.prime(p), random.Random(p), set()
    red, form = spec._red, _identity_form(spec)
    plantings = [[], [_INDEX["quadrume"]], [_INDEX["dihedral_spreads"][0, 1]],
                 [_INDEX["solid_spreads"][0], _INDEX["solid_spreads"][1]]]
    for _ in range(60):
        coords = [rnd.randrange(p) for _ in range(12)]
        parts = _analyze_parts(red, *_gram(form, 1, coords))
        moved = [_skew_parts(form, coords, pairing, rnd.randrange(p), rnd.randrange(p))
                 for pairing in SKEW_PAIRINGS]
        for planted in plantings + [rnd.sample(range(len(_ENTRIES)), 2)]:
            parts_planted = [(num, den * p * rnd.randrange(1, p)) if n in planted else (num, den)
                             for n, (num, den) in enumerate(parts)]
            expected, factors = _product_test_statuses(red, parts_planted, _FUZZ_ROWS, moved)
            statuses = _verify_parts(red, parts_planted, _FUZZ_ROWS, moved, None)
            assert statuses == expected
            for (_, _, _, lhs, _, rhs), status in zip(_FUZZ_ROWS, statuses):
                if status is None:
                    seen.add(tuple(any(red(factors[n][1]) == 0 for n in side)
                                   for side in (lhs, rhs)))
    assert seen == {(True, False), (False, True), (True, True)}
