"""`verify_identities` against a plain Fraction / residue reference.

The reference reads every report entry as a `Fraction` over Q or a residue
over F_p, evaluates both sides of each identity in that arithmetic and
compares them; `verify_identities` cross-multiplies integer pairs instead.
The two must agree verdict for verdict, on clean reports (where every
applicable identity holds) and after any one defined entry is bumped by 1,
as `tetrig verify --corrupt` does.
"""

import dataclasses
from fractions import Fraction

import pytest

from tetrig import (EDGES, FACES, SKEW_PAIRINGS, FieldSpec, Point3, Tetrahedron, analyze,
                    is_defined, verify_identities)
from tetrig.cli import ReportOptions, corrupt_entry, report_to_obj
from support import Q, rand_form, rand_point, rng

VERTICES = range(4)


def _rest(*fixed):
    return [m for m in VERTICES if m not in fixed]


def reference_verdicts(report):
    p = report.tetrahedron.spec.p

    def val(entry):
        if not is_defined(entry):
            return None
        return Fraction(entry.numerator, entry.denominator) if p is None else entry.residue

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


def copy_report(report):
    return dataclasses.replace(report, **{
        f.name: dict(getattr(report, f.name)) for f in dataclasses.fields(report)
        if isinstance(getattr(report, f.name), dict)})


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
            corrupted = copy_report(report)
            corrupt_entry(corrupted, key)
            verdicts = kernel_verdicts(corrupted)
            assert verdicts == reference_verdicts(corrupted), key
            statuses |= {status for _, _, status in verdicts}
    assert {"pass", "fail"} <= statuses
    if spec.p == 7:
        assert "inapplicable" in statuses
