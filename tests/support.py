"""Shared random generators for the exact-arithmetic test suites."""

import random

from tetrig import DegenerateForm, FieldSpec, Point3, SymmetricForm, Tetrahedron, Vector3

Q = FieldSpec.rational()


def rand_element(spec, rnd, bound=9):
    return spec.random_element(rnd, max_numerator=bound, max_denominator=bound)


def rand_vector(spec, rnd, bound=9):
    return Vector3(rand_element(spec, rnd, bound), rand_element(spec, rnd, bound),
                   rand_element(spec, rnd, bound))


def rand_point(spec, rnd, bound=9):
    return Point3(rand_element(spec, rnd, bound), rand_element(spec, rnd, bound),
                  rand_element(spec, rnd, bound))


def rand_form(spec, rnd, bound=9):
    """Resample the six symmetric entries until the determinant is nonzero."""
    while True:
        try:
            return SymmetricForm(*(rand_element(spec, rnd, bound) for _ in range(6)))
        except DegenerateForm:
            continue


def rand_tetrahedron(spec, rnd, form=None, bound=9):
    if form is None:
        form = rand_form(spec, rnd, bound)
    return Tetrahedron(rand_point(spec, rnd, bound), rand_point(spec, rnd, bound),
                       rand_point(spec, rnd, bound), rand_point(spec, rnd, bound), form)


def draw_tetrahedron(form, coords, scale=1):
    """The tetrahedron of twelve coordinates over `scale`, three per point, over the field of
    `form`: a fuzz draw's residues, or a document's `doc.coordinates` as (scale, coords)."""
    ratio = form.spec._ratio
    return Tetrahedron(*(Point3(*(ratio(c, scale) for c in coords[i:i + 3]))
                         for i in range(0, 12, 3)), form)


def rng(seed):
    return random.Random(seed)


def verify_row(red, ln, lhs, rn, rhs):
    """The status that `tetra._verify_parts` gives the one row `ln * prod(lhs) == rn * prod(rhs)`,
    of (num, den) factors passed to it as a caller's extra factors; None where it is undecided."""
    from tetrig.tetra import _ENTRIES, _EXTRA, _verify_parts
    mid = _EXTRA + len(lhs)
    row = ("row", "", ln, list(range(_EXTRA, mid)), rn, list(range(mid, mid + len(rhs))))
    [status] = _verify_parts(red, [(1, 1)] * len(_ENTRIES), [row], [*lhs, *rhs], None)
    return status
