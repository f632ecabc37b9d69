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


def draw_tetrahedron(form, coords):
    """The tetrahedron of a fuzz draw: twelve residues, three per point, over the field of
    `form`."""
    points = [Point3.of(form.spec, *coords[i:i + 3]) for i in range(0, 12, 3)]
    return Tetrahedron(*points, form)


def rng(seed):
    return random.Random(seed)
