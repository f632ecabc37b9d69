"""Input documents for the benchmark, generated from a seed.

The generators use only `random.Random` and `fractions.Fraction`, never
tetrig's own samplers, so a change to the program cannot change its inputs.
Singular forms are rejected here, before the program sees them.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

FORM_KEYS = ("a1", "a2", "a3", "b1", "b2", "b3")

# Share of each kind in the Q corpus, per block of five documents.
Q_MIX = ("bound9", "bound9", "bound9", "tall", "tri-rect")


def form_det(a1, a2, a3, b1, b2, b3):
    """Determinant of [[a1,b3,b2],[b3,a2,b1],[b2,b1,a3]]."""
    return a1 * (a2 * a3 - b1 * b1) - b3 * (b3 * a3 - b1 * b2) + b2 * (b3 * b1 - a2 * b2)


def _dot(entries, v, w):
    a1, a2, a3, b1, b2, b3 = entries
    rows = ((a1, b3, b2), (b3, a2, b1), (b2, b1, a3))
    return sum(v[i] * rows[i][j] * w[j] for i in range(3) for j in range(3))


def _document(field, form, points, tri_rectangular=False) -> str:
    return json.dumps({
        "field": field,
        "form": {key: str(entry) for key, entry in zip(FORM_KEYS, form)},
        "points": [[str(c) for c in p] for p in points],
        "options": {"checks": True, "skew": True, "tri_rectangular": tri_rectangular},
    })


# -- Q ----------------------------------------------------------------------

def _fraction(rng, num_bound, den_bound):
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def _q_form(rng):
    while True:
        form = tuple(_fraction(rng, 9, 9) for _ in range(6))
        if form_det(*form) != 0:
            return form


def _tall_fraction(rng):
    numerator = rng.randint(100_000, 999_999) * rng.choice((-1, 1))
    return Fraction(numerator, rng.randint(1, 999))


def _tri_rectangular(rng, form):
    """Vertex 0 plus three mutually B-perpendicular edges, by Gram-Schmidt.

    Resamples until the corner quadrances k_i, the sums k_i + k_j and the
    cross sum are all nonzero, which the program requires of such input.
    """
    while True:
        frame = []
        for _ in range(3):
            u = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
            for w in frame:
                c = _dot(form, u, w) / _dot(form, w, w)
                u = [ui - c * wi for ui, wi in zip(u, w)]
            if _dot(form, u, u) == 0:
                break
            frame.append(u)
        if len(frame) < 3:
            continue
        k1, k2, k3 = (_dot(form, w, w) for w in frame)
        if 0 in (k1 + k2, k1 + k3, k2 + k3, k1 * k2 + k1 * k3 + k2 * k3):
            continue
        base = [_fraction(rng, 9, 9) for _ in range(3)]
        return [base] + [[b + d for b, d in zip(base, w)] for w in frame]


def q_document(rng, kind) -> str:
    form = _q_form(rng)
    if kind == "bound9":
        points = [[_fraction(rng, 9, 9) for _ in range(3)] for _ in range(4)]
    elif kind == "tall":
        points = [[_tall_fraction(rng) for _ in range(3)] for _ in range(4)]
    elif kind == "tri-rect":
        return _document({"kind": "rational"}, form, _tri_rectangular(rng, form),
                         tri_rectangular=True)
    else:
        raise ValueError(f"unknown document kind {kind!r}")
    return _document({"kind": "rational"}, form, points)


def q_corpus(seed: int, size: int) -> list[tuple[str, str]]:
    """(kind, document text) pairs; document i has kind Q_MIX[i % 5]."""
    rng = random.Random(seed)
    kinds = [Q_MIX[i % len(Q_MIX)] for i in range(size)]
    return [(kind, q_document(rng, kind)) for kind in kinds]


# -- F_p --------------------------------------------------------------------

def fp_form(rng, p: int, random_form: bool):
    if not random_form:
        return (1, 1, 1, 0, 0, 0)
    while True:
        form = tuple(rng.randrange(p) for _ in range(6))
        if form_det(*form) % p:
            return form


def fp_corpus(seed: int, size: int, p: int, random_form: bool) -> list[tuple[str, str]]:
    """(kind, document text) pairs of uniformly random tetrahedra over F_p."""
    rng = random.Random(seed)
    docs = []
    for _ in range(size):
        form = fp_form(rng, p, random_form)
        points = [[rng.randrange(p) for _ in range(3)] for _ in range(4)]
        docs.append(("fp", _document({"kind": "prime", "p": p}, form, points)))
    return docs
