"""The point kernel: every report entry from the twelve coordinates and the form, through the
face normals n = c adj B and det B, as the report was computed before the Gram kernel
(`tetra._analyze_parts`).  Kept as the reference that the Gram kernel is checked against:
past the edge vectors the two share only the spread and Archimedes formulas, so equal
canonical tables are evidence for both."""

from math import prod

from tetrig.blinalg import cross_values, form_values, inner
from tetrig.field import _canonical
from tetrig.tetra import (EDGES, FACE_SPREAD_KEYS, FACES, SKEW_PAIRINGS, VERTICES, _edge,
                          _residue_table, archimedes, edge_key, spread_from_parts)

_REST_OF_VERTEX = {i: tuple(m for m in VERTICES if m != i) for i in VERTICES}
_FACES_AT = {i: tuple(f for f in FACES if i in f) for i in VERTICES}
_FACES_ON = {edge: tuple(f for f in FACES if set(edge) < set(f)) for edge in EDGES}


def _solid_spread(t, q1, q2, q3, det):
    """The solid spread t^2 / (det B q1 q2 q3) of three directions with B-triple t."""
    return t * t, det * q1 * q2 * q3


def skew_parts(form, s, coords, pairing):
    """The skew quadrance of `pairing` projected onto n = v1 x_B v2 at the points."""
    red, det = form.spec._red, form._int_det
    (i, j), (k, l) = pairing
    c = cross_values(_edge(coords, i, j), _edge(coords, k, l))
    nw = red(det * inner(c, _edge(coords, i, k)))
    return nw * nw, red(det * inner(c, form_values(form._adj, c))) * s


def point_parts(form, scale, coords) -> list:
    """Every entry as (num, den), in `tetra._ENTRIES` order, from the points and the form."""
    red, det = form.spec._red, form._int_det
    s = scale * scale * form._scale
    edge = {e: _edge(coords, *e) for e in EDGES}
    image = {e: form_values(form._ints, v) for e, v in edge.items()}
    q = {e: red(inner(image[e], v)) for e, v in edge.items()}
    q.update({(j, i): x for (i, j), x in q.items()})
    a = {(i, j, k): red(archimedes(q[j, k], q[i, k], q[i, j])) for (i, j, k) in FACES}
    # one normal per face (i, j, k): c = e_ij x e_ik and n = c adj B, Q(n) = det B (c . n)
    c = {(i, j, k): cross_values(edge[i, j], edge[i, k]) for (i, j, k) in FACES}
    n = {f: form_values(form._adj, cf) for f, cf in c.items()}
    qn = {f: red(det * inner(c[f], n[f])) for f in FACES}
    # the B-triple of the edges at vertex i, det B (c . e_ij) with c of the face opposite j
    t = [red(det * inner(c[_REST_OF_VERTEX[j]], edge[edge_key(i, j)]))
         for i, (j, _, _) in _REST_OF_VERTEX.items()]
    vol_num = 4 * t[0] * t[0]
    return [
        *((q[e], s) for e in EDGES),
        *((a[f], s * s) for f in FACES),
        (vol_num, s * s * s * det),
        *(spread_from_parts(red(inner(image[edge_key(i, j)], edge[edge_key(i, k)])),
                            q[i, j], q[i, k]) for (i, j, k) in FACE_SPREAD_KEYS),
        *(spread_from_parts(red(det * inner(c[f1], n[f2])), qn[f1], qn[f2])
          for f1, f2 in _FACES_ON.values()),
        *(_solid_spread(t[i], *(q[i, m] for m in rest), det)
          for i, rest in _REST_OF_VERTEX.items()),
        *(_solid_spread(red(det * inner(n[f1], cross_values(n[f2], n[f3]))),
                        qn[f1], qn[f2], qn[f3], det)
          for f1, f2, f3 in _FACES_AT.values()),
        (16 * vol_num * vol_num * s * s, det * det * prod(a.values())),
        *(skew_parts(form, s, coords, pairing) for pairing in SKEW_PAIRINGS),
    ]


def point_table(form, scale, coords) -> list:
    """The canonical table of `point_parts`, reduced as `tetra._report_table` reduces."""
    spec, parts = form.spec, point_parts(form, scale, coords)
    if spec.p:
        return _residue_table(spec.p, parts)
    return [_canonical(spec, num, den) if den else (1, 0) for num, den in parts]

