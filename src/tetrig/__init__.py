"""Exact trigonometry of tetrahedra under an arbitrary symmetric bilinear
form, over Q or an odd prime field."""

from .affine import (DegeneratePlane, Line, NullAxis, Plane, Point3, b_project,
                     displacement, line_through, lines_equal, plane_normal,
                     plane_through, point_on_line, point_on_plane, translate)
from .blinalg import (DegenerateForm, SymmetricForm, Vector3, b_cross, b_dot,
                      cross3, det3, mat3_det, quad_scalar, quad_vector,
                      quadrance_vec, scalar_triple, triple_of_crosses,
                      vector_triple)
from .field import (DivisionByZero, FieldElement, FieldError, FieldSpec,
                    InvalidFieldSpec, LiteralTooLong, MalformedLiteral, MixedFields,
                    ZeroDenominator, invert, parse_element, render)
from .tetra import (EDGES, FACES, IDENTITY_NAMES, SKEW_PAIRINGS, CheckResults,
                    DegenerateParams, InvariantReport, NotSkewOrDegenerate,
                    NotTriRectangular, NullCommonPerpendicular, NullPivot,
                    Tetrahedron, TriRectParams, Undefined, Verdict, analyze,
                    is_defined, skew_quadrance, skew_quadrance_closed_form,
                    tri_rectangular_checks, tri_rectangular_frame,
                    verify_identities)
from .trig import (NullCross, NullDirection, NullNormal, Triangle, TriLines,
                   archimedes, dihedral_spread, dihedral_spread_common_edge,
                   dual_solid_spread, quadrance, quadrea, quadrume,
                   quadrume_from_gram, quadrume_from_quadrances, solid_spread,
                   spread, spread_vectors)

__version__ = "0.1.0"
