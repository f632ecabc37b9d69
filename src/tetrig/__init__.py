"""Exact trigonometry of tetrahedra under an arbitrary symmetric bilinear form, over Q or an
odd prime field.  Each name below, and each module that holds one, is imported on first use."""

from importlib import import_module

__version__ = "0.1.0"

# the exported names, by the module that holds them
_EXPORTS = {
    "affine": ("DegeneratePlane", "Line", "NullAxis", "Plane", "Point3", "b_project",
               "displacement", "line_through", "lines_equal", "plane_normal", "plane_through",
               "point_on_line", "point_on_plane", "translate", "Vector3", "b_cross", "b_dot",
               "cross3", "det3", "mat3_det", "quad_scalar", "quad_vector", "quadrance_vec",
               "scalar_triple", "triple_of_crosses", "vector_triple"),
    "blinalg": ("DegenerateForm", "SymmetricForm"),
    "element": ("FieldElement", "invert", "parse_element", "render"),
    "field": ("DivisionByZero", "FieldError", "FieldSpec", "InvalidFieldSpec", "LiteralTooLong",
              "MalformedLiteral", "MixedFields", "ZeroDenominator"),
    "tetra": ("EDGES", "FACES", "IDENTITY_NAMES", "SKEW_PAIRINGS", "DegenerateParams",
              "NotTriRectangular", "archimedes"),
    "trig": ("CheckResults", "InvariantReport", "NotSkewOrDegenerate", "NullCommonPerpendicular",
             "NullPivot", "Tetrahedron", "TriRectParams", "Undefined", "Verdict", "analyze",
             "is_defined", "skew_quadrance", "skew_quadrance_closed_form", "tri_rectangular_checks",
             "tri_rectangular_frame", "verify_identities", "NullCross", "NullDirection",
             "NullNormal", "Triangle", "TriLines", "dihedral_spread", "dihedral_spread_common_edge",
             "dual_solid_spread", "quadrance", "quadrea", "quadrume", "quadrume_from_gram",
             "quadrume_from_quadrances", "solid_spread", "spread", "spread_vectors"),
}
__all__ = [*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)]


def _resolver(namespace: dict, homes: dict):
    """A module `__getattr__` (PEP 562) for the module whose globals are `namespace`: it
    resolves each name of `homes` ({module of this package: its names}), and no other, from
    the module that holds it, imported then, and binds it in `namespace`, so the hook runs
    once per name."""
    module = namespace["__name__"]
    home = {name: source for source, names in homes.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{__name__}.{home[name]}"), name)
        return value
    return __getattr__


_resolve = _resolver(globals(), _EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    return _resolve(name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
