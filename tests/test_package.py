"""The package surface: every exported name resolves on first use, to the one object its
module holds; the names that left `tetra`, `blinalg` and `cli` still resolve there, and
old pickles load; importing the package loads none of its modules."""

import os
import pickle
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import tetrig
from tetrig import Point3, SymmetricForm, Tetrahedron, analyze
from support import Q

SRC = Path(__file__).resolve().parents[1] / "src"

# what `from tetrig import *` bound before the package resolved its names on first use
EXPORTED = (
    "affine", "blinalg", "field", "tetra", "trig",
    "DegeneratePlane", "Line", "NullAxis", "Plane", "Point3", "b_project", "displacement",
    "line_through", "lines_equal", "plane_normal", "plane_through", "point_on_line",
    "point_on_plane", "translate",
    "DegenerateForm", "SymmetricForm", "Vector3", "b_cross", "b_dot", "cross3", "det3",
    "mat3_det", "quad_scalar", "quad_vector", "quadrance_vec", "scalar_triple",
    "triple_of_crosses", "vector_triple",
    "DivisionByZero", "FieldElement", "FieldError", "FieldSpec", "InvalidFieldSpec",
    "LiteralTooLong", "MalformedLiteral", "MixedFields", "ZeroDenominator", "invert",
    "parse_element", "render",
    "EDGES", "FACES", "IDENTITY_NAMES", "SKEW_PAIRINGS", "CheckResults", "DegenerateParams",
    "InvariantReport", "NotSkewOrDegenerate", "NotTriRectangular", "NullCommonPerpendicular",
    "NullPivot", "Tetrahedron", "TriRectParams", "Undefined", "Verdict", "analyze",
    "is_defined", "skew_quadrance", "skew_quadrance_closed_form", "tri_rectangular_checks",
    "tri_rectangular_frame", "verify_identities",
    "NullCross", "NullDirection", "NullNormal", "Triangle", "TriLines", "archimedes",
    "dihedral_spread", "dihedral_spread_common_edge", "dual_solid_spread", "quadrance",
    "quadrea", "quadrume", "quadrume_from_gram", "quadrume_from_quadrances", "solid_spread",
    "spread", "spread_vectors")
# the FieldElement library that moved from `tetra` to `trig`, and the formulas that moved back
TO_TRIG = ("Tetrahedron", "Undefined", "InvariantReport", "Verdict", "CheckResults",
           "TriRectParams", "is_defined", "skew_quadrance", "skew_quadrance_closed_form",
           "_scaled_coordinates", "analyze", "_report_parts", "verify_identities",
           "tri_rectangular_frame", "corner_params", "tri_rectangular_checks",
           "NotSkewOrDegenerate", "NullCommonPerpendicular", "NullPivot")
TO_TETRA = ("archimedes", "spread_from_parts", "solid_spread_from_parts")
# the right corner, which moved from `tetra` to `corner`
TO_CORNER = ("_sum", "_CORNER_SUMS", "_right_corner_rows", "_RIGHT_CORNER", "_corner_factors",
             "_corner_parts", "_right_corner_parts")
# the vector library, which moved from `blinalg` to `affine`
TO_AFFINE = ("Vector3", "cross3", "det3", "mat3_det", "b_dot", "quadrance_vec", "b_cross",
             "scalar_triple", "vector_triple", "quad_scalar", "quad_vector", "triple_of_crosses")
# the report/verify and fuzz code, which moved from `cli` to `document` and `fuzz`
TO_DOCUMENT = ("ReportOptions", "InputDocument", "_field_spec_from_obj", "_parts_from_obj",
               "document_from_obj", "load_document", "_PRINTED", "_ENTRY_KEYS", "_report_obj",
               "_results_obj", "_right_corner", "run_report", "_corrupt", "run_verify")
# the writers of the library's objects, which moved from `cli` to `document` and then to `trig`
WRITERS = ("document_to_obj", "report_to_obj", "results_to_obj", "corrupt_entry")
TO_FUZZ = ("FUZZ_IDENTITY_NAMES", "FuzzConfig", "_sample_tetrahedron", "_draw_obj",
           "_run_sample", "MIN_SAMPLES_PER_PROCESS", "pool_size", "_processes", "_fold",
           "_run_span", "run_fuzz")
# the library's names that `bench/run.py --trace 1` reads and patches on `tetrig.cli`
TRACED = ("analyze", "verify_identities", "skew_quadrance", "tri_rectangular_checks",
          "CheckResults", "InvariantReport")
# every attribute that `bench/run.py` and `bench/tracing.py` read on each module
BENCH_READS = {
    "cli": ("load_document", "run_report", "run_verify", "FuzzConfig", "run_fuzz",
            "_run_sample", "_sample_tetrahedron", "analyze", "verify_identities",
            "skew_quadrance", "report_to_obj", "results_to_obj", "tri_rectangular_checks",
            "FieldSpec", "SymmetricForm", "parse_element", "__file__"),
    "blinalg": ("SymmetricForm", "b_cross"),
    "tetra": ("analyze", "Undefined"),
    "field": ("FieldSpec", "FieldElement"),
}


def _loaded_after(code: str) -> list:
    """The tetrig modules in `sys.modules` after a fresh interpreter runs `code`."""
    probe = f"{code}\nimport sys\nprint(sorted(m for m in sys.modules if m[:6] == 'tetrig'))"
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    return eval(run.stdout)


def test_importing_the_package_loads_none_of_its_modules():
    assert _loaded_after("import tetrig") == ["tetrig"]
    assert _loaded_after("from tetrig import FieldSpec") == ["tetrig", "tetrig.field"]


def test_every_exported_name_resolves_to_its_module_object():
    star = {}
    exec("from tetrig import *", star)
    listing = dir(tetrig)
    for name in EXPORTED:
        obj = getattr(tetrig, name)
        assert name in listing and star[name] is obj, name
        if name in tetrig._EXPORTS:
            assert obj is import_module(f"tetrig.{name}")
        else:
            home = getattr(obj, "__module__", "tetrig.tetra")  # EDGES & co. have none
            assert getattr(import_module(home), name) is obj, name
    assert set(EXPORTED) == set(tetrig.__all__)


def test_moved_names_resolve_at_their_old_address():
    from tetrig import affine, blinalg, cli, corner, document, fuzz, tetra, trig
    for name in TO_TRIG:
        assert getattr(tetra, name) is getattr(trig, name), name
        assert name not in vars(tetra) or vars(tetra)[name] is getattr(trig, name), name
    for name in TO_TETRA:
        assert getattr(trig, name) is vars(tetra)[name], name
    for name in TRACED:
        assert getattr(cli, name) is getattr(trig, name), name
    for old, new, names in ((tetra, corner, TO_CORNER), (blinalg, affine, TO_AFFINE),
                            (cli, document, TO_DOCUMENT), (cli, fuzz, TO_FUZZ),
                            (cli, trig, WRITERS), (document, trig, WRITERS)):
        for name in names:
            assert getattr(old, name) is vars(new)[name], name
            # the hook binds the name where it resolved it: the next read skips the hook
            assert vars(old)[name] is vars(new)[name], name
    assert tetra.InvariantReport.__slots__ == ("tetrahedron", *(f[0] for f in tetra._FIELDS))


@pytest.mark.parametrize("module, name", [
    ("tetrig", "nonesuch"), ("tetrig", "_report_parts"), ("tetrig.tetra", "nonesuch"),
    ("tetrig.tetra", "quadrea"), ("tetrig.cli", "nonesuch"), ("tetrig.cli", "quadrea"),
    ("tetrig.cli", "_analyze_parts"), ("tetrig.cli", "random"), ("tetrig.blinalg", "nonesuch"),
    ("tetrig.blinalg", "Point3"), ("tetrig.tetra", "Vector3")])
def test_an_unresolved_name_is_an_attribute_error(module, name):
    # each hook resolves its own names only, not every name of the module it reads
    with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
        getattr(import_module(module), name)
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})


def test_tetrahedron_and_report_pickles_round_trip_old_addresses_included():
    p = Point3.of
    tet = Tetrahedron(p(Q, 0, 0, 0), p(Q, 1, 0, 0), p(Q, 0, 1, 0), p(Q, 0, 0, 2),
                      SymmetricForm.identity(Q))
    for value in (tet, analyze(tet)):
        data = pickle.dumps(value, protocol=2)
        name = type(value).__name__.encode()
        # the same pickle written when the class lived in `tetra`
        old = data.replace(b"ctetrig.trig\n" + name, b"ctetrig.tetra\n" + name)
        assert old != data
        for twin in (pickle.loads(data), pickle.loads(old)):
            assert type(twin) is type(value) and repr(twin) == repr(value)


def test_a_vector_pickle_from_the_old_address_loads():
    from tetrig import Vector3
    vector = Vector3.of(Q, 1, -2, 3)
    data = pickle.dumps(vector, protocol=2)
    # the same pickle written when the class lived in `blinalg`
    old = data.replace(b"ctetrig.affine\nVector3", b"ctetrig.blinalg\nVector3")
    assert old != data
    for twin in (pickle.loads(data), pickle.loads(old)):
        assert type(twin) is Vector3 and twin == vector


def test_every_name_the_benchmark_reads_resolves():
    for module, names in BENCH_READS.items():
        for name in names:
            assert getattr(import_module(f"tetrig.{module}"), name) is not None, (module, name)
