"""The package surface: every exported name resolves on first use, to the one object its
module holds; a module's hook resolves only the names the benchmark reads there; importing
the package loads none of its modules."""

import ast
import os
import subprocess
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

import tetrig

SRC = Path(__file__).resolve().parents[1] / "src"

# what `from tetrig import *` bound before the package resolved its names on first use
EXPORTED = (
    "affine", "blinalg", "element", "field", "tetra", "trig",
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


def _fresh(code: str):
    """The value that a fresh interpreter running `code` prints."""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    return eval(run.stdout)


def _loaded_after(code: str, packages=("tetrig",)) -> list:
    """The modules of `packages` in `sys.modules` after a fresh interpreter runs `code`."""
    return _fresh(f"{code}\nimport sys\nprint(sorted(m for m in sys.modules "
                  f"if m.split('.')[0] in {packages!r}))")


def test_a_module_attribute_of_the_package_loads_that_module():
    code = ("import sys, tetrig\nloaded = 'tetrig.trig' in sys.modules\nmodule = tetrig.trig\n"
            "print((loaded, module is sys.modules['tetrig.trig'], vars(tetrig)['trig'] is module))")
    assert _fresh(code) == (False, True, True)


def test_importing_the_package_loads_none_of_its_modules():
    assert _loaded_after("import tetrig") == ["tetrig"]
    assert _loaded_after("from tetrig import FieldSpec") == ["tetrig", "tetrig.field"]


def test_elements_of_q_load_no_fractions():
    # an element of Q is its canonical int pair: building, dividing and printing elements
    # imports neither `fractions` nor the `decimal` and `numbers` that it pulls in
    code = ("from tetrig import FieldSpec, parse_element\nq = FieldSpec.rational()\n"
            "x = parse_element('-3/4', q) / q.element(6) - 1\nassert str(x) == '-9/8'")
    assert _loaded_after(code, ("tetrig", "fractions", "decimal", "numbers")) == [
        "tetrig", "tetrig.element", "tetrig.field"]


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


def _unbound(imports) -> list:
    """The (module, name) pairs of `imports` whose name a fresh interpreter does not find in
    `vars(tetrig.<module>)` once it imports the module, before any module hook runs."""
    return _fresh("from importlib import import_module\n"
                  f"print([(m, n) for m, n in {sorted(imports)!r} "
                  "if n not in vars(import_module('tetrig.' + m))])")


def test_the_hooks_resolve_only_what_the_benchmark_reads_from_its_home():
    from tetrig import tetra, trig
    hooked = _unbound((module, name) for module, names in BENCH_READS.items() for name in names)
    assert Counter(module for module, _ in hooked) == {"cli": 14, "tetra": 2, "blinalg": 1,
                                                       "field": 1}
    for module, name in hooked:
        old = import_module(f"tetrig.{module}")
        obj = getattr(old, name)
        assert obj.__module__ != old.__name__, (module, name)
        assert vars(import_module(obj.__module__))[name] is obj, (module, name)
        # the hook binds the name where it resolved it: the next read skips the hook
        assert vars(old)[name] is obj, (module, name)
    assert trig.InvariantReport.__slots__ == ("tetrahedron", *(f[0] for f in tetra._FIELDS))


def test_tests_and_tools_import_each_name_from_its_module():
    # `from tetrig.<module> import <name>` names what the module defines or imports, never
    # a name its hook resolves, so deleting a hook entry breaks no test or tool
    root = SRC.parent
    imports = {(node.module[7:], alias.name)
               for path in (*root.glob("tests/**/*.py"), *root.glob("tools/**/*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and (node.module or "")[:7] == "tetrig."
               for alias in node.names}
    assert imports
    assert _unbound(imports) == []


@pytest.mark.parametrize("module, name", [
    ("tetrig", "nonesuch"), ("tetrig", "_report_parts"), ("tetrig.tetra", "nonesuch"),
    ("tetrig.tetra", "quadrea"), ("tetrig.cli", "nonesuch"), ("tetrig.cli", "quadrea"),
    ("tetrig.cli", "_analyze_parts"), ("tetrig.cli", "random"), ("tetrig.blinalg", "nonesuch"),
    ("tetrig.blinalg", "Point3"), ("tetrig.tetra", "Vector3"),
    # former addresses, one per group of moved names: their hook entries are gone
    ("tetrig.tetra", "Tetrahedron"), ("tetrig.tetra", "_corner_parts"),
    ("tetrig.blinalg", "Vector3"), ("tetrig.cli", "ReportOptions"), ("tetrig.cli", "pool_size"),
    ("tetrig.cli", "corrupt_entry"), ("tetrig.document", "report_to_obj")])
def test_an_unresolved_name_is_an_attribute_error(module, name):
    # each hook resolves its own names only, not every name of the module it reads
    with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
        getattr(import_module(module), name)
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})


def test_every_name_the_benchmark_reads_resolves():
    for module, names in BENCH_READS.items():
        for name in names:
            assert getattr(import_module(f"tetrig.{module}"), name) is not None, (module, name)


# the command path, which computes on integers, and the `FieldElement` library over it
COMMANDS = ("cli", "document", "fuzz", "tetra", "corner")
ELEMENT_LIBRARY = {"element", "affine", "trig"}


def _package_imports(path: Path) -> set:
    """The modules of this package that the source at `path` imports anywhere in its code;
    a name imported from the package itself counts as the module that holds it."""
    home = {name: module for module, names in tetrig._EXPORTS.items() for name in names}
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("tetrig.")}
        elif isinstance(node, ast.ImportFrom):  # `from .x import y` as `from tetrig.x import y`
            module = f"tetrig.{node.module or ''}" if node.level else node.module or ""
            package, _, module = module.partition(".")
            if package == "tetrig":  # x, or for `from . import y` each y's module
                found |= ({module.partition(".")[0]} if module else
                          {home.get(alias.name, alias.name) for alias in node.names})
    return found


def test_the_command_path_imports_no_element_library_module():
    # the library calls down into the commands' integer code, never the other way
    imports = {name: _package_imports(SRC / "tetrig" / f"{name}.py") for name in COMMANDS}
    assert {"document", "fuzz"} <= imports["cli"] and "corner" in imports["document"]
    assert {name: found & ELEMENT_LIBRARY for name, found in imports.items()} == {
        name: set() for name in COMMANDS}


def test_only_the_element_library_reads_an_elements_value():
    # every other module reaches an element's value through `_parts` or builds one through
    # `FieldSpec._ratio`, so no module but `element` knows how Q or F_p holds it
    readers = {path.name for path in (SRC / "tetrig").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "_value"}
    assert readers == {"element.py"}
