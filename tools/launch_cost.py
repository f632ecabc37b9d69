"""Start-up cost of a tetrig launch: for `report` and `verify` on a fixture with the right
corner, `report` on a Q fixture without it (the launch most Q documents pay), `fuzz`, and the
benchmark's set-up launch over Q and over F_101 (`bench/run.py`'s `python -c` of `setup_code`,
which parses a workload's form to elements), the tetrig modules that the launch imports (with
`tetrig.__main__` for `python -m tetrig`) and the AST nodes of their source, which the
interpreter compiles at each launch when it writes no bytecode (PYTHONDONTWRITEBYTECODE), and
the other modules that the launch imports beyond a bare `python -c pass`: the standard
library's share of the start-up (`runpy` and its imports come with `-m`).  Each module is
printed with its own node count, beside the launch's total, so that a budget can be checked
module by module.
The AST node count is the figure to quote when comparing two trees: it depends on the source
alone, where a compile time measured in one process drifts with the host's load by more than a
start-up change moves it.  The timing A/B of two trees' launches is `tools/paired_ab.py --launch`.
Run as `python tools/launch_cost.py SRC`, SRC holding the `tetrig` package (e.g. `src`), or
as `python tools/launch_cost.py PARENT_SRC SRC` to print both trees' counts and then one line
per launch, `<launch>: parent N → this M (+d)`, the change in its AST nodes.
"""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
bench = import_module("run")  # bench/run.py: WORKLOADS, make_inputs, setup_code

CORNER, PLAIN = (str(ROOT / "tests/fixtures" / name) for name in ("tri_rectangular_f101.json",
                                                                 "tall_literal_q.json"))
LAUNCHES = {"report": ["-m", "tetrig", "report", "--input", CORNER],
            "verify": ["-m", "tetrig", "verify", "--input", CORNER],
            "report (Q, no right corner)": ["-m", "tetrig", "report", "--input", PLAIN],
            "fuzz": ["-m", "tetrig", "fuzz", "--prime", "101", "--samples", "20"]}
for workload, field in (("report-q", "Q"), ("fuzz-f101", "F_101")):
    _, _, spec_expr, form_literals = bench.make_inputs(bench.WORKLOADS[workload], 1)
    LAUNCHES[f"benchmark set-up ({field})"] = ["-c", bench.setup_code(spec_expr, form_literals)]


def imported(src: Path, args: list) -> list:
    """The modules that `python ARGS` imports, in the order their imports end, as `-v` lists
    them (`-X importtime` misses those that `importlib.import_module` imports)."""
    run = subprocess.run([sys.executable, "-v", *args],
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, check=True)
    return [line.split("'")[1] for line in run.stderr.splitlines() if line.startswith("import '")]


def source(src: Path, module: str) -> Path:
    path = src.joinpath(*module.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def ast_nodes(path: Path) -> int:
    return sum(1 for _ in ast.walk(ast.parse(path.read_bytes())))


def launch_cost(src: Path) -> dict:
    """Prints each launch's tetrig modules with their AST nodes, and its other imports; returns
    each launch's total AST nodes."""
    bare = set(imported(src, ["-c", "pass"]))
    totals = {}
    for command, args in LAUNCHES.items():
        names = imported(src, args)
        modules = [name for name in names if name.split(".")[0] == "tetrig"]
        modules += ["tetrig.__main__"] * (args[0] == "-m")  # run by runpy, not imported
        stdlib = [name for name in names if name not in bare and name.split(".")[0] != "tetrig"]
        nodes = [ast_nodes(source(src, module)) for module in modules]
        totals[command] = sum(nodes)
        print(f"{command}: {sum(nodes)} AST nodes in {len(modules)} modules: "
              + ", ".join(f"{module} {n}" for module, n in zip(modules, nodes)))
        print(f"  {len(stdlib)} more modules than `python -c pass`: {', '.join(stdlib)}")
    return totals


if __name__ == "__main__":
    srcs = [Path(arg).resolve() for arg in sys.argv[1:]]
    if len(srcs) not in (1, 2):
        sys.exit("usage: python tools/launch_cost.py [PARENT_SRC] SRC")
    if len(srcs) == 1:
        launch_cost(*srcs)
    else:
        parent, this = srcs
        print("parent commit:")
        before = launch_cost(parent)
        print("this commit:")
        after = launch_cost(this)
        for command, n in before.items():
            print(f"{command}: parent {n} → this {after[command]} ({after[command] - n:+d})")
