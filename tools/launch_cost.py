"""Start-up cost of a tetrig launch: for `report` and `verify` on a fixture with the right
corner, `report` on a Q fixture without it (the launch most Q documents pay) and `fuzz`, the
tetrig modules that `python -m tetrig` imports and the AST nodes of their source, which the
interpreter compiles at each launch when it writes no bytecode (PYTHONDONTWRITEBYTECODE), and
the other modules that the launch imports beyond a bare `python -c pass`: the standard
library's share of the start-up (`runpy` and its imports come with `-m`).
The AST node count is the figure to quote when comparing two trees: it depends on the source
alone, where a compile time measured in one process drifts with the host's load by more than a
start-up change moves it.  The timing A/B of two trees' launches is `tools/paired_ab.py --launch`.
Run as `python tools/launch_cost.py SRC`, SRC holding the `tetrig` package (e.g. `src`).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parents[1] / "tests/fixtures"
CORNER, PLAIN = (str(FIXTURES / name) for name in ("tri_rectangular_f101.json",
                                                   "tall_literal_q.json"))
COMMANDS = {"report": ["report", "--input", CORNER],
            "verify": ["verify", "--input", CORNER],
            "report (Q, no right corner)": ["report", "--input", PLAIN],
            "fuzz": ["fuzz", "--prime", "101", "--samples", "20"]}


def imported(src: Path, args: list) -> list:
    """The modules that `python ARGS` imports, in order, as `-X importtime` lists them."""
    run = subprocess.run([sys.executable, "-X", "importtime", *args],
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, check=True)
    return [line.rpartition("|")[2].strip() for line in run.stderr.splitlines()
            if line.startswith("import time:") and not line.endswith("imported package")]


def source(src: Path, module: str) -> Path:
    path = src.joinpath(*module.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def ast_nodes(path: Path) -> int:
    return sum(1 for _ in ast.walk(ast.parse(path.read_bytes())))


if __name__ == "__main__":
    src = Path(sys.argv[1]).resolve()
    bare = set(imported(src, ["-c", "pass"]))
    for command, argv in COMMANDS.items():
        names = imported(src, ["-m", "tetrig", *argv])
        modules = [name for name in names if name.split(".")[0] == "tetrig"] + ["tetrig.__main__"]
        stdlib = [name for name in names if name not in bare and name.split(".")[0] != "tetrig"]
        paths = [source(src, module) for module in modules]
        print(f"{command}: {sum(map(ast_nodes, paths))} AST nodes in {len(modules)} modules: "
              f"{', '.join(modules)}")
        print(f"  {len(stdlib)} more modules than `python -c pass`: {', '.join(stdlib)}")
