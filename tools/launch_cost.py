"""Start-up cost of a tetrig launch: for `report` and `verify` on a fixture with the right
corner, `report` on a Q fixture without it (the launch most Q documents pay) and `fuzz`, the
tetrig modules that `python -m tetrig` imports and the AST nodes of their source, which the
interpreter compiles at each launch when it writes no bytecode (PYTHONDONTWRITEBYTECODE).
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


def launched(src: Path, argv: list) -> list:
    """The tetrig modules that `python -m tetrig ARGV` imports, its `__main__` included."""
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "tetrig", *argv],
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, check=True)
    names = [line.rpartition("|")[2].strip() for line in run.stderr.splitlines()]
    return [name for name in names if name.split(".")[0] == "tetrig"] + ["tetrig.__main__"]


def ast_nodes(src: Path, module: str) -> int:
    path = src.joinpath(*module.split("."))
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    return sum(1 for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


if __name__ == "__main__":
    src = Path(sys.argv[1]).resolve()
    for command, argv in COMMANDS.items():
        modules = launched(src, argv)
        total = sum(ast_nodes(src, module) for module in modules)
        print(f"{command}: {total} AST nodes in {len(modules)} modules: {', '.join(modules)}")
