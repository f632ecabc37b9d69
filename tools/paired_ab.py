"""Paired A/B timing of two trees of tetrig, in one process or launch by launch.

Loads the `tetrig` package of OLD_SRC and of NEW_SRC side by side, under the names
`tetrig_old` and `tetrig_new`, pins the process to one CPU, and then, for each of the
benchmark's three workloads (`bench/run.py`'s corpora from `bench/corpus.py`):

1. asserts that both trees print the same `report` and `verify` bytes, and exit codes,
   for every document of the corpus;
2. runs the benchmark's in-process document pass (`bench/run.py`'s `doc_pass`: parse,
   report, `json.dumps`) on each tree in turn, alternating which goes first, and prints
   each tree's median docs/s with its quartiles, and the median and quartiles of the
   per-round ratio new/old, with the rounds the new tree won; then the same for the median
   and the 90th percentile of a round's ms per document, as `bench/run.py` defines
   `report_ms_p50` and `report_ms_p90`.

With `--launch` it times one-shot `python -m tetrig` processes instead, which inherit the
pin, and which an in-process pass cannot see (interpreter start, imports, the end of the
process): for each workload, `report` or `verify` of each of its first `cli_docs` documents,
as `bench/run.py`'s one-shot launches run them, and for a fuzz workload one `fuzz` of its
`fuzz_samples`.  Each round runs every launch from both trees, alternating which goes first;
every launch must print the same stdout bytes and exit code from both.  It prints each tree's
median ms per launch and the median and quartiles of the per-round difference new - old,
with the rounds the new tree won; then the same for the workload's set-up launch, `bench/run.py`'s
`python -c` of `setup_code`, which builds the workload's form from its literals, on a line of
its own: it runs SETUP_LAUNCHES times a round, as one launch a round cannot resolve a few ms.
The launches run copies of the two packages without their `__pycache__`, and with
PYTHONDONTWRITEBYTECODE=1, so that each compiles its modules from source, as the benchmark's
launches do, and bytecode that one launch writes cannot spare a later one that compiling.

Run from the repository root as

    python tools/paired_ab.py OLD_SRC NEW_SRC [--launch] [--rounds N] [--seed 1] [--toy]

OLD_SRC and NEW_SRC each hold a `tetrig` package (e.g. `src` of two checkouts; the same
tree twice gives the spread of the method itself).  `--rounds` defaults to 120, or 20 with
`--launch`.  `--toy` takes the benchmark's toy corpus sizes.  Nothing is gated on the
timings; a byte or exit-code difference exits non-zero.
"""

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import import_module
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
bench = import_module("run")  # bench/run.py: WORKLOADS, TOY, make_inputs, doc_pass, Tally


def load_tree(name: str, src: str):
    """The `cli` module of the `tetrig` package in `src`, imported as the package `name`."""
    init = Path(src, "tetrig", "__init__.py").resolve()
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return import_module(f"{name}.cli")


def printed(cli, text: str) -> tuple:
    """The `report` and `verify` bytes of a document, with verify's exit code."""
    doc = cli.load_document(text)
    out, code = cli.run_verify(doc)
    return json.dumps(cli.run_report(doc), indent=2), json.dumps(out, indent=2), code


def quartiles(values) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summary(name: str, values: dict, unit: str, new_wins) -> str:
    """Each tree's median `name` per round with its quartiles, and those of the per-round ratio
    new/old, with the rounds in which `new_wins(ratio)`."""
    ratios = [b / a for a, b in zip(*values.values())]
    return (f"{name}: " + "  ".join(f"%s %.4g [%.4g, %.4g] {unit}" % (side, *quartiles(v))
                                   for side, v in values.items())
            + "  new/old %.3f [%.3f, %.3f], new faster in %d of %d"
            % (*quartiles(ratios), sum(map(new_wins, ratios)), len(ratios)))


def compare(name: str, trees: dict, docs: list, rounds: int) -> None:
    old, new = trees.values()
    for n, (_, text) in enumerate(docs):
        if printed(old, text) != printed(new, text):
            sys.exit(f"{name}: document {n} prints different bytes in the two trees")
    rates, p50, p90 = ({side: [] for side in trees} for _ in range(3))
    tally = bench.Tally()
    for side, cli in trees.items():  # warm up both trees
        bench.doc_pass(cli, docs, tally)
    for r in range(rounds):
        for side in (trees if r % 2 == 0 else reversed(trees)):
            times = bench.doc_pass(trees[side], docs, tally)
            ms = [t * 1000 for t in times]
            rates[side].append(len(docs) / sum(times))
            p50[side].append(statistics.median(ms))
            p90[side].append(bench.pct(ms, 90))
    if tally.failed:
        sys.exit(f"{name}: {tally.failed} document passes failed: {tally.messages[:3]}")
    print(f"{name} ({len(docs)} docs, {rounds} rounds):")
    print("  " + summary("docs/s", rates, "docs/s", lambda ratio: ratio > 1))
    for metric, values in (("report_ms_p50", p50), ("report_ms_p90", p90)):
        print("  " + summary(metric, values, "ms", lambda ratio: ratio < 1))


# the set-up launches per round, whose mean is the round's: a single one spreads by several ms
SETUP_LAUNCHES = 4


def launches(cfg: dict, seed: int) -> tuple:
    """The interpreter arguments and stdin of a workload's one-shot launches, with `bench/run.py`'s
    documents, commands and fuzz seed, and those of its set-up launch, SETUP_LAUNCHES times."""
    rng, docs, spec_expr, form_literals = bench.make_inputs(cfg, seed)
    runs = [(["-m", "tetrig", bench.oneshot_command(i), "--input", "-"], text)
            for i, (_, text) in enumerate(docs[:cfg["cli_docs"]])]
    if cfg["prime"] is not None:
        runs.append((["-m", "tetrig", "fuzz", "--prime", str(cfg["prime"]),
                      "--samples", str(cfg["fuzz_samples"]), "--seed", str(rng.randrange(2**31))]
                     + (["--random-form"] if cfg["random_form"] else []), ""))
    return runs, [(["-c", bench.setup_code(spec_expr, form_literals)], "")] * SETUP_LAUNCHES


def fresh_copy(src: str, into: Path) -> str:
    """`into`, holding a copy of the `tetrig` package of `src` without its bytecode caches."""
    shutil.copytree(Path(src, "tetrig"), into / "tetrig",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return str(into)


def launch(src: str, args: list, stdin: str) -> tuple:
    """One `python ARGS` of the tree `src`, writing no bytecode: its wall ms, exit code and
    stdout bytes."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], input=stdin.encode(),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, timeout=120)
    return (time.perf_counter() - start) * 1000, proc.returncode, proc.stdout


def compare_launches(name: str, srcs: dict, runs: list, rounds: int) -> None:
    ms = {side: [] for side in srcs}  # per round, the mean ms per launch
    for r in range(rounds):
        total, printed = dict.fromkeys(srcs, 0.0), {}
        for args, stdin in runs:
            for side in (srcs if r % 2 == 0 else reversed(srcs)):
                elapsed, *printed[side] = launch(srcs[side], args, stdin)
                total[side] += elapsed
            if printed["old"] != printed["new"]:
                sys.exit(f"{name}: python {' '.join(args)} prints different bytes or exit codes "
                         "in the two trees")
        for side in srcs:
            ms[side].append(total[side] / len(runs))
    diffs = [b - a for a, b in zip(*ms.values())]
    print(f"{name} ({len(runs)} launches, {rounds} rounds): "
          + "  ".join(f"{side} %.2f ms" % statistics.median(values) for side, values in ms.items())
          + "  new - old %.2f [%.2f, %.2f] ms per launch, new faster in %d of %d"
          % (*quartiles(diffs), sum(diff < 0 for diff in diffs), rounds))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--launch", action="store_true",
                        help="time one-shot `python -m tetrig` launches, not the in-process pass")
    parser.add_argument("--rounds", type=int, help="default 120, or 20 with --launch")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--toy", action="store_true", help="the benchmark's toy corpus sizes")
    args = parser.parse_args()
    if args.rounds is None:
        args.rounds = 20 if args.launch else 120
    if args.rounds < 2:
        parser.error("--rounds: at least 2, one with each tree first")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    srcs = {"old": args.old_src, "new": args.new_src}
    with tempfile.TemporaryDirectory() as tmp:
        if args.launch:
            srcs = {side: fresh_copy(src, Path(tmp, side)) for side, src in srcs.items()}
        else:
            trees = {side: load_tree(f"tetrig_{side}", src) for side, src in srcs.items()}
        print(f"python {sys.version.split()[0]}, pinned to one CPU, "
              + ("launches writing no bytecode (PYTHONDONTWRITEBYTECODE=1), " if args.launch
                 else "") + time.strftime('%Y-%m-%d %H:%M'))
        for name, cfg in bench.WORKLOADS.items():
            cfg = {**cfg, **(bench.TOY if args.toy else {})}
            if args.launch:
                runs, setup = launches(cfg, args.seed)
                compare_launches(name, srcs, runs, args.rounds)
                compare_launches(f"{name} set-up", srcs, setup, args.rounds)
            else:
                _, docs, _, _ = bench.make_inputs(cfg, args.seed)
                compare(name, trees, docs, args.rounds)


if __name__ == "__main__":
    main()
