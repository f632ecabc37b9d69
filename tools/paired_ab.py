"""Paired A/B timing of two trees of tetrig in one process.

Loads the `tetrig` package of OLD_SRC and of NEW_SRC side by side, under the names
`tetrig_old` and `tetrig_new`, pins the process to one CPU, and then, for each of the
benchmark's three workloads (`bench/run.py`'s corpora from `bench/corpus.py`):

1. asserts that both trees print the same `report` and `verify` bytes, and exit codes,
   for every document of the corpus;
2. runs the benchmark's in-process document pass (`bench/run.py`'s `doc_pass`: parse,
   report, `json.dumps`) on each tree in turn, alternating which goes first, and prints
   each tree's median docs/s with its quartiles, and the median and quartiles of the
   per-round ratio new/old, with the rounds the new tree won.

Run from the repository root as

    python tools/paired_ab.py OLD_SRC NEW_SRC [--rounds 120] [--seed 1] [--toy]

OLD_SRC and NEW_SRC each hold a `tetrig` package (e.g. `src` of two checkouts; the same
tree twice gives the spread of the method itself).  `--toy` takes the benchmark's toy
corpus sizes.  Nothing is gated on the timings; a byte difference exits non-zero.
"""

import argparse
import importlib.util
import json
import os
import statistics
import sys
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


def compare(name: str, trees: dict, docs: list, rounds: int) -> None:
    old, new = trees.values()
    for n, (_, text) in enumerate(docs):
        if printed(old, text) != printed(new, text):
            sys.exit(f"{name}: document {n} prints different bytes in the two trees")
    rates = {side: [] for side in trees}
    tally = bench.Tally()
    for side, cli in trees.items():  # warm up both trees
        bench.doc_pass(cli, docs, tally)
    for r in range(rounds):
        for side in (trees if r % 2 == 0 else reversed(trees)):
            times = bench.doc_pass(trees[side], docs, tally)
            rates[side].append(len(docs) / sum(times))
    if tally.failed:
        sys.exit(f"{name}: {tally.failed} document passes failed: {tally.messages[:3]}")
    ratios = [b / a for a, b in zip(*rates.values())]
    print(f"{name} ({len(docs)} docs, {rounds} rounds): "
          + "  ".join("%s %.1f [%.1f, %.1f] docs/s" % (side, *quartiles(values))
                      for side, values in rates.items())
          + "  new/old %.3f [%.3f, %.3f], new faster in %d of %d"
          % (*quartiles(ratios), sum(ratio > 1 for ratio in ratios), rounds))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--rounds", type=int, default=120)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--toy", action="store_true", help="the benchmark's toy corpus sizes")
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds: at least 2, one with each tree first")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    trees = {"old": load_tree("tetrig_old", args.old_src),
             "new": load_tree("tetrig_new", args.new_src)}
    print(f"python {sys.version.split()[0]}, pinned to one CPU, "
          f"{time.strftime('%Y-%m-%d %H:%M')}")
    for name, cfg in bench.WORKLOADS.items():
        cfg = {**cfg, **(bench.TOY if args.toy else {})}
        _, docs, _, _ = bench.make_inputs(cfg, args.seed)
        compare(name, trees, docs, args.rounds)


if __name__ == "__main__":
    main()
