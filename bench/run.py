"""tetrig benchmark: end-to-end and per-layer timings on three workloads.

Run from the repository root:

    python3 bench/run.py --workload fuzz-f101 --seed 1 --seconds 30 --trace 0

The program is imported and run from `src/` of the checkout that holds this
file.  `--trace 0` measures the end-to-end metrics with no tracing;
`--trace 1` makes the separate traced run that gives the per-layer metrics.
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; a fuller record, with the machine and
input description, goes to `bench/results/`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import corpus
from hostspeed import Samples, Yardstick
from tracing import ModuleProfile, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

P31 = 2147483647
CLI_TIMEOUT_S = 120

# Input sizes per workload.  `fuzz_samples` is the --samples of one `tetrig
# fuzz` process; `docs` the in-process corpus, run whole in every round,
# `doc_chunk` documents between two host-speed references (about 0.1 s);
# `cli_docs` the leading corpus documents that also run as one-shot CLI
# processes; `profile_samples` the in-process fuzz run of the traced pass.
WORKLOADS = {
    "fuzz-f101": {"prime": 101, "random_form": False, "fuzz_samples": 40,
                  "docs": 80, "doc_chunk": 16, "cli_docs": 8, "profile_samples": 60},
    "fuzz-p31": {"prime": P31, "random_form": True, "fuzz_samples": 30,
                 "docs": 50, "doc_chunk": 10, "cli_docs": 8, "profile_samples": 40},
    "report-q": {"prime": None, "random_form": True, "fuzz_samples": 0,
                 "docs": 60, "doc_chunk": 5, "cli_docs": 8, "profile_samples": 0},
}
TOY = {"fuzz_samples": 8, "docs": 5, "doc_chunk": 5, "cli_docs": 2, "profile_samples": 4}


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def load_program():
    """Import tetrig from this checkout's src/, never from an installed copy."""
    if not (SRC / "tetrig" / "cli.py").is_file():
        sys.exit(f"bench: no program at {SRC / 'tetrig'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tetrig.cli
    if not Path(tetrig.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: imported tetrig from {tetrig.cli.__file__}, not from {SRC}")
    return tetrig.cli


# -- subprocesses -------------------------------------------------------------

def run_python(args, stdin_text=None):
    """Run the interpreter as a child; returns (seconds, exit code, stdout bytes)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    data = stdin_text.encode() if stdin_text is not None else None
    try:
        out, _ = proc.communicate(data, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the session holds any pool workers the child started
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return time.perf_counter() - start, -1, b""
    return time.perf_counter() - start, proc.returncode, out


def run_tetrig(args, stdin_text=None):
    return run_python(["-m", "tetrig", *args], stdin_text)


def setup_code(spec_expr, form_literals):
    """A fresh interpreter imports tetrig.cli and builds the workload's field
    spec and form: the program's set-up."""
    return ("import tetrig.cli as c\n"
            f"spec = c.{spec_expr}\n"
            f"form = c.SymmetricForm(*(c.parse_element(s, spec) for s in {form_literals!r}))\n")


def import_ms(tally, repeats=5):
    code = ("import time\nt = time.perf_counter()\nimport tetrig.cli\n"
            "print(time.perf_counter() - t)\n")
    values = []
    for _ in range(repeats):
        _, rc, out = run_python(["-c", code])
        if tally.record(rc == 0, f"import launch exited {rc}"):
            values.append(float(out) * 1000)
    return statistics.median(values) if values else 0.0


# -- output checks -------------------------------------------------------------

def statuses(results_obj):
    return [v["status"] for v in results_obj["verdicts"]]


def report_ok(out: dict) -> bool:
    """Every identity verdict passes or is inapplicable; right-corner checks pass."""
    try:
        ok = all(s in ("pass", "inapplicable") for s in statuses(out["identities"]))
        if "tri_rectangular" in out:
            ok = ok and all(s == "pass" for s in statuses(out["tri_rectangular"]))
        return ok
    except (KeyError, TypeError):
        return False


def fuzz_ok(stdout: bytes, rc: int, samples: int) -> bool:
    if rc != 0:
        return False
    try:
        summary = json.loads(stdout)
        return (summary["failures"] == [] and summary["config"]["samples"] == samples
                and all(row["checked"] == row["passed"] + row["inapplicable"]
                        for row in summary["identities"].values()))
    except (ValueError, KeyError, TypeError, AttributeError):
        return False


def oneshot_command(i):
    return "report" if i % 2 == 0 else "verify"


def expected_outputs(cli, cli_docs):
    """What each one-shot process must print, computed in-process."""
    outputs = []
    for i, (_, text) in enumerate(cli_docs):
        doc = cli.load_document(text)
        out = cli.run_report(doc) if oneshot_command(i) == "report" else cli.run_verify(doc)[0]
        outputs.append(json.dumps(out, indent=2) + "\n")
    return outputs


# -- measured passes -------------------------------------------------------------

def doc_pass(cli, docs, tally, tracer=None):
    """load_document -> run_report -> json.dumps for every document; seconds per document."""
    dumps = tracer.wrap("json.dumps", json.dumps) if tracer else json.dumps
    times = []
    for kind, text in docs:
        with tracer.span("doc") if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            out = cli.run_report(cli.load_document(text))
            dumps(out, indent=2)
            times.append(time.perf_counter() - start)
        tally.record(report_ok(out), f"in-process {kind} document has a failing verdict")
    return times


def oneshot(cli_docs, expected, i, tally):
    """Document i through one `tetrig report` (even i) or `tetrig verify` (odd i) process."""
    command = oneshot_command(i)
    _, rc, out = run_tetrig([command, "--input", "-"], cli_docs[i][1])
    tally.record(rc == 0 and out == expected[i].encode(),
                 f"one-shot {command} of document {i}: exit {rc} or output differs")


def oneshot_pair(cli_docs, expected, tally):
    """Two closed-loop clients share the documents, one one-shot process each at a time."""
    def client(first):
        for i in range(first, len(cli_docs), 2):
            oneshot(cli_docs, expected, i, tally)

    with ThreadPoolExecutor(2) as pool:
        list(pool.map(client, (0, 1)))


def fuzz_cli(cfg, seed, workers, tally):
    """One `tetrig fuzz` process; returns its summary bytes, or None if it failed."""
    args = ["fuzz", "--prime", str(cfg["prime"]), "--samples", str(cfg["fuzz_samples"]),
            "--seed", str(seed), "--workers", str(workers)]
    _, rc, out = run_tetrig(args + (["--random-form"] if cfg["random_form"] else []))
    ok = tally.record(fuzz_ok(out, rc, cfg["fuzz_samples"]),
                      f"fuzz seed {seed} workers {workers}: exit {rc} or bad summary")
    return out if ok else None


# -- workloads --------------------------------------------------------------------

def make_inputs(cfg, seed):
    rng = random.Random(seed)
    if cfg["prime"] is None:
        docs = corpus.q_corpus(rng.randrange(2**32), cfg["docs"])
        spec_expr = "FieldSpec.rational()"
    else:
        docs = corpus.fp_corpus(rng.randrange(2**32), cfg["docs"], cfg["prime"],
                                cfg["random_form"])
        spec_expr = f"FieldSpec.prime({cfg['prime']})"
    form = json.loads(docs[0][1])["form"]
    form_literals = tuple(form[key] for key in corpus.FORM_KEYS)
    return rng, docs, spec_expr, form_literals


def pct(values, q):
    """q-th percentile (0 < q < 100) by linear interpolation between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(cli, cfg, seed, seconds, tally):
    """End-to-end metrics: rounds of every activity, interleaved until `seconds` pass.

    Every item (a set-up launch, a fuzz process, a one-shot document, an
    in-process document) runs in every round and reports the median of its
    host-speed scaled times.  The same metrics from raw times go to the record.
    """
    rng, docs, spec_expr, form_literals = make_inputs(cfg, seed)
    setup = setup_code(spec_expr, form_literals)
    cli_docs = docs[:cfg["cli_docs"]]
    expected = expected_outputs(cli, cli_docs)
    fuzz_seed = rng.randrange(2**31)
    fuzz = cfg["prime"] is not None
    size = cfg["doc_chunk"]
    chunks = [docs[i:i + size] for i in range(0, len(docs), size)]
    _, rc, _ = run_python(["-c", setup])  # fills the bytecode cache
    tally.record(rc == 0, f"set-up launch exited {rc}")

    yard = Yardstick()
    samples = Samples()
    summaries = set()

    def timed(key, fn, kind, wide=False):
        result, raw, scaled = yard.time(fn, kind, wide)
        samples.add(key, raw, scaled)
        return result

    def oneshot_round():
        for i in range(len(cli_docs)):
            timed(("cli", i), lambda: oneshot(cli_docs, expected, i, tally), "launch")

    start = time.perf_counter()
    rounds = 0
    # a new round starts only if a round of average length still fits
    while rounds < 2 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        rc = timed(("setup", 0), lambda: run_python(["-c", setup])[1], "launch")
        tally.record(rc == 0, f"set-up launch exited {rc}")
        # Short items track the host's speed best, so the 1- and 2-process
        # items are short and run three times a round, in alternating order.
        for group in ((1, 2) if rounds % 2 == 0 else (2, 1)) * 3:
            if fuzz:
                summaries.add(timed(("fuzz", group),
                                    lambda: fuzz_cli(cfg, fuzz_seed, group, tally),
                                    "process", wide=group == 2))
            elif group == 2:
                timed(("pair", 0), lambda: oneshot_pair(cli_docs, expected, tally), "launch",
                      wide=True)
        oneshot_round()
        for c, chunk in enumerate(chunks):
            times, raw, scaled = yard.time(lambda: doc_pass(cli, chunk, tally), "compute")
            for j, doc_s in enumerate(times):
                samples.add(("doc", c * size + j), doc_s, doc_s * scaled / raw)
        rounds += 1
    if fuzz:
        tally.record(len(summaries) == 1 and None not in summaries,
                     f"fuzz seed {fuzz_seed}: summaries differ across workers or repeats")

    def summarise(scaled):
        doc_ms = [t * 1000 for t in samples.series("doc", scaled)]
        cli_ms = [t * 1000 for t in samples.series("cli", scaled)]
        if fuzz:
            rate_1w = cfg["fuzz_samples"] / samples.median(("fuzz", 1), scaled)
            rate_2w = cfg["fuzz_samples"] / samples.median(("fuzz", 2), scaled)
        else:
            # no fuzz over Q: a sample is one document through a one-shot
            # CLI process, run by one client and by two concurrent clients
            rate_1w = len(cli_ms) * 1000 / sum(cli_ms)
            rate_2w = len(cli_ms) / samples.median(("pair", 0), scaled)
        return {
            "setup_s": (samples.median(("setup", 0), scaled), "s"),
            "samples_per_s": (rate_1w, "1/s"),
            "samples_per_s_2w": (rate_2w, "1/s"),
            "docs_per_s": (len(doc_ms) * 1000 / sum(doc_ms), "1/s"),
            "report_ms_p50": (statistics.median(doc_ms), "ms"),
            "report_ms_p90": (pct(doc_ms, 90), "ms"),
            "cli_ms_p50": (statistics.median(cli_ms), "ms"),
            "cli_ms_p90": (pct(cli_ms, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        }

    sizes = {"rounds": rounds, "docs": len(docs), "cli_docs": len(cli_docs),
             "fuzz_samples_per_process": cfg["fuzz_samples"], "fuzz_seed": fuzz_seed,
             "raw_metrics": {name: v for name, (v, _) in summarise(False).items()}}
    return summarise(True), sizes, docs


def trace(cli, cfg, seed, seconds, tally):
    """Per-layer metrics from one in-process, single-worker traced run."""
    import tetrig.blinalg as blinalg
    import tetrig.field as field
    import tetrig.tetra as tetra
    import tetrig
    layers = [getattr(tetrig, m) for m in ("field", "blinalg", "affine", "trig", "tetra", "cli")]

    rng, docs, _, _ = make_inputs(cfg, seed)
    fuzz_cfg = None
    if cfg["prime"] is not None:
        fuzz_cfg = cli.FuzzConfig(prime=cfg["prime"], samples=cfg["profile_samples"],
                                  seed=rng.randrange(2**31), random_form=cfg["random_form"])
        trace_docs = docs[:max(1, len(docs) // 4)]
    else:
        trace_docs = docs

    def fuzz_run():
        summary, rc = cli.run_fuzz(fuzz_cfg)
        tally.record(fuzz_ok(json.dumps(summary).encode(), rc, fuzz_cfg.samples),
                     "in-process fuzz run failed")
        return summary

    def unit(tracer=None):
        if fuzz_cfg is not None:
            fuzz_run()
        doc_pass(cli, trace_docs, tally, tracer)

    yard = Yardstick()
    samples = Samples()

    # Untraced and traced passes alternate over the same inputs; the
    # difference of their medians is the tracing overhead.
    tracer = Tracer()
    wrapped = ("_run_sample", "_sample_tetrahedron", "analyze", "verify_identities",
               "skew_quadrance", "load_document", "report_to_obj", "results_to_obj",
               "tri_rectangular_checks")
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds / 2:
        _, raw, scaled = yard.time(unit, "compute")
        samples.add(("plain", 0), raw, scaled)
        first = len(tracer.spans)
        with tracer.patched(cli, wrapped):
            _, raw, scaled = yard.time(lambda: unit(tracer), "compute")
        samples.add(("traced", 0), raw, scaled)
        tracer.scale_since(first, scaled / raw)
        rounds += 1

    # Two profile passes over the primary pipeline; their counts must agree exactly.
    profiles = []
    for _ in range(2):
        profile = ModuleProfile(SRC / "tetrig", layers)
        if fuzz_cfg is not None:
            summary, raw, scaled = yard.time(lambda: profile.run(fuzz_run), "compute")
            tets = fuzz_cfg.samples
        else:
            _, raw, scaled = yard.time(lambda: profile.run(lambda: doc_pass(cli, docs, tally)),
                                       "compute")
            tets = len(docs)
        profiles.append((profile, scaled / raw))
    tally.record(profiles[0][0].calls == profiles[1][0].calls,
                 "call counts differ between two profile passes")
    prof, prof_scale = profiles[0]

    # Pool scaling: the same work at one and at two processes, three times each.
    if fuzz_cfg is not None:
        rejected = summary["rejected"]
        accept = tets / (tets + rejected["degenerate_tetrahedra"] + rejected["singular_forms"])
        pool_seed = rng.randrange(2**31)
        pool = {n: (lambda n=n: fuzz_cli(cfg, pool_seed, n, tally)) for n in (1, 2)}
        kind = "process"
    else:
        accept = 0.0
        cli_docs = docs[:cfg["cli_docs"]]
        expected = expected_outputs(cli, cli_docs)
        pool = {1: lambda: [oneshot(cli_docs, expected, i, tally) for i in range(len(cli_docs))],
                2: lambda: oneshot_pair(cli_docs, expected, tally)}
        kind = "launch"
    for _ in range(3):
        for n, fn in pool.items():
            _, raw, scaled = yard.time(fn, kind, wide=n == 2)
            samples.add(("pool", n), raw, scaled)
    scaling = samples.median(("pool", 1), True) / (2 * samples.median(("pool", 2), True))

    def per_tet_ms(*names):
        return sum(prof.self_s[n] for n in names) * prof_scale * 1000 / tets

    def p50(name):
        values = tracer.durations_ms(name)
        return statistics.median(values) if values else 0.0

    serialise = tracer.per_request_ms({"tetrig.cli.report_to_obj", "tetrig.cli.results_to_obj",
                                       "json.dumps"})
    spec_init = field.FieldSpec.__init__
    metrics = {
        "field.self_ms_per_tet": (per_tet_ms("field", "fractions"), "ms"),
        "field.elements_per_tet": (prof.count(field.FieldElement.__init__) / tets, "count"),
        "field.spec_builds_per_sample": (prof.count(spec_init) / tets, "count"),
        "field.is_prime_ms_per_sample": (prof.cumulative_s(spec_init) * prof_scale * 1000 / tets,
                                         "ms"),
        "field.fraction_self_ms_per_doc": (per_tet_ms("fractions"), "ms"),
        "blinalg.self_ms_per_tet": (per_tet_ms("blinalg"), "ms"),
        "blinalg.dot_calls_per_tet": (prof.count(blinalg.SymmetricForm.dot) / tets, "count"),
        "blinalg.b_cross_calls_per_tet": (prof.count(blinalg.b_cross) / tets, "count"),
        "affine.self_ms_per_tet": (per_tet_ms("affine"), "ms"),
        "trig.self_ms_per_tet": (per_tet_ms("trig"), "ms"),
        "tetra.self_ms_per_tet": (per_tet_ms("tetra"), "ms"),
        "tetra.analyze_ms_p50": (p50("tetrig.cli.analyze"), "ms"),
        "tetra.verify_ms_p50": (p50("tetrig.cli.verify_identities"), "ms"),
        "tetra.analyze_calls_per_doc": (prof.count(tetra.analyze) / tets, "count"),
        "tetra.skew_projection_ms_p50": (p50("tetrig.cli.skew_quadrance"), "ms"),
        "tetra.undefined_per_tet": (prof.count(tetra.Undefined.__init__) / tets, "count"),
        "cli.sample_ms_p50": (p50("tetrig.cli._sample_tetrahedron"), "ms"),
        "cli.sample_accept_ratio": (accept, "ratio"),
        "cli.pool_scaling_eff": (scaling, "ratio"),
        "cli.import_ms": (import_ms(tally), "ms"),
        "cli.parse_ms_p50": (p50("tetrig.cli.load_document"), "ms"),
        "cli.serialise_ms_p50": (statistics.median(serialise) if serialise else 0.0, "ms"),
        "trace.overhead_frac": (samples.median(("traced", 0), True)
                                / samples.median(("plain", 0), True) - 1, "ratio"),
    }
    sizes = {"rounds": rounds, "profiled_tets": tets, "trace_docs": len(trace_docs),
             "spans": len(tracer.spans)}
    return metrics, sizes, docs


# -- entry point ------------------------------------------------------------------

def git_commit():
    """Commit of the checkout, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="shrink every input to a few items (smoke test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cli = load_program()
    nproc = len(os.sched_getaffinity(0))  # before the yardstick pins the process
    cfg = dict(WORKLOADS[args.workload])
    if args.toy:
        cfg.update({k: min(v, cfg[k]) if cfg[k] else 0 for k, v in TOY.items()})
    tally = Tally()
    run = trace if args.trace else measure
    metrics, sizes, docs = run(cli, cfg, args.seed, args.seconds, tally)

    kinds = [kind for kind, _ in docs]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy,
        "nproc": nproc, "python": platform.python_version(),
        "platform": platform.platform(), "commit": git_commit(),
        "input": {"prime": cfg["prime"], "random_form": cfg["random_form"],
                  "corpus_mix": {k: kinds.count(k) for k in sorted(set(kinds))}, **sizes},
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "failures": tally.messages,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
