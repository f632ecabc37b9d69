"""`fuzz`: the identities, and each skew quadrance re-projected, checked on random
tetrahedra over F_p, sample by sample on the integer kernel, in process or in a pool.

A sample's draw is twelve residues, which the kernel takes as they are: a sample builds no
`Point3`, `Tetrahedron` or report.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from functools import cache, partial
from importlib import import_module

from .blinalg import DegenerateForm, Record, SymmetricForm
from .cli import InputError, _document_obj, _untimed
from .field import FieldError, FieldSpec
from .tetra import (_FUZZ_ROWS, _INDEX, FAIL, INAPPLICABLE, PASS, _analyze_parts, _skew_parts,
                    _verify_parts)

FUZZ_IDENTITY_NAMES = tuple(dict.fromkeys(row[0] for row in _FUZZ_ROWS))
# the identity form of each field, built once: a form is immutable and a FieldSpec interned
_identity_form = cache(SymmetricForm.identity)


class FuzzConfig(Record):
    __slots__ = ("prime", "samples", "seed", "reject_degenerate", "random_form", "workers")

    def __init__(self, prime: int, samples: int, seed: int, reject_degenerate: bool = True,
                 random_form: bool = False, workers: int = 1):
        self.prime, self.samples, self.seed, self.workers = prime, samples, seed, workers
        self.reject_degenerate, self.random_form = reject_degenerate, random_form


def _sample_tetrahedron(rng: random.Random, p: int) -> list[int]:
    """One draw: the twelve residues mod p of a tetrahedron's points, three per point."""
    return [rng.randrange(p) for _ in range(12)]


def _draw_obj(form: SymmetricForm, coords: list[int]) -> dict:
    """`document_to_obj` of a draw, written from its residues, which print as their literals."""
    return _document_obj(form, [[str(r) for r in coords[i:i + 3]] for i in range(0, 12, 3)])


def _run_sample(cfg: FuzzConfig, index: int):
    """One sample: a Counter of its verdicts by (identity, status) and of its rejections
    by "singular_forms" and "degenerate_tetrahedra", and a list of its failure record, if
    any.  Each draw's residues go through the kernel, whose V numerator decides degeneracy, and
    the accepted draw's (num, den) parts are checked as they are, each defined skew part
    against the kernel's skew formula, `_skew_parts`, at points moved along the edges."""
    # per-sample stream derived from (seed, index): the summary cannot
    # depend on how samples are scheduled across workers
    rng = random.Random((cfg.seed << 32) + index)
    p = cfg.prime
    spec = FieldSpec.prime(p)
    red, counts = spec._red, Counter()
    form = None if cfg.random_form else _identity_form(spec)
    while form is None:
        try:
            form = SymmetricForm.from_parts(spec, [(rng.randrange(p), 1) for _ in range(6)])
        except DegenerateForm:
            counts["singular_forms"] += 1
    try:
        while True:
            # the draw is bound before anything that can raise: a fault record needs it
            coords = _sample_tetrahedron(rng, p)
            parts = _analyze_parts(form, 1, coords)
            if not cfg.reject_degenerate or red(parts[_INDEX["quadrume"]][0]) != 0:
                break
            counts["degenerate_tetrahedra"] += 1
        # each defined skew entry again, from points moved along its edges by a drawn t1, t2
        moved = [_skew_parts(form, 1, coords, pairing, rng.randrange(p), rng.randrange(p))
                 if red(parts[n][1]) else (1, 0)
                 for pairing, n in _INDEX["skew_quadrances"].items()]
        statuses = _verify_parts(red, parts, _FUZZ_ROWS, moved)
    except (FieldError, RuntimeError) as exc:
        # an internal fault: record the sample with the draw it was on, tally no verdict, go on
        return counts, [{"sample": index, "input": _draw_obj(form, coords),
                         "error": {"exception": type(exc).__name__, "message": str(exc)}}]
    counts.update((row[0], status) for row, status in zip(_FUZZ_ROWS, statuses))
    failed = [{"identity": row[0], "instance": row[1]}
              for row, status in zip(_FUZZ_ROWS, statuses) if status == FAIL]
    return counts, ([{"sample": index, "input": _draw_obj(form, coords), "failed": failed}]
                    if failed else [])


# fewest samples worth a pool process: below 2 * MIN_SAMPLES_PER_PROCESS a fuzz run maps in
# process, as the pool's start-up costs more than a second core saves (README, --workers)
MIN_SAMPLES_PER_PROCESS = 200


def pool_size(workers: int, samples: int, cpus: int) -> int:
    """Processes for a fuzz run: as asked, but at most one per usable CPU and one per
    MIN_SAMPLES_PER_PROCESS samples."""
    return max(1, min(workers, samples // MIN_SAMPLES_PER_PROCESS, cpus))


def _processes(cfg: FuzzConfig) -> int:
    """`pool_size` of `cfg` on this process's usable CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return pool_size(cfg.workers, cfg.samples, cpus or 1)


def _fold(results) -> tuple[Counter, list]:
    """Adds the Counters and joins the failure lists, in sample order, as results arrive."""
    counts, failures = Counter(), []
    for part_counts, part_failures in results:
        counts.update(part_counts)
        failures += part_failures
    return counts, failures


def _run_span(cfg: FuzzConfig, span: range) -> tuple[Counter, list]:
    """`_fold` of the samples of `span`, a range of sample indices."""
    return _fold(map(partial(_run_sample, cfg), span))


def run_fuzz(cfg: FuzzConfig, run=_untimed) -> tuple[dict, int]:
    try:
        FieldSpec.prime(cfg.prime)
    except FieldError as exc:
        raise InputError(f"--prime: {exc}") from exc
    if cfg.samples < 0:
        raise InputError("--samples: expected a non-negative count")
    if cfg.seed < 0:  # random.Random(-k) replays the stream of k
        raise InputError("--seed: expected a non-negative integer")
    if cfg.workers < 1:
        raise InputError("--workers: expected a positive count")

    # one range of consecutive samples per process, mapped by `_run_span` in process or in a worker
    workers = _processes(cfg)
    size = max(1, -(-cfg.samples // workers))
    spans = [range(i, min(i + size, cfg.samples)) for i in range(0, cfg.samples, size)]
    span = partial(_run_span, cfg)
    if workers <= 1:
        counts, failures = run("samples", _fold, map(span, spans))
    else:
        # start-up: import the pool (report, verify and one-worker fuzz never do), create it
        # and hand each worker its span, which starts them
        futures = run("pool start-up", import_module, "concurrent.futures")
        with run("pool start-up", futures.ProcessPoolExecutor, workers) as pool:
            counts, failures = run("samples", _fold, run("pool start-up", pool.map, span, spans))

    summary = {
        "config": {"prime": cfg.prime, "samples": cfg.samples, "seed": cfg.seed,
                   "reject_degenerate": cfg.reject_degenerate,
                   "random_form": cfg.random_form},
        "rejected": {key: counts[key] for key in ("degenerate_tetrahedra", "singular_forms")},
        "identities": {name: {"checked": sum(counts[name, s] for s in (PASS, FAIL, INAPPLICABLE)),
                              "passed": counts[name, PASS],
                              "inapplicable": counts[name, INAPPLICABLE]}
                       for name in FUZZ_IDENTITY_NAMES},
        "failures": failures,
    }
    return summary, (1 if failures else 0)
