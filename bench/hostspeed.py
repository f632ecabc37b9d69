"""Timings scaled by the host's speed at the moment they were taken.

On a shared virtual machine each CPU switches between a fast and a slow
state that last from under a second to tens of seconds; pure-Python work runs
up to 1.8x faster in the fast state, interpreter start-up about 1.3x.  A
median over one run then mostly tells which state the run fell in.  So every
measured item is bracketed by a reference of its own kind, run on the same
CPUs, and its time is scaled by NOMINAL_S[kind] / (reference time):

- "compute" items (in-process documents) by a fixed pure-Python kernel;
- "launch" items (set-up launches, one-shot CLI processes) by the start of
  a bare interpreter;
- "process" items (fuzz processes, which start and then compute) by an
  interpreter that starts and runs the kernel for about 0.06 s.

Scaled times read as the time on a host where the references take
NOMINAL_S; both the raw and the scaled figures are kept.
"""

from __future__ import annotations

import inspect
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

NOMINAL_S = {"compute": 0.010, "launch": 0.065, "process": 0.125}
FRESH_S = 1.0  # a reference older than this is taken again before the next item


def reference_kernel(n=4000):
    """Fixed pure-Python work that does not touch tetrig: 3x3 determinants mod p."""
    p = 10007
    acc = 0
    for i in range(n):
        a, b, c, d, e, f, g, h, k = [(i * 7 + j) % p for j in range(9)]
        acc = (acc + a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)) % p
    return acc


# The child-process references: a fresh interpreter runs the kernel n times.
CHILD_CODE = {kind: inspect.getsource(reference_kernel) + f"reference_kernel({n})\n"
              for kind, n in (("launch", 0), ("process", 16000))}


class Yardstick:
    """Pins the benchmark to one CPU and times items against the references.

    Children inherit the CPU set of the thread that starts them, so
    single-process items run on the home CPU, where the references run.
    `wide` items, which run two processes at once, get the first two CPUs
    and a reference on each of the two.  Compute items run in-process and
    are never wide.
    """

    def __init__(self):
        cpus = sorted(os.sched_getaffinity(0))
        self.home, self.pair = cpus[0], cpus[:2]
        self.last = {}  # (kind, wide) -> (when taken, seconds)

    def _reference(self, kind, wide):
        """Reference seconds now; leaves the calling thread pinned to the home CPU."""
        cpus = self.pair if wide else [self.home]
        if kind == "compute":
            os.sched_setaffinity(0, {self.home})
            start = time.perf_counter()
            reference_kernel()
            return time.perf_counter() - start
        if kind == "launch":
            # Measured: two bare starts at once tracked two concurrent
            # one-shot clients worse than the slower of two sequential starts.
            return max(self._children([cpu], kind) for cpu in cpus)
        return self._children(cpus, kind)

    def _children(self, cpus, kind):
        """Seconds until one reference child per CPU, all started at once, have ended."""
        start = time.perf_counter()
        children = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            children.append(subprocess.Popen([sys.executable, "-c", CHILD_CODE[kind]]))
        os.sched_setaffinity(0, {self.home})
        for child in children:
            if child.wait() != 0:
                raise RuntimeError(f"{kind} reference exited {child.returncode}")
        return time.perf_counter() - start

    def time(self, fn, kind, wide=False):
        """Run fn(); returns (result, seconds, scaled seconds)."""
        taken, before = self.last.get((kind, wide), (-math.inf, 0.0))
        if time.perf_counter() - taken > FRESH_S:
            before = self._reference(kind, wide)
        if wide:
            os.sched_setaffinity(0, self.pair)
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        after = self._reference(kind, wide)
        self.last[(kind, wide)] = (time.perf_counter(), after)
        return result, seconds, seconds * NOMINAL_S[kind] * 2 / (before + after)


class Samples:
    """Raw and scaled seconds of repeated items, keyed by (series, index)."""

    def __init__(self):
        self.values = {False: defaultdict(list), True: defaultdict(list)}

    def add(self, key, seconds, scaled):
        self.values[False][key].append(seconds)
        self.values[True][key].append(scaled)

    def median(self, key, scaled):
        return statistics.median(self.values[scaled][key])

    def series(self, name, scaled):
        """Median of each item of a series, in index order."""
        items = sorted(k for k in self.values[scaled] if k[0] == name)
        return [self.median(k, scaled) for k in items]
