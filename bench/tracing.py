"""Spans around the program's lookups, and a cProfile pass grouped by module.

Spans come from wrappers the benchmark installs over names in a module's
namespace (for example `tetrig.cli.analyze`); the program itself is not
changed.  The profile pass attributes self time and exact call counts to the
layers of `src/tetrig`, one layer per module file.
"""

from __future__ import annotations

import contextlib
import cProfile
import fractions
import os
import time
from collections import defaultdict


class Tracer:
    """In-memory spans: [name, parent index, request index, start ns, end ns, scale].

    `scale` converts a span's duration to host-speed scaled time (see hostspeed).
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        request = self.spans[parent][2] if parent >= 0 else len(self.spans)
        index = len(self.spans)
        self.spans.append([name, parent, request, time.perf_counter_ns(), 0, 1.0])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][4] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    @contextlib.contextmanager
    def patched(self, module, names):
        """Replace each `module.<name>` by a traced wrapper, restoring on exit."""
        saved = {name: getattr(module, name) for name in names}
        prefix = module.__name__
        try:
            for name, fn in saved.items():
                setattr(module, name, self.wrap(f"{prefix}.{name}", fn))
            yield
        finally:
            for name, fn in saved.items():
                setattr(module, name, fn)

    def scale_since(self, first, scale):
        for s in self.spans[first:]:
            s[5] = scale

    def durations_ms(self, name) -> list[float]:
        return [(s[4] - s[3]) * s[5] / 1e6 for s in self.spans if s[0] == name]

    def per_request_ms(self, names) -> list[float]:
        """Summed duration of the named spans within each request that has any."""
        totals = defaultdict(float)
        for s in self.spans:
            if s[0] in names:
                totals[s[2]] += (s[4] - s[3]) * s[5] / 1e6
        return list(totals.values())


class ModuleProfile:
    """Self time per layer and call counts per code object, from one cProfile pass.

    A layer's self time is the inline time of its Python functions plus the
    time of builtins they call directly.  Methods that `dataclasses`
    generates have no source file, so they are matched to the module of
    their class through `code_owners`.
    """

    def __init__(self, src_dir, modules):
        self.src_dir = os.path.realpath(src_dir)
        self.fractions_file = os.path.realpath(fractions.__file__)
        self.code_owners = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            for obj in vars(module).values():
                if isinstance(obj, type) and obj.__module__ == module.__name__:
                    for attr in vars(obj).values():
                        code = getattr(attr, "__code__", None)
                        if code is not None:
                            self.code_owners[id(code)] = layer
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)

    def layer_of(self, code) -> str:
        if id(code) in self.code_owners:
            return self.code_owners[id(code)]
        path = os.path.realpath(code.co_filename)
        if path == self.fractions_file:
            return "fractions"
        if os.path.dirname(path) == self.src_dir:
            return os.path.splitext(os.path.basename(path))[0]
        return "other"

    def run(self, fn):
        profile = cProfile.Profile()
        profile.enable()
        try:
            result = fn()
        finally:
            profile.disable()
        for entry in profile.getstats():
            if isinstance(entry.code, str):
                continue  # builtins are charged to their callers below
            layer = self.layer_of(entry.code)
            self.self_s[layer] += entry.inlinetime
            self.calls[id(entry.code)] += entry.callcount
            self.total_s[id(entry.code)] += entry.totaltime
            for sub in entry.calls or ():
                if isinstance(sub.code, str):
                    self.self_s[layer] += sub.inlinetime
        return result

    def count(self, fn) -> int:
        code = getattr(fn, "__code__", None)
        return self.calls.get(id(code), 0) if code is not None else 0

    def cumulative_s(self, fn) -> float:
        code = getattr(fn, "__code__", None)
        return self.total_s.get(id(code), 0.0) if code is not None else 0.0
