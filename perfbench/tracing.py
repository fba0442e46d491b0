"""Spans and kernel counters recorded from outside chainform.

The benchmark opens a span around each call it makes into a layer; spans
stay in memory and are written out once, at the end of a traced run.  The
kernel is observed by temporarily replacing the terms functions that the
engines module binds with counting wrappers.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

# The terms functions chainform.engines binds at import.
KERNEL_FUNCTIONS = ("match", "unify", "rename_many", "term_vars")

_NULL_SPAN = nullcontext()


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    def span(self, name, goal=None):
        return _NULL_SPAN


class Tracer:
    """Records (name, start, end, parent index, goal id) per span.

    A span without a goal id inherits its parent's.
    """

    def __init__(self):
        self.spans = []
        self._open = []  # (span index, goal id) of the enclosing spans

    def span(self, name, goal=None):
        return _Span(self, name, goal)

    def total(self, name):
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def self_times(self):
        """Per layer (the span name up to its first dot), the time its spans
        cover minus the time covered by their child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += end - start - child[i]
        return dict(out)

    def write(self, path, extra):
        """Write every span, and the fields of extra, as one JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "goal"],
                    "spans": self.spans,
                    **extra,
                },
                handle,
            )


class _Span:
    __slots__ = ("tracer", "name", "goal", "index", "parent", "start")

    def __init__(self, tracer, name, goal):
        self.tracer = tracer
        self.name = name
        self.goal = goal

    def __enter__(self):
        tracer = self.tracer
        if tracer._open:
            self.parent, inherited = tracer._open[-1]
            if self.goal is None:
                self.goal = inherited
        else:
            self.parent = -1
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer._open.append((self.index, self.goal))
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tracer = self.tracer
        tracer._open.pop()
        tracer.spans[self.index] = (self.name, self.start, end, self.parent, self.goal)
        return False


class KernelCounters:
    """Call counts, successful calls (a result other than None) and time of
    the kernel functions a module binds, while installed."""

    def __init__(self):
        self.calls = dict.fromkeys(KERNEL_FUNCTIONS, 0)
        self.ok = dict.fromkeys(KERNEL_FUNCTIONS, 0)
        self.seconds = 0.0

    @contextmanager
    def installed(self, module):
        saved = {name: getattr(module, name) for name in KERNEL_FUNCTIONS}
        for name, original in saved.items():
            setattr(module, name, self._wrap(name, original))
        try:
            yield self
        finally:
            for name, original in saved.items():
                setattr(module, name, original)

    def _wrap(self, name, fn):
        calls = self.calls
        ok = self.ok

        def counted(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            self.seconds += perf_counter() - t0
            calls[name] += 1
            if result is not None:
                ok[name] += 1
            return result

        return counted

