"""In-memory span recorder used by the traced benchmark run.

A span is (name, start, end, parent, group): ``parent`` is the index of
the enclosing span (-1 at the top) and ``group`` names the repetition
the span belongs to ("cold", "rep3", "probe").  Spans stay in memory
until the run ends; self time is a span's duration minus the part of
it that its direct children cover.  A disabled tracer records nothing
and hands callables back unwrapped, so the untraced run pays nothing.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.group = None
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.group)

    def wrap(self, fn, name):
        """``fn`` with every call recorded as a span named ``name``."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def per_group(self):
        """{group: {name: {"total": s, "self": s, "count": n, "calls": [s, ...]}}}."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for i, (name, t0, t1, _, group) in enumerate(self.spans):
            s = out.setdefault(group, {}).setdefault(
                name, {"total": 0.0, "self": 0.0, "count": 0, "calls": []})
            s["total"] += t1 - t0
            s["self"] += t1 - t0 - child[i]
            s["count"] += 1
            s["calls"].append(t1 - t0)
        return out

    def dump(self, path, workload):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"workload": workload, "spans": [
                {"name": n, "start": t0 - origin, "end": t1 - origin, "parent": p, "group": g}
                for n, t0, t1, p, g in self.spans
            ]}, fh)


def median(values):
    return float(statistics.median(values))


def tail_percentile(values):
    """(p, value) for the highest whole percentile with at least ten
    samples above it, or None when there are too few samples (< 20)."""
    n = len(values)
    if n < 20:
        return None
    p = (100 * (n - 10)) // n
    return p, float(statistics.quantiles(values, n=100, method="inclusive")[p - 1])
