"""In-memory spans around the benchmark's calls into each layer.

A span records a name, start and end (``perf_counter_ns``), the span that
encloses it on the same thread, and the item it belongs to. Spans stay in
memory until the run ends; :func:`summarise` then derives each span's self
time (its duration minus the part its children cover) and per-name medians.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


def p90(values):
    """90th percentile (inclusive method); the value itself for one sample."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    enabled = False
    _null = nullcontext()

    def span(self, name, item=None):
        return self._null


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[tuple[int, int, str, object, int, int]] = []  # id, parent, name, item, start, end
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name, item=None):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, item, start, end))

    def durations(self, name) -> list[int]:
        return [s[5] - s[4] for s in self.spans if s[2] == name]

    def by_item(self, name) -> dict:
        """Duration of the last span called ``name`` for each item."""
        return {s[3]: s[5] - s[4] for s in self.spans if s[2] == name}


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, parent, _name, _item, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, _item, start, end in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = end - start - covered
    return out


def summarise(spans) -> dict[str, dict]:
    """Per span name: sample count, and median and p90 of duration and self time, in ns."""
    selfs = self_times(spans)
    durations, own = defaultdict(list), defaultdict(list)
    for sid, _parent, name, _item, start, end in spans:
        durations[name].append(end - start)
        own[name].append(selfs[sid])
    return {
        name: {
            "n": len(durations[name]),
            "median_ns": statistics.median(durations[name]),
            "p90_ns": p90(durations[name]),
            "self_median_ns": statistics.median(own[name]),
            "self_p90_ns": p90(own[name]),
        }
        for name in sorted(durations)
    }
