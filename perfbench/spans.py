"""Per-layer totals of the benchmark's calls into combweyl.

The benchmark wraps every call into a layer's public function in
Tracer.call, which adds the call's duration and one call to that layer's
totals.  Library code never calls back into the tracer, so calls do not
nest and a call's duration is its layer's busy time.  With tracing off,
Off.call is a plain call and counters are dropped, so the untraced run pays
one extra Python call per library call.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Off:
    """The untraced run: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, value):
        pass


class Tracer(Off):
    """Sums busy time, calls and named counters per layer."""

    enabled = True

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def call(self, name, fn, *args):
        t = perf_counter()
        try:
            return fn(*args)
        finally:
            self.busy[name] += perf_counter() - t
            self.calls[name] += 1

    def count(self, name, value):
        self.counts[name] += value
