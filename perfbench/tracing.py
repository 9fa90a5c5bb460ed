"""Spans and counts recorded from the benchmark's side of each library call.

A span has a name, a start, an end and a parent; a layer's self time is the
length of its spans minus the parts their child spans cover.  Counts are
added at the same boundaries.  The tracer of the untraced passes, which give
the end-to-end metrics, records nothing.
"""

from __future__ import annotations

import contextlib
import os
import pstats
import time


class NullTracer:
    """Records nothing; the tracer of every untraced pass."""

    enabled = False

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, n):
        pass


class Tracer:
    """Keeps spans and counts in memory until the pass ends."""

    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = {}
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def record(self, name, seconds):
        """A top-level span timed elsewhere, such as inside a child process."""
        self.spans.append([name, 0.0, seconds, None])

    def self_times(self):
        """Seconds of self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out


# cProfile entries counted exactly: (file name, function name) -> metric.
PROFILED_CALLS = {
    ("geometry.py", "__call__"): "geometry.isometry_calls",
    ("geometry.py", "reduce_key"): "geometry.reduce_key_calls",
    ("geometry.py", "coords"): "geometry.coords_calls",
    ("complexes.py", "canonical_key"): "complexes.canonical_key_calls",
    ("complexes.py", "window"): "complexes.window_calls",
    ("fractions.py", "__new__"): "fractions.new_calls",
    ("orbit.py", "_is_translation_symmetry"): "orbit.lattice_candidates",
    ("ops.py", "rec"): "ops.petrie_translates",
}


def profile_counts(profile, src_dir):
    """Exact call counts for PROFILED_CALLS plus all calls, from a profile.

    Library functions are matched only under ``src_dir``; ``fractions.py``
    is the standard library's.
    """
    stats = pstats.Stats(profile)
    out = {metric: 0 for metric in PROFILED_CALLS.values()}
    for (path, _line, func), (_cc, ncalls, *_rest) in stats.stats.items():
        base = os.path.basename(path)
        metric = PROFILED_CALLS.get((base, func))
        if metric is None:
            continue
        if base != "fractions.py" and not path.startswith(src_dir):
            continue
        out[metric] += ncalls
    out["python.calls"] = stats.total_calls
    return out
