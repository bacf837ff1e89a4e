"""Per-layer spans and counters for a traced build.

The tracer wraps the functions that ``planetree.builder`` looks up in its
own module namespace, so the package itself is not modified and an
untraced build runs the original functions.  Each wrapper records a span
(name, start, end, parent) and the exact work counters of its layer.

``geometry`` predicates are not wrapped: a wrapper around ``orient`` would
cost more than the call it measures, so geometry time shows up as the self
time of its callers.  ``line_crosses_triangle`` is left alone for the same
reason and counts toward ``builder.split``.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import planetree.builder as builder

#: Span names whose self time is reported as ``<name>.self_s``.
LAYERS = (
    "builder",
    "builder.split",
    "builder.merge",
    "triangles.root",
    "triangles.side",
    "rotation",
    "graphs.induced",
    "graphs.certify",
    "oracle",
)


class Tracer:
    """Spans and counters of one traced pass; create one per pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        # Graphs currently being split, innermost last: a triangle count on
        # an induced subgraph of the innermost one is a side count.
        self._splitting: list[object] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._open.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open.pop()
            _, start, _, _ = self.spans[idx]
            self.spans[idx] = (name, start, time.perf_counter(), parent)

    def self_times(self, duration=lambda start, end: end - start) -> dict[str, float]:
        """Span duration minus the time its child spans cover, per name."""
        spent = [duration(start, end) for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent), seconds in zip(self.spans, spent):
            if parent >= 0:
                child[parent] += seconds
        out: Counter[str] = Counter()
        for (name, _, _, _), seconds, covered in zip(self.spans, spent, child):
            out[name] += seconds - covered
        return dict(out)

    # -- wrappers ------------------------------------------------------

    def _triangles(self, fn):
        def wrapper(g, *args, **kwargs):
            parent = getattr(g, "parent", None)
            layer = "triangles.root" if parent is None else "triangles.side"
            self.counts[layer + ".calls"] += 1
            self.counts[layer + ".points"] += g.n
            if self._splitting and parent is self._splitting[-1]:
                self.counts["builder.split.side_counts"] += 1
            return self.call(layer, fn, g, *args, **kwargs)

        return wrapper

    def _split(self, fn):
        def wrapper(g, *args, **kwargs):
            self._splitting.append(g)
            try:
                split = self.call("builder.split", fn, g, *args, **kwargs)
            finally:
                self._splitting.pop()
            self.counts["builder.splits" if split is not None else "builder.fallbacks"] += 1
            return split

        return wrapper

    def _rotation(self, fn):
        def wrapper(*args, **kwargs):
            seq = self.call("rotation", fn, *args, **kwargs)
            self.counts["rotation.sweeps"] += 1
            self.counts["rotation.states"] += 2 * len(seq.intermediates)
            return seq

        return wrapper

    def _induced(self, fn):
        def wrapper(*args, **kwargs):
            sub = self.call("graphs.induced", fn, *args, **kwargs)
            self.counts["graphs.induced.calls"] += 1
            self.counts["graphs.induced.points"] += sub.n
            return sub

        return wrapper

    def _certify(self, fn):
        def wrapper(*args, **kwargs):
            verdict = self.call("graphs.certify", fn, *args, **kwargs)
            self.counts["graphs.certify.calls"] += 1
            self.counts["graphs.certify.edges"] += len(getattr(verdict, "tree_edges", ()))
            return verdict

        return wrapper

    def _merge(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["builder.merge.calls"] += 1
            return self.call("builder.merge", fn, *args, **kwargs)

        return wrapper

    def oracle(self, fn):
        def wrapper(*args, **kwargs):
            result = self.call("oracle", fn, *args, **kwargs)
            self.counts["oracle.calls"] += 1
            self.counts["oracle.nodes"] += result.nodes
            self.counts["oracle.budget_exceeded"] += result.exists is None
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the builder's collaborators for the duration of the block.

        Names a later version of the builder no longer has are skipped;
        their counters then read 0.
        """
        wrappers = {
            "disconnected_empty_triangles": self._triangles,
            "find_valid_split": self._split,
            "full_rotation": self._rotation,
            "induced_subgraph": self._induced,
            "certify_plane_spanning_tree": self._certify,
            "merge_side_trees": self._merge,
            "has_plane_spanning_tree": self.oracle,
        }
        saved = {name: getattr(builder, name) for name in wrappers if hasattr(builder, name)}
        try:
            for name, original in saved.items():
                setattr(builder, name, wrappers[name](original))
            yield self
        finally:
            for name, original in saved.items():
                setattr(builder, name, original)
