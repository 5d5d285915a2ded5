"""Spans and counts around the library's layers, recorded from outside.

The pipeline resolves its collaborators as module globals at call time
(``decompose``, ``peel_grading``, ``intersects``, ...), so rebinding those
names to wrappers measures every layer without touching the library. A
wrapper records a span (name, start, end, parent span, op id) and takes
counts from the arguments and the return value. Pair tests are far too
many for spans; their wrappers only bump a counter on the innermost open
span. Spans stay in memory; ``restore`` puts every rebound name back.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from statistics import median
from typing import Any, Callable, Iterator

from boxforest import embedding, geometry, graphs, patterns, pipeline


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name: str, start: float, parent: int | None, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counts: dict[str, int] = {}

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "counts": self.counts,
        }


CountFn = Callable[[Span, tuple, Any], None]


def _count_edges(span: Span, args: tuple, result: Any) -> None:
    span.counts["edges"] = len(result.edges)


def _count_arcs(span: Span, args: tuple, result: Any) -> None:
    span.counts["arcs"] = sum(len(pd.digraph.arcs) for pd in result)
    span.counts["nonempty"] = sum(1 for pd in result if pd.digraph.arcs)


def _count_peel(span: Span, args: tuple, result: Any) -> None:
    # peel_grading(dg, k, m) runs m - 1 rounds; a grading's peeled layers
    # are the differences between consecutive levels
    span.counts["rounds"] = args[2] - 1
    if isinstance(result, embedding.Grading):
        levels = result.levels
        layers = [levels[i + 1] - levels[i] for i in range(len(levels) - 1)]
    else:
        layers = list(result.layers)
    span.counts["largest_layer"] = max((len(x) for x in layers), default=0)


def _count_palette(span: Span, args: tuple, result: Any) -> None:
    per_pattern = getattr(result, "per_pattern", None) or {}
    span.counts["max_pattern_palette"] = max(per_pattern.values(), default=0)


# (owner, attribute, span name, counter); a name the pipeline reaches from
# two modules is wrapped in both
SPANNED: list[tuple[Any, str, str, CountFn | None]] = [
    (geometry, "load_boxes", "geometry.load_boxes", None),
    (geometry, "normalize", "geometry.normalize", None),
    (pipeline, "intersection_graph", "graphs.intersection_graph", _count_edges),
    (graphs.Coloring, "is_proper_on", "graphs.is_proper_on", None),
    (embedding, "degeneracy_coloring", "graphs.degeneracy_coloring", None),
    (pipeline, "decompose", "patterns.decompose", _count_arcs),
    (pipeline, "product_coloring", "patterns.product_coloring", None),
    (pipeline, "find_path_induced_tree", "embedding.find_path_induced_tree", None),
    (pipeline, "peel_grading", "embedding.peel_grading", _count_peel),
    (embedding, "peel_grading", "embedding.peel_grading", _count_peel),
    (embedding, "embed_calm_tree", "embedding.embed_calm_tree", None),
    (pipeline, "maximum_independent_set", "oracles.maximum_independent_set", None),
    (pipeline, "omega", "oracles.omega", None),
    (embedding, "omega", "oracles.omega", None),
    (pipeline, "color_or_find_forest", "pipeline.color_or_find_forest", _count_palette),
    (pipeline, "prune_children", "pipeline.prune_children", None),
    (pipeline, "certificate_to_json", "pipeline.certificate_to_json", None),
    (pipeline, "parse_certificate", "pipeline.parse_certificate", None),
    (pipeline, "verify_certificate", "pipeline.verify_certificate", None),
]

# (owner, attribute, count key): calls counted on the innermost open span
COUNTED: list[tuple[Any, str, str]] = [
    (graphs, "intersects", "pair_tests"),
    (pipeline, "intersects", "pair_tests"),
    (patterns, "intersection_pattern", "pair_tests"),
    (embedding.TournamentOracle, "size", "tournament_queries"),
]

SELF_TIMED = (
    "graphs.intersection_graph",
    "graphs.degeneracy_coloring",
    "graphs.is_proper_on",
    "patterns.decompose",
    "patterns.product_coloring",
    "embedding.find_path_induced_tree",
    "embedding.peel_grading",
    "embedding.embed_calm_tree",
    "oracles.maximum_independent_set",
    "pipeline.color_or_find_forest",
    "pipeline.prune_children",
    "pipeline.certificate_to_json",
    "pipeline.parse_certificate",
    "pipeline.verify_certificate",
)
CALL_COUNTED = (
    "graphs.intersection_graph",
    "graphs.degeneracy_coloring",
    "oracles.maximum_independent_set",
)


class Tracer:
    """Owns the spans of one run and the names it rebound."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self.op = -1

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _rebind(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, fn: Callable, name: str, counter: CountFn | None) -> Callable:
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                counter(span, args, result)
            return result

        return wrapper

    def _counted(self, fn: Callable, key: str) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args):
            counts = spans[stack[-1]].counts
            counts[key] = counts.get(key, 0) + 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        """Rebind every wrapped name; call ``restore`` in a finally."""
        for owner, attr, name, counter in SPANNED:
            self._rebind(owner, attr, self._spanned(owner.__dict__[attr], name, counter))
        for owner, attr, key in COUNTED:
            self._rebind(owner, attr, self._counted(owner.__dict__[attr], key))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def calls(self, op: int, name: str) -> int:
        """How many spans named ``name`` op ``op`` opened."""
        return sum(1 for s in self.spans if s.op == op and s.name == name)

    def op_metrics(self, op: int) -> dict[str, float]:
        """Per-layer self times and counts of one op, summed over its spans.

        A span's self time is its duration minus its direct children's;
        spans nest properly because the run has one thread.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        self_s: dict[str, float] = dict.fromkeys(SELF_TIMED, 0.0)
        calls: dict[str, int] = dict.fromkeys(CALL_COUNTED, 0)
        counts: dict[str, int] = {}
        peaks = {"largest_layer": 0, "max_pattern_palette": 0}
        graph_pairs = 0
        for i, s in enumerate(self.spans):
            if s.op != op:
                continue
            self_s[s.name] = self_s.get(s.name, 0.0) + s.end - s.start - child_time[i]
            calls[s.name] = calls.get(s.name, 0) + 1
            for key, value in s.counts.items():
                if key in peaks:
                    peaks[key] = max(peaks[key], value)
                else:
                    counts[key] = counts.get(key, 0) + value
            if s.name == "graphs.intersection_graph":
                graph_pairs += s.counts.get("pair_tests", 0)
        edges = counts.get("edges", 0)
        metrics: dict[str, float] = {
            "geometry.load_normalize.self_s": self_s.pop("geometry.load_boxes", 0.0)
            + self_s.pop("geometry.normalize", 0.0),
            "geometry.pair_tests": counts.get("pair_tests", 0),
            "graphs.edges": edges,
            # 0 when intersection_graph made no pair test through a wrapped name
            "graphs.edge_yield": edges / graph_pairs if graph_pairs else 0.0,
            "patterns.arcs": counts.get("arcs", 0),
            "patterns.nonempty": counts.get("nonempty", 0),
            "embedding.peel_rounds": counts.get("rounds", 0),
            "embedding.largest_layer": peaks["largest_layer"],
            "embedding.tournament_queries": counts.get("tournament_queries", 0),
            "pipeline.max_pattern_palette": peaks["max_pattern_palette"],
        }
        metrics.update((f"{name}.self_s", self_s[name]) for name in SELF_TIMED)
        metrics.update((f"{name}.calls", calls[name]) for name in CALL_COUNTED)
        return metrics


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-layer metric over the traced ops."""
    return {key: median(m[key] for m in per_op) for key in per_op[0]}
