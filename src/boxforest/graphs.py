"""Graphs, digraphs, rooted trees, colorings, and degeneracy peeling.

Vertices are always 0..n-1. A graph stores only its adjacency sets and a
digraph only its out- and in-neighbor sets; edge and arc sets are derived
when asked for, so no adjacency is held twice. A pattern digraph's
in-neighbor sets are its mirror's out-neighbor sets (``patterns.decompose``).
Building the intersection graph, degeneracy peeling and smallest-last
coloring scale to thousands of boxes (an axis-0 sweep, a heap and a bucket
queue). The pipeline's host graph is ``intersection_graph``, built from the
batches of its one sweep; the pattern digraphs, when it needs them, come
from that graph's edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping, Sequence

# ``intersects`` is imported only to stay a module name: perfbench counts
# pair tests by rebinding it.
from .geometry import Box, _sweep, intersects  # noqa: F401

__all__ = [
    "Coloring",
    "Digraph",
    "Graph",
    "RootedTree",
    "complete_kary_tree",
    "degeneracy_coloring",
    "intersection_graph",
    "is_path_induced",
    "smallest_last_coloring",
]


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Only the adjacency sets are stored; ``edges`` is derived on demand.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.adj = tuple(frozenset(s) for s in adj)

    @classmethod
    def _from_adjacency(cls, adj: Iterable[frozenset[int]]) -> "Graph":
        """Wrap adjacency sets that are already symmetric and loop-free."""
        g = cls.__new__(cls)
        g.adj = tuple(adj)
        g.n = len(g.adj)
        return g

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge once as ``(u, v)`` with u < v."""
        return frozenset(
            (u, v) for u in range(self.n) for v in self.adj[u] if u < v
        )

    def adjacent(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def neighbors(self, u: int) -> frozenset[int]:
        return self.adj[u]

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def complement(self) -> "Graph":
        edges = [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if v not in self.adj[u]
        ]
        return Graph(self.n, edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={sum(map(len, self.adj)) // 2})"


class Digraph:
    """Simple directed graph; at most one arc per ordered pair, no loops.

    Only the out- and in-neighbor sets are stored; ``arcs`` is derived on
    demand.
    """

    __slots__ = ("n", "out", "inn")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        out: list[set[int]] = [set() for _ in range(n)]
        inn: list[set[int]] = [set() for _ in range(n)]
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"loop at {u}")
            out[u].add(v)
            inn[v].add(u)
        self.out = tuple(frozenset(s) for s in out)
        self.inn = tuple(frozenset(s) for s in inn)

    @classmethod
    def _from_adjacency(
        cls, out: tuple[frozenset[int], ...], inn: tuple[frozenset[int], ...]
    ) -> "Digraph":
        """Wrap frozen out- and in-neighbor sets that already agree, loop-free.

        Nothing is copied: ``inn`` may be another digraph's ``out``, as for
        a pattern digraph and its mirror.
        """
        dg = cls.__new__(cls)
        dg.n = len(out)
        dg.out = out
        dg.inn = inn
        return dg

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u in range(self.n) for v in self.out[u])

    def has_arc(self, u: int, v: int) -> bool:
        return v in self.out[u]

    def underlying(self) -> Graph:
        return Graph._from_adjacency(o | i for o, i in zip(self.out, self.inn))

    def topological_order(self) -> list[int] | None:
        """Kahn's algorithm; None when a cycle exists. Deterministic."""
        indeg = [len(self.inn[v]) for v in range(self.n)]
        ready = sorted(v for v in range(self.n) if indeg[v] == 0)
        order: list[int] = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            for w in sorted(self.out[v]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        return order if len(order) == self.n else None

    def is_acyclic(self) -> bool:
        return self.topological_order() is not None

    def reachable_from(self, u: int) -> frozenset[int]:
        """Vertices reachable from u, including u itself."""
        seen = {u}
        stack = [u]
        while stack:
            for w in self.out[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return frozenset(seen)

    def coreachable_to(self, v: int) -> frozenset[int]:
        """Vertices that reach v, including v itself."""
        seen = {v}
        stack = [v]
        while stack:
            for w in self.inn[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return frozenset(seen)

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={sum(map(len, self.out))})"


class RootedTree:
    """Rooted directed tree; arcs point away from the root.

    Vertices are 0..n-1 with the root fixed at 0 and every parent id smaller
    than its children's (the builders below guarantee this).
    """

    __slots__ = ("n", "parent", "children", "_depths")

    def __init__(self, parent: Sequence[int | None]):
        self.n = len(parent)
        if self.n == 0:
            raise ValueError("tree needs at least one vertex")
        if parent[0] is not None:
            raise ValueError("vertex 0 must be the root")
        children: list[list[int]] = [[] for _ in range(self.n)]
        for v in range(1, self.n):
            p = parent[v]
            if p is None or not (0 <= p < v):
                raise ValueError(f"vertex {v} needs a parent with a smaller id")
            children[p].append(v)
        self.parent = tuple(parent)
        self.children = tuple(tuple(c) for c in children)
        depths = [0] * self.n
        for v in range(1, self.n):
            depths[v] = depths[self.parent[v]] + 1
        self._depths = tuple(depths)

    @property
    def root(self) -> int:
        return 0

    def depth_of(self, v: int) -> int:
        return self._depths[v]

    def depth(self) -> int:
        return max(self._depths)

    def arcs(self) -> list[tuple[int, int]]:
        return [(self.parent[v], v) for v in range(1, self.n)]

    def preorder(self) -> list[int]:
        order: list[int] = []
        stack = [0]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(self.children[v]))
        return order

    def subtree(self, v: int) -> frozenset[int]:
        seen = {v}
        stack = [v]
        while stack:
            for c in self.children[stack.pop()]:
                seen.add(c)
                stack.append(c)
        return frozenset(seen)

    def ancestors(self, v: int) -> list[int]:
        """Proper ancestors of v, nearest first."""
        out = []
        while self.parent[v] is not None:
            v = self.parent[v]  # type: ignore[assignment]
            out.append(v)
        return out

    def underlying_edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((min(u, v), max(u, v)) for u, v in self.arcs())

    def __repr__(self) -> str:
        return f"RootedTree(n={self.n}, depth={self.depth()})"


def complete_kary_tree(depth: int, branching: int) -> RootedTree:
    """Complete rooted tree: every vertex above the last level has exactly
    ``branching`` children; leaves all sit at ``depth``."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if branching < 1:
        raise ValueError("branching must be at least 1")
    parent: list[int | None] = [None]
    frontier = [0]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for _ in range(branching):
                parent.append(v)
                nxt.append(len(parent) - 1)
        frontier = nxt
    return RootedTree(parent)


@dataclass(frozen=True)
class Coloring:
    """Vertex coloring with colors 0..palette_size-1."""

    colors: Mapping[int, int]
    palette_size: int

    def __post_init__(self) -> None:
        for v, c in self.colors.items():
            if not (0 <= c < self.palette_size):
                raise ValueError(f"color {c} of vertex {v} outside palette")

    def is_proper_on(self, g: Graph) -> bool:
        colors = self.colors
        if set(colors) != set(range(g.n)):
            return False
        for u, near in enumerate(g.adj):
            c = colors[u]
            for v in near:
                if colors[v] == c:
                    return False
        return True


def intersection_graph(boxes: Sequence[Box]) -> Graph:
    """Edge uv iff boxes u and v overlap on every axis (normalized input),
    filled in straight from the batches of ``intersecting_pairs``' sweep."""
    if sorted(b.id for b in boxes) != list(range(len(boxes))):
        raise ValueError("box ids must be 0..n-1")
    near: list[list[int]] = [[] for _ in boxes]
    for j, hits in _sweep(boxes, None):
        near[j] += hits
        for i in hits:
            near[i].append(j)
    return Graph._from_adjacency(map(frozenset, near))


def degeneracy_coloring(
    adj: Mapping[int, AbstractSet[int]], bound: int
) -> Coloring | None:
    """Greedy coloring along a peeling order, or None if peeling gets stuck.

    ``adj`` maps each vertex to its neighbors, which are all keys; the
    coloring covers exactly those vertices. Repeatedly removes the smallest
    vertex whose remaining degree is below ``bound``; coloring the removal
    order in reverse then sees fewer than ``bound`` colored neighbors per
    vertex, so at most ``bound`` colors.
    Degrees only fall, so a min-heap of the vertices that dropped below
    ``bound`` always pops that smallest vertex. It colors one peeled layer
    of a pattern digraph in the paper's construction; the pipeline does not
    call it.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    vertices = sorted(adj)
    degree = {v: len(adj[v]) for v in vertices}
    ready = [v for v in vertices if degree[v] < bound]  # sorted: a heap
    removed: set[int] = set()
    order: list[int] = []
    if len(ready) == len(vertices):
        # a vertex is pushed only when its degree falls from bound to
        # bound - 1; with every degree below bound nothing is pushed, and
        # the heap would pop the vertices in ascending order
        order, ready = ready, []
    while ready:
        pick = heapq.heappop(ready)
        removed.add(pick)
        order.append(pick)
        for w in adj[pick]:
            if w not in removed:
                degree[w] -= 1
                if degree[w] == bound - 1:
                    heapq.heappush(ready, w)
    if len(order) < len(vertices):
        return None
    # fewer than bound neighbors are colored first, so colors stay below bound
    colors = _greedy_in_reverse(order, adj)
    palette = 1 + max(colors.values(), default=-1) if colors else 0
    return Coloring(colors, max(palette, 1) if vertices else 0)


def smallest_last_coloring(adj: Sequence[AbstractSet[int]]) -> Coloring:
    """Greedy coloring in smallest-last order (Matula and Beck, 1983).

    ``adj[v]`` holds the neighbors of vertex v. Repeatedly removes, among
    the vertices of minimum remaining degree, the one with the smallest id;
    coloring the removal order in reverse then sees at most the degeneracy
    many colored neighbors per vertex, so the palette is at most the
    degeneracy + 1. Bucket ``b`` is a min-heap of the vertices whose
    remaining degree was ``b`` when they entered it; an entry whose vertex
    has since left or lost degree is stale and skipped. A removal lowers
    each remaining degree by at most 1, so the minimum degree drops by at
    most 1 per step.
    """
    n = len(adj)
    degree = [len(near) for near in adj]
    # ids ascend, so every bucket starts out sorted: a heap
    buckets: list[list[int]] = [[] for _ in range(max(degree, default=0) + 1)]
    for v in range(n):
        buckets[degree[v]].append(v)
    removed = [False] * n
    order: list[int] = []
    low = 0
    while len(order) < n:
        bucket = buckets[low]
        if not bucket:
            low += 1
            continue
        v = heapq.heappop(bucket)
        if removed[v] or degree[v] != low:
            continue
        removed[v] = True
        order.append(v)
        for w in adj[v]:
            if not removed[w]:
                degree[w] -= 1
                heapq.heappush(buckets[degree[w]], w)
        if low:
            low -= 1
    colors = _greedy_in_reverse(order, adj)
    return Coloring(colors, max(colors.values(), default=-1) + 1)


def _greedy_in_reverse(
    order: Sequence[int], adj: Mapping[int, AbstractSet[int]] | Sequence[AbstractSet[int]]
) -> dict[int, int]:
    """Color ``order`` back to front, each vertex with the smallest color
    unused by its neighbors colored before it."""
    colors: dict[int, int] = {}
    for v in reversed(order):
        used = {colors[w] for w in adj[v] if w in colors}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def is_path_induced(dg: Digraph, t: RootedTree, phi: Mapping[int, int]) -> bool:
    """True when every directed path of the embedded tree is induced in dg.

    ``phi`` must be an arc-preserving injection of the tree into dg
    (ValueError otherwise). Directed tree paths are exactly the
    ancestor-descendant chains, so the condition reduces to: images of
    ancestor-descendant pairs at tree distance >= 2 are non-adjacent in
    dg's underlying graph.
    """
    if set(phi) != set(range(t.n)):
        raise ValueError("mapping must cover exactly the tree vertices")
    if len(set(phi.values())) != t.n:
        raise ValueError("mapping must be injective")
    for u, v in t.arcs():
        if not dg.has_arc(phi[u], phi[v]):
            raise ValueError(f"tree arc ({u},{v}) not preserved")
    und = dg.underlying()
    for v in range(t.n):
        anc = t.ancestors(v)
        # anc[0] is the parent; deeper ancestors are at distance >= 2
        for a in anc[1:]:
            if und.adjacent(phi[a], phi[v]):
                return False
    return True
