"""Graphs, digraphs, rooted trees, colorings, and degeneracy peeling.

Vertices are always 0..n-1. A graph stores only its adjacency lists and a
digraph only its out- and in-neighbor sets; edge and arc sets are derived
when asked for, so no adjacency is held twice. A pattern digraph's
in-neighbor sets are its mirror's out-neighbor sets (``patterns.decompose``).
A coloring is one tuple of colors indexed by vertex, as a certificate lists
them; its palette, one more than the largest color, is worked out from it.
Building the intersection graph, degeneracy peeling and smallest-last
coloring scale to thousands of boxes (an axis-0 sweep, a heap and a bucket
queue). The bucket queue files a vertex only once its remaining degree is
within a horizon a fixed step above the levels searched so far; the others
wait in one list and are rescanned when the search passes the horizon, so
the rescans cost O(n + m / step) rather than one heap entry per degree
decrement. The pipeline's host graph is ``intersection_graph``: the lists
its one sweep fills, kept as they are, since coloring and the self-check
only iterate over them. A dense host graph (2m >= n^2 / 8) is colored on
bit rows instead, one int per vertex that ``intersection_rows`` builds
from the boxes with a sort and 2n mask updates per axis. Smallest-last
on rows (``_smallest_last_on_rows``, which the pipeline calls by name)
keeps the degrees as bit-sliced counters and finds each color in a
binary tree over the color classes whose nodes hold masks of blocked
vertices: O(n log Delta) operations on n-bit ints rather than O(m)
interpreter steps. Both kernels remove the smallest id of minimum
remaining degree and give each vertex the smallest color no colored
neighbor has, so their order and colors are the same. Where no tree can
fit, the pipeline builds the rows without the lists and checks the
colors against the boxes; elsewhere the self-check reads the lists. The
pattern digraphs, when the pipeline needs them, come from the host
graph's edges, and they hold sets because the grading tests membership.
``Digraph.is_acyclic`` is a Kahn count that reads the in-degrees and picks
the sources with out-arcs in C and sorts nothing, so its Python loop runs
only over vertices with arcs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import not_, xor
from typing import Collection, Iterable, Sequence

# ``intersects`` is imported only to stay a module name: perfbench counts
# pair tests by rebinding it.
from .geometry import Box, _by_id, _sweep, intersects  # noqa: F401

__all__ = [
    "Coloring",
    "Digraph",
    "Graph",
    "RootedTree",
    "complete_kary_tree",
    "degeneracy_coloring",
    "intersection_graph",
]


def _reach(neighbors: Sequence[Iterable[int]], start: int) -> frozenset[int]:
    """``start`` and every vertex reachable from it, ``neighbors[v]`` holding
    the vertices one step from v: one stack walk."""
    seen = {start}
    stack = [start]
    while stack:
        for w in neighbors[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Only the adjacency lists are stored, a tuple of one list per vertex with
    no repeats and no loops, in no promised order; ``edges`` is derived on
    demand.
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
        self.adj = tuple(sorted(s) for s in adj)

    @classmethod
    def _from_adjacency(cls, adj: Iterable[list[int]]) -> "Graph":
        """Wrap adjacency lists that are already symmetric, loop-free and
        free of repeats, without copying them."""
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
        """Whether uv is an edge: a scan of u's list, O(deg u). The package
        never calls it; the pipeline iterates over the lists instead."""
        return v in self.adj[u]

    def neighbors(self, u: int) -> frozenset[int]:
        """u's neighbors as a new set; ``adj[u]`` is the list itself."""
        return frozenset(self.adj[u])

    def degree(self, u: int) -> int:
        return len(self.adj[u])

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

    def is_acyclic(self) -> bool:
        """Kahn's algorithm, counting only: whether every vertex can be
        removed once its in-arcs are gone.

        In-degrees are read with ``map(len, ...)``, and the first wave, the
        sources that have out-arcs, is picked in C; a vertex without
        out-arcs removes nothing, so it joins the wave only when it is
        reached. No out-set is sorted, since only the count matters.
        """
        indeg = list(map(len, self.inn))
        out = self.out
        ready = list(filter(out.__getitem__, compress(range(self.n), map(not_, indeg))))
        for v in ready:  # the list grows as it is walked
            for w in out[v]:
                indeg[w] -= 1
                if not indeg[w]:
                    ready.append(w)
        return not any(indeg)

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
        return _reach(self.children, v)

    def ancestors(self, v: int) -> list[int]:
        """Proper ancestors of v, nearest first."""
        out = []
        while self.parent[v] is not None:
            v = self.parent[v]  # type: ignore[assignment]
            out.append(v)
        return out

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
    """Vertex coloring: ``colors[v]`` is vertex v's color, a nonnegative
    int, and the palette is one more than the largest color (0 when there
    are no vertices)."""

    colors: tuple[int, ...]
    palette_size: int = field(init=False)

    def __post_init__(self) -> None:
        colors = tuple(self.colors)
        if min(colors, default=0) < 0:
            raise ValueError("colors must be nonnegative")
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "palette_size", max(colors, default=-1) + 1)

    def is_proper_on(self, g: Graph) -> bool:
        """Whether exactly g's vertices are colored and no edge of g has
        one color at both ends."""
        col = self.colors
        if len(col) != g.n:
            return False
        classes: list[set[int]] = [set() for _ in range(self.palette_size)]
        for v, c in enumerate(col):
            classes[c].add(v)
        # v's list must miss v's whole color class
        return all(map(set.isdisjoint, map(classes.__getitem__, col), g.adj))


def intersection_graph(boxes: Sequence[Box]) -> Graph:
    """Edge uv iff boxes u and v, ids 0..n-1 ranked by ``normalize``, overlap
    on every axis: filled in straight from ``intersecting_pairs``' sweep."""
    boxes = _by_id(boxes)
    near: list[list[int]] = [[] for _ in range(len(boxes))]
    for j, hits in _sweep(boxes, None):
        near[j] += hits
        for i in hits:
            near[i].append(j)
    return Graph._from_adjacency(near)


def intersection_rows(boxes: Sequence[Box]) -> list[int]:
    """The intersection graph as bit rows, one int per box id: ``rows[v]``
    has bit n-1-u set exactly when boxes u != v overlap on every axis.

    The boxes need ids 0..n-1 and are ranked first, by ``normalize``. Each
    axis is one pass over its 2n endpoints in sorted order that keeps two
    masks, the boxes started so far and the boxes ended so far. Box u meets
    v on the axis exactly when u starts before v's hi and does not end
    before v's lo, and every box that ends before v's lo also starts before
    v's hi. So v's lo records the boxes ended so far, and at v's hi the
    boxes started so far less those are v's row on the axis, ANDed into v's
    row in place; beside the rows, only the masks recorded for the boxes
    still open are held. v's row is the AND of its axis rows, less v's own
    bit. So the cost is a sort and 2n mask updates per axis, with no step
    per edge.
    """
    boxes = _by_id(boxes)
    n = len(boxes)
    bits = [1 << (n - 1 - v) for v in range(n)]
    rows = [-1] * n  # every bit set, until the first axis
    ended_before_lo = [0] * n  # each entry is set at a lo and cleared at its hi
    columns = boxes.columns
    for lo, hi in zip(columns[0::2], columns[1::2]):
        ends = lo + hi
        started = ended = 0
        for e in sorted(range(2 * n), key=ends.__getitem__):
            if e < n:
                ended_before_lo[e] = ended
                started |= bits[e]
            else:
                e -= n
                rows[e] &= started ^ ended_before_lo[e]
                ended_before_lo[e] = 0
                ended |= bits[e]
    return list(map(xor, rows, bits))


def degeneracy_coloring(adj: Sequence[Collection[int]], bound: int) -> Coloring | None:
    """Greedy coloring along a peeling order, or None if peeling gets stuck.

    ``adj[v]`` holds the neighbors of vertex v. Repeatedly removes the
    smallest vertex whose remaining degree is below ``bound``; coloring the
    removal order in reverse then sees fewer than ``bound`` colored
    neighbors per vertex, so at most ``bound`` colors.
    Degrees only fall, so a min-heap of the vertices that dropped below
    ``bound`` always pops that smallest vertex. It colors one peeled layer
    of a pattern digraph in the paper's construction; the pipeline does not
    call it.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    n = len(adj)
    degree = list(map(len, adj))
    ready = [v for v in range(n) if degree[v] < bound]  # sorted: a heap
    removed = [False] * n
    order: list[int] = []
    while ready:
        pick = heapq.heappop(ready)
        removed[pick] = True
        order.append(pick)
        for w in adj[pick]:
            if not removed[w]:
                degree[w] -= 1
                if degree[w] == bound - 1:
                    heapq.heappush(ready, w)
    if len(order) < n:
        return None
    # fewer than bound neighbors are colored first, so colors stay below bound
    colors = [-1] * n
    _greedy_in_reverse(order, adj, colors)
    return Coloring(colors)


# complements a string of binary digits
_FLIP = str.maketrans("01", "10")

# how far the smallest-last queue's horizon rises each time the search
# passes it; the first horizon is this many levels above degree 0
_HORIZON_STEP = 16


def smallest_last_coloring(adj: Sequence[Sequence[int]]) -> Coloring:
    """Greedy coloring in smallest-last order (Matula and Beck, 1983).

    ``adj[v]`` holds the neighbors of vertex v. Repeatedly removes, among
    the vertices of minimum remaining degree, the one with the smallest id;
    coloring the removal order in reverse then sees at most the degeneracy
    many colored neighbors per vertex, so the palette is at most the
    degeneracy + 1. Neither the removal order nor the colors depend on the
    order in which a vertex's neighbors are listed.

    On bit rows (``intersection_rows``), ``_smallest_last_on_rows`` finds
    the same order and colors.

    The removal order comes from a bucket queue with a horizon. Bucket
    ``b`` is a min-heap of vertices whose remaining degree was ``b`` when
    they entered it; an entry whose vertex has since left or lost degree
    is stale and skipped. A removal lowers each remaining degree by at most
    1, so the minimum degree drops by at most 1 per step and the search
    resumes one level below the last pick. Only levels up to the horizon
    are filed: a vertex above it waits in one unsorted list and is merely
    decremented. Invariant: every remaining vertex of degree at most the
    horizon has an entry in its bucket. So when the search passes the
    horizon, no remaining degree is at or below it; the horizon rises by
    ``_HORIZON_STEP`` and one rescan files the waiting vertices that now
    qualify. A vertex of degree D survives at most D / step rescans, so
    the rescans cost O(n + m / step) in all, while the decrements of the
    many vertices far above the minimum push nothing.
    """
    n = len(adj)
    degree = list(map(len, adj))
    buckets: list[list[int]] = [[] for _ in range(max(degree, default=0) + 1)]
    horizon = _HORIZON_STEP
    waiting: list[int] = []
    # ids ascend, so every bucket is filed sorted: a heap
    for v in range(n):
        if degree[v] <= horizon:
            buckets[degree[v]].append(v)
        else:
            waiting.append(v)
    removed = [False] * n
    order: list[int] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    low = 0
    for _ in range(n):
        while True:
            bucket = buckets[low]
            if not bucket:
                low += 1
                if low > horizon:
                    # levels above the old horizon were never filed, so
                    # their buckets are empty and fill sorted; a waiting
                    # vertex at or below the old horizon was pushed when
                    # it fell there
                    below = horizon
                    horizon += _HORIZON_STEP
                    still = []
                    for w in waiting:
                        dw = degree[w]
                        if dw > horizon:
                            still.append(w)
                        elif dw > below:
                            buckets[dw].append(w)
                    waiting = still
                continue
            v = heappop(bucket)
            if not removed[v] and degree[v] == low:
                break
        removed[v] = True
        order.append(v)
        for w in adj[v]:
            if not removed[w]:
                dw = degree[w] - 1
                degree[w] = dw
                if dw <= horizon:
                    heappush(buckets[dw], w)
        if low:
            low -= 1
    col = [-1] * n
    _greedy_in_reverse(order, adj, col)
    return Coloring(col)


def _smallest_last_on_rows(rows: Sequence[int]) -> Coloring:
    """``smallest_last_coloring`` on bit rows, vertex v at bit n-1-v, in
    O(n log Delta) operations on n-bit ints rather than a step per edge.

    The remaining degrees are bit-sliced: ``zeros[b]`` holds the vertices
    whose degree has bit b clear. Scanning the planes from the top narrows
    the remaining vertices to those of minimum degree, and the smallest id
    among them is the highest set bit. Removing v lowers the degree of its
    remaining neighbors ``rows[v] & alive`` by one, a borrow carried up the
    planes. The planes are read off one string of every degree's binary
    digits, one slice per plane.

    Back to front, each vertex then takes the smallest color no colored
    neighbor has, found in a binary tree over the classes. Leaf c holds
    ``blocked[c]``, the OR of the rows of class c's members: the vertices
    with a neighbor in class c. Rows are symmetric, so v is in
    ``blocked[c]`` exactly when its row meets class c. An inner node holds
    the AND of its children, the vertices blocked in every class below
    it, so v descends from the root, going right exactly when its bit is
    set in the left child, to the first class its row misses, as on
    lists. Coloring v ORs its row into that leaf and re-ANDs the
    ancestors up to the first that does not change. There are more than
    Delta leaves, so a free class is always reached. That is
    O(log Delta) operations per vertex, where a scan of the classes took
    one per class below its color.
    """
    n = len(rows)
    degree = list(map(int.bit_count, rows))
    depth = max(degree, default=0).bit_length()
    # each degree as depth binary digits, complemented, vertex 0 first; the
    # digits of bit b are every depth-th from depth-1-b, vertex v at bit n-1-v
    digits = "".join(map(format, degree, repeat(f"0{depth}b"))).translate(_FLIP)
    zeros = [int(digits[depth - 1 - b :: depth], 2) for b in range(depth)]
    top_down = range(depth - 1, -1, -1)
    alive = (1 << n) - 1
    order = []
    for _ in range(n):
        least = alive
        for b in top_down:
            low = least & zeros[b]
            if low:
                least = low
        v = n - least.bit_length()
        order.append(v)
        alive ^= 1 << (n - 1 - v)
        borrow = rows[v] & alive
        b = 0
        while borrow:
            z = zeros[b]
            zeros[b] = z ^ borrow
            borrow &= z
            b += 1
    # leaves size..2 size-1 are the classes, more than Delta of them; node i
    # holds the AND of nodes 2i and 2i+1
    size = 1 << depth
    blocked = [0] * (2 * size)
    col = [0] * n
    for v in reversed(order):
        bit = 1 << (n - 1 - v)
        i = 1
        while i < size:
            i <<= 1
            if blocked[i] & bit:
                i += 1
        col[v] = i - size
        blocked[i] |= rows[v]
        while i > 1:
            both = blocked[i] & blocked[i ^ 1]
            i >>= 1
            if both == blocked[i]:
                break
            blocked[i] = both
    return Coloring(col)


def _greedy_in_reverse(order: Sequence[int], adj: Sequence[Iterable[int]], col: list[int]) -> None:
    """Color ``order`` back to front, each vertex with the smallest color
    unused by its neighbors colored before it. ``col[v]`` is -1 until v is
    colored and then receives its color."""
    for v in reversed(order):
        used = set(map(col.__getitem__, adj[v]))
        c = 0
        while c in used:
            c += 1
        col[v] = c

