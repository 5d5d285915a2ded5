"""Decompose a box family's intersections by pattern, one digraph each.

For every pattern R the pattern digraph has an arc u -> v exactly when box
u relates to box v by R on every axis. Each intersecting pair contributes
one arc under its pattern and the reverse arc under the mirrored pattern,
so the 4^d digraphs' underlying edge sets partition the intersection graph
once mirror-duplicates are accounted for. The mirrored pattern's digraph
is the reverse digraph, and the two share their neighbor sets.
``decompose`` files the pairs of a sweep the caller already ran, so the
pipeline's host graph and its pattern digraphs come from one sweep; the
pipeline decomposes only when its tree can fit in the instance.

Every pattern digraph of a normalized family is acyclic, *modest* (the
vertex set of any directed u->v path with uv an arc is a clique in the host
graph), and *divergent* (directed paths leaving a vertex through two
non-adjacent first steps end in distinct, non-adjacent vertices).
``verify_basic`` checks all three from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

# ``intersection_pattern`` is imported only to stay a module name: perfbench
# counts pair tests by rebinding it.
from .geometry import (  # noqa: F401
    Box,
    Pattern,
    all_patterns,
    intersection_pattern,
)
from .graphs import Coloring, Digraph, Graph
from .oracles import DEFAULT_LIMITS, OracleLimitError, OracleLimits

__all__ = [
    "BasicReport",
    "PatternDigraph",
    "decompose",
    "product_coloring",
    "verify_basic",
]


@dataclass(frozen=True)
class PatternDigraph:
    """One pattern's arcs over the full vertex set 0..n-1."""

    pattern: Pattern
    digraph: Digraph


def decompose(
    boxes: Sequence[Box], pairs: Iterable[tuple[int, int, int]]
) -> list[PatternDigraph]:
    """All 4^d pattern digraphs in canonical pattern order, empty ones kept.

    ``pairs`` are the boxes' ``intersecting_pairs``, which the caller has
    already swept, in any order. Their integer pattern codes file the arcs
    straight into per-vertex out-neighbor lists. Swapping a pair mirrors its
    pattern, so a pattern's in-neighbor sets are its mirror's out-neighbor
    sets and each adjacency is stored once. A pattern gets its own lists
    only once it has an arc: every arc-free pattern shares one all-empty
    tuple, and in higher dimensions most patterns are arc-free.
    """
    if not boxes:
        raise ValueError("empty box collection")
    n = len(boxes)
    if sorted(b.id for b in boxes) != list(range(n)):
        raise ValueError("box ids must be 0..n-1")
    patterns = all_patterns(boxes[0].dim)
    flip = (len(patterns) - 1) // 3  # code ^ flip is the mirrored pattern
    out: dict[int, list[list[int]]] = {}
    for u, v, code in pairs:
        if code not in out:
            out[code] = [[] for _ in range(n)]
            out[code ^ flip] = [[] for _ in range(n)]
        out[code][u].append(v)
        out[code ^ flip][v].append(u)
    # every empty neighborhood shares one frozenset, and every arc-free
    # pattern one tuple of them
    empty: frozenset[int] = frozenset()
    arc_free = (empty,) * n
    frozen = [
        tuple(frozenset(s) if s else empty for s in out[c]) if c in out else arc_free
        for c in range(len(patterns))
    ]
    return [
        PatternDigraph(p, Digraph._from_adjacency(frozen[c], frozen[c ^ flip]))
        for c, p in enumerate(patterns)
    ]


@dataclass(frozen=True)
class BasicReport:
    """Outcome of the three structural checks; None means skipped (limit)."""

    acyclic: bool
    modest: bool | None
    divergent: bool | None
    witness: str | None = None

    @property
    def all_hold(self) -> bool:
        return bool(self.acyclic and self.modest and self.divergent)


def verify_basic(
    pd: PatternDigraph, g: Graph, limits: OracleLimits = DEFAULT_LIMITS
) -> BasicReport:
    """Check acyclicity, modesty, and divergence of one pattern digraph.

    Acyclicity is always checked. The other two run when n is within
    ``limits.verify`` and use reachability cones, which is equivalent to
    quantifying over all directed paths: two vertices lie on a common
    u->v path iff both sit between u and v and one reaches the other.
    """
    dg = pd.digraph
    if dg.n != g.n:
        raise ValueError("pattern digraph and host graph disagree on n")
    acyclic = dg.is_acyclic()
    if dg.n > limits.verify:
        return BasicReport(acyclic, None, None)
    if not acyclic:
        return BasicReport(False, False, False, witness="cycle")

    reach = [dg.reachable_from(v) for v in range(dg.n)]
    coreach = [dg.coreachable_to(v) for v in range(dg.n)]

    modest = True
    witness = None
    for u, v in sorted(dg.arcs):
        between = reach[u] & coreach[v]
        for w1 in sorted(between):
            for w2 in sorted(reach[w1] & between):
                if w2 != w1 and not g.adjacent(w1, w2):
                    modest = False
                    witness = f"arc {u}->{v}: path vertices {w1},{w2} non-adjacent"
                    break
            if not modest:
                break
        if not modest:
            break

    divergent = True
    for u in range(dg.n):
        outs = sorted(dg.out[u])
        for i, x1 in enumerate(outs):
            for y1 in outs[i + 1 :]:
                if g.adjacent(x1, y1):
                    continue
                # every endpoint pair of paths through x1 / y1 must stay
                # distinct and non-adjacent
                shared = reach[x1] & reach[y1]
                if shared:
                    divergent = False
                    witness = witness or (
                        f"paths from {u} via {x1},{y1} share vertex {min(shared)}"
                    )
                    break
                bad = next(
                    (
                        (xa, yb)
                        for xa in sorted(reach[x1])
                        for yb in sorted(reach[y1])
                        if g.adjacent(xa, yb)
                    ),
                    None,
                )
                if bad is not None:
                    divergent = False
                    witness = witness or (
                        f"paths from {u} via {x1},{y1} end adjacent at {bad}"
                    )
                    break
            if not divergent:
                break
        if not divergent:
            break

    return BasicReport(acyclic, modest, divergent, witness)


def product_coloring(
    family: Sequence[PatternDigraph], colorings: Mapping[Pattern, Coloring]
) -> Coloring:
    """Combine per-pattern colorings into one proper coloring of the host.

    Each vertex receives the tuple of its per-pattern colors; distinct
    tuples are renumbered to 0.. in order of first appearance by vertex id.
    Any host edge appears as an arc in some pattern digraph, where the two
    endpoints' component colors differ, so the tuples differ. Raises
    ValueError when an input coloring is improper on its pattern graph.

    A one-color piece of an arc-free pattern is the same component in
    every tuple, so it is left out: the tuples stay distinct exactly when
    they were, and the numbering is unchanged.
    """
    if not family:
        raise ValueError("empty pattern family")
    n = family[0].digraph.n
    vertices = set(range(n))
    pieces = []
    for pd in family:
        if pd.pattern not in colorings:
            raise ValueError(f"missing coloring for pattern {pd.pattern}")
        coloring = colorings[pd.pattern]
        piece = coloring.colors
        out = pd.digraph.out
        has_arcs = any(out)
        if piece.keys() != vertices or has_arcs and any(
            piece[u] == piece[v] for u in range(n) for v in out[u]
        ):
            raise ValueError(f"coloring improper on pattern {pd.pattern}")
        if has_arcs or coloring.palette_size > 1:
            pieces.append(piece)
    index: dict[tuple[int, ...], int] = {}
    colors = {}
    for v in range(n):
        key = tuple(piece[v] for piece in pieces)
        if key not in index:
            index[key] = len(index)
        colors[v] = index[key]
    return Coloring(colors, max(len(index), 1) if n else 0)
