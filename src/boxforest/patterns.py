"""Decompose a box family's intersections by pattern, one digraph each.

For every pattern R the pattern digraph has an arc u -> v exactly when box
u relates to box v by R on every axis. Each intersecting pair contributes
one arc under its pattern and the reverse arc under the mirrored pattern,
so the underlying edge sets of the 4^d digraphs partition the
intersection graph once mirror-duplicates are accounted for. The mirrored
pattern's digraph is the reverse digraph, and the two share their neighbor
sets. ``decompose`` classifies the edges of a host graph the caller has
already built, so the host graph and its pattern digraphs come from one
sweep, and it builds only the patterns that have arcs.

``decompose`` reads each axis's endpoints once, into lists indexed by box
id, classifies each host edge once, and files an arc only at a vertex
that has one; a pattern's neighbor tuple is ``n`` references to one
shared empty set, with a frozenset only where there are arcs. So it
costs one read of the n d endpoints, d comparisons per edge and one list
of n references per pattern with arcs.

Every pattern digraph of a ranked family is acyclic, *modest* (the
vertex set of any directed u->v path with uv an arc is a clique in the host
graph), and *divergent* (directed paths leaving a vertex through two
non-adjacent first steps end in distinct, non-adjacent vertices). It is
acyclic because the axis-0 type fixes the sign of lo_0(v) - lo_0(u) along
every arc u -> v: positive for CONTAINS and LEFT, negative for CONTAINED
and RIGHT, so lo_0 rises (or falls) strictly along every directed path.
These are proof facts, not run-time checks: the tests check them against
the subset-scan references in ``tests/bruteforce.py``, and
``embedding.TournamentOracle`` refuses a cyclic digraph.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, Sequence

# ``intersection_pattern`` is imported only to stay a module name: perfbench
# counts pair tests by rebinding it.
from .geometry import (  # noqa: F401
    _TYPE_ORDER,
    Box,
    Pattern,
    _by_id,
    _exhaust,
    _pattern_codes,
    intersection_pattern,
)
from .graphs import Coloring, Digraph, Graph

__all__ = [
    "PatternDigraph",
    "decompose",
    "product_coloring",
]


@dataclass(frozen=True)
class PatternDigraph:
    """One pattern's arcs over the full vertex set 0..n-1."""

    pattern: Pattern
    digraph: Digraph


def decompose(boxes: Sequence[Box], g: Graph) -> list[PatternDigraph]:
    """The pattern digraphs that have arcs, in canonical pattern order.

    ``g`` is the host graph of ``boxes``, whose ids are 0..n-1 and which
    are ranked first, by ``normalize``. Each of its edges u < v is
    classified once by ``geometry._pattern_codes``, whose integer code, one
    base-4 digit per axis, names the pattern and files the arc in that
    pattern's out-neighbor lists of the vertices that have arcs. Swapping a
    pair mirrors its pattern, so a pattern's in-neighbor sets are its
    mirror's out-neighbor sets and each adjacency is stored once. An
    arc-free pattern peels out whole and can embed nothing, so none is
    built: in higher dimensions most of the 4^d are arc-free.
    """
    boxes = _by_id(boxes)
    n = len(boxes)
    if g.n != n:
        raise ValueError("box ids must be 0..n-1, the host graph's vertices")
    d = len(boxes.columns) // 2
    flip = (4**d - 1) // 3  # code ^ flip is the mirrored pattern
    pairs = ((u, v) for u, near in enumerate(g.adj) for v in near if u < v)
    # per pattern code, the out-neighbors of each vertex that has some
    filed: defaultdict[int, defaultdict[int, list[int]]] = defaultdict(lambda: defaultdict(list))
    for u, v, code in _pattern_codes(boxes, pairs):
        filed[code][u].append(v)
        filed[code ^ flip][v].append(u)
    empty: frozenset[int] = frozenset()  # shared by every empty neighborhood
    frozen = {}
    for c, lists in filed.items():
        sets = [empty] * n
        _exhaust(map(sets.__setitem__, lists.keys(), map(frozenset, lists.values())))
        frozen[c] = tuple(sets)
    return [
        PatternDigraph(
            Pattern(tuple(_TYPE_ORDER[(c >> 2 * i) & 3] for i in reversed(range(d)))),
            Digraph._from_adjacency(frozen[c], frozen[c ^ flip]),
        )
        for c in sorted(frozen)
    ]


def product_coloring(
    family: Sequence[PatternDigraph], colorings: Mapping[Pattern, Coloring]
) -> Coloring:
    """Combine per-pattern colorings into one proper coloring of the host.

    This is the paper's proof that a coloring within the bound exists; the
    pipeline colors the host graph smallest-last instead and never calls it.

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
    pieces = []
    for pd in family:
        if pd.pattern not in colorings:
            raise ValueError(f"missing coloring for pattern {pd.pattern}")
        coloring = colorings[pd.pattern]
        piece = coloring.colors
        out = pd.digraph.out
        has_arcs = any(out)
        if len(piece) != n or has_arcs and any(
            piece[u] == piece[v] for u in range(n) for v in out[u]
        ):
            raise ValueError(f"coloring improper on pattern {pd.pattern}")
        if has_arcs or coloring.palette_size > 1:
            pieces.append(piece)
    index: dict[tuple[int, ...], int] = {}
    # the leading 0 gives every vertex a tuple even when no piece is left
    return Coloring([index.setdefault(key, len(index)) for key in zip(repeat(0, n), *pieces)])
