"""Exact clique and independence oracles.

``color`` in d >= 2 reads the clique number from ``omega`` when no bound
is given. ``maximum_independent_set`` is the same search on the
complement. Both are exhaustive branch-and-bound searches with a
deterministic order and a fixed size limit of OMEGA_LIMIT vertices; above
it they refuse (OracleLimitError) rather than approximate.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph

__all__ = [
    "OracleLimitError",
    "maximum_clique",
    "maximum_independent_set",
    "omega",
]


OMEGA_LIMIT = 40  # max n for the clique and independence oracles (same engine)


class OracleLimitError(Exception):
    """An exact oracle refused an instance above its size limit."""

    def __init__(self, oracle: str, size: int, limit: int):
        super().__init__(f"{oracle} oracle refuses n={size} above its limit {limit}")
        self.oracle = oracle
        self.size = size
        self.limit = limit


def _adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, near in enumerate(g.adj):
        for v in near:
            masks[u] |= 1 << v
    return masks


def _max_clique_bitset(adj: Sequence[int], universe: int) -> int:
    """Exact maximum clique inside ``universe``, as its member mask.

    Branch and bound with a greedy-coloring upper bound; vertices are
    consumed in bit order, so results and witnesses are deterministic.
    """
    best_size = 0
    best_mask = 0

    def expand(r_mask: int, r_size: int, p: int) -> None:
        nonlocal best_size, best_mask
        if not p:
            if r_size > best_size:
                best_size, best_mask = r_size, r_mask
            return
        # color classes of p give per-vertex bounds on any extension
        order: list[int] = []
        bound: list[int] = []
        color = 0
        rest = p
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                bit = 1 << v
                avail &= ~bit & ~adj[v]
                rest ^= bit
                order.append(v)
                bound.append(color)
        for i in range(len(order) - 1, -1, -1):
            if r_size + bound[i] <= best_size:
                return
            v = order[i]
            bit = 1 << v
            p &= ~bit
            expand(r_mask | bit, r_size + 1, p & adj[v])

    expand(0, 0, universe)
    return best_mask


def maximum_clique(g: Graph) -> frozenset[int]:
    """A largest clique of ``g``, as its vertex set.

    Exact for up to ``OMEGA_LIMIT`` (40) vertices; above that it raises
    ``OracleLimitError``. The witness is deterministic: the search takes
    vertices in bit order, so one graph always gives the same clique.
    """
    if g.n > OMEGA_LIMIT:
        raise OracleLimitError("omega", g.n, OMEGA_LIMIT)
    mask = _max_clique_bitset(_adjacency_masks(g), (1 << g.n) - 1)
    return frozenset(v for v in range(g.n) if mask >> v & 1)


def omega(g: Graph) -> int:
    """The clique number of ``g``: the size of ``maximum_clique(g)``.

    Exact for up to ``OMEGA_LIMIT`` (40) vertices; above that it raises
    ``OracleLimitError``. Its clique is the deterministic witness of
    ``maximum_clique``, vertices taken in bit order.
    """
    return len(maximum_clique(g))


def maximum_independent_set(g: Graph) -> frozenset[int]:
    """A largest independent set of ``g``; its size is the independence
    number.

    Exact for up to ``OMEGA_LIMIT`` (40) vertices; above that it raises
    ``OracleLimitError`` as the "alpha" oracle. The witness is
    deterministic: the clique search on the complement takes vertices in
    bit order, so one graph always gives the same set.
    """
    if g.n > OMEGA_LIMIT:
        raise OracleLimitError("alpha", g.n, OMEGA_LIMIT)
    # a clique of the complement, whose row for v is every vertex but v and
    # v's neighbors
    full = (1 << g.n) - 1
    complement = [full ^ mask ^ (1 << v) for v, mask in enumerate(_adjacency_masks(g))]
    mask = _max_clique_bitset(complement, full)
    return frozenset(v for v in range(g.n) if mask >> v & 1)
