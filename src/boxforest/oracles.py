"""Exact clique, independence, and chromatic number oracles.

These are the ground truth the rest of the package is validated against, so
they are exhaustive branch-and-bound searches with deterministic order and
fixed size limits: OMEGA_LIMIT vertices for the clique and independence
oracles, CHI_LIMIT for the chromatic number. Above a limit they refuse
(OracleLimitError) rather than approximate.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph

__all__ = [
    "OracleLimitError",
    "alpha",
    "chi",
    "maximum_clique",
    "maximum_independent_set",
    "omega",
]


OMEGA_LIMIT = 40  # max n for the clique and independence oracles (same engine)
CHI_LIMIT = 20  # max n for the chromatic number oracle


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


def _max_clique_bitset(adj: Sequence[int], universe: int) -> tuple[int, int]:
    """Exact maximum clique inside ``universe``; returns (size, member mask).

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
    return best_size, best_mask


def maximum_clique(g: Graph) -> frozenset[int]:
    if g.n > OMEGA_LIMIT:
        raise OracleLimitError("omega", g.n, OMEGA_LIMIT)
    _, mask = _max_clique_bitset(_adjacency_masks(g), (1 << g.n) - 1)
    return frozenset(v for v in range(g.n) if mask >> v & 1)


def omega(g: Graph) -> int:
    if g.n > OMEGA_LIMIT:
        raise OracleLimitError("omega", g.n, OMEGA_LIMIT)
    size, _ = _max_clique_bitset(_adjacency_masks(g), (1 << g.n) - 1)
    return size


def maximum_independent_set(g: Graph) -> frozenset[int]:
    if g.n > OMEGA_LIMIT:
        raise OracleLimitError("alpha", g.n, OMEGA_LIMIT)
    return maximum_clique(g.complement())


def alpha(g: Graph) -> int:
    return len(maximum_independent_set(g))


def _greedy_palette(g: Graph) -> int:
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    colors: dict[int, int] = {}
    for v in order:
        used = {colors[w] for w in g.adj[v] if w in colors}
        colors[v] = next(c for c in range(g.n) if c not in used)
    return 1 + max(colors.values(), default=-1)


def _k_colorable(g: Graph, k: int) -> bool:
    """DSATUR-ordered backtracking with first-new-color symmetry breaking."""
    n = g.n
    colors = [-1] * n

    def pick() -> int:
        best_v = -1
        best_key: tuple[int, int, int] | None = None
        for v in range(n):
            if colors[v] != -1:
                continue
            sat = len({colors[w] for w in g.adj[v] if colors[w] != -1})
            key = (-sat, -g.degree(v), v)
            if best_key is None or key < best_key:
                best_key, best_v = key, v
        return best_v

    def backtrack(assigned: int, palette_used: int) -> bool:
        if assigned == n:
            return True
        v = pick()
        forbidden = {colors[w] for w in g.adj[v] if colors[w] != -1}
        for c in range(min(k, palette_used + 1)):
            if c in forbidden:
                continue
            colors[v] = c
            if backtrack(assigned + 1, max(palette_used, c + 1)):
                return True
            colors[v] = -1
        return False

    return backtrack(0, 0)


def chi(g: Graph) -> int:
    """Exact chromatic number by binary search on k-colorability."""
    if g.n > CHI_LIMIT:
        raise OracleLimitError("chi", g.n, CHI_LIMIT)
    if g.n == 0:
        return 0
    lo = omega(g)  # within OMEGA_LIMIT, since CHI_LIMIT is below it
    hi = _greedy_palette(g)
    while lo < hi:
        mid = (lo + hi) // 2
        if _k_colorable(g, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo
