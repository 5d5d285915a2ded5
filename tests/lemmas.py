"""Checks of the calm-embedding lemmas, as references for the tests.

The search builds a grading that meets these lemmas' preconditions and
does not re-check them or its result at run time; the tests run them on
what it builds, and on gradings and embeddings made by hand.
"""

from __future__ import annotations

from boxforest import CalmEmbedding, Digraph, Grading, RootedTree, TournamentOracle


def grading_error(dg: Digraph, grading: Grading) -> str | None:
    """None when the grading is valid for dg, else the first violation."""
    levels = grading.levels
    if not levels[0]:
        return "X_1 is empty"
    for i in range(len(levels) - 1):
        if not levels[i] <= levels[i + 1]:
            return f"X_{i + 1} not contained in X_{i + 2}"
    if levels[-1] != frozenset(range(dg.n)):
        return "X_m is not the full vertex set"
    for i in range(len(levels) - 1):
        for v in sorted(levels[i]):
            if len(dg.out[v] & levels[i + 1]) < grading.k:
                return (
                    f"vertex {v} in X_{i + 1} has fewer than k={grading.k} "
                    f"out-neighbors in X_{i + 2}"
                )
    return None


def calm_precondition_error(
    dg: Digraph, grading: Grading, t: RootedTree, host_clique_number: int
) -> str | None:
    """None when the grading is wide and deep enough for the tree, else a reason.

    ``host_clique_number`` is an upper bound on the clique number of dg's
    underlying graph; a value below 1 raises ValueError.
    """
    if host_clique_number < 1:
        raise ValueError("clique number bound must be positive")
    err = grading_error(dg, grading)
    if err is not None:
        return f"invalid grading: {err}"
    if grading.k < t.n - 1:
        return f"k={grading.k} below tree size minus one ({t.n - 1})"
    needed = 1 + (t.depth() - 1) * (host_clique_number - 1)
    if grading.m < needed:
        return f"m={grading.m} below 1+(depth-1)(omega-1)={needed}"
    return None


def verify_calm(dg: Digraph, grading: Grading, emb: CalmEmbedding) -> bool:
    """Recheck every calm-embedding invariant from scratch.

    Recomputes tournament sizes rather than trusting the stored ones, and
    checks the maximality clause against every competing arc out of each
    tree vertex's image.
    """
    t = emb.tree
    phi = emb.phi
    if set(phi) != set(range(t.n)) or len(set(phi.values())) != t.n:
        return False
    if not all(0 <= w < dg.n for w in phi.values()):
        return False
    if grading_error(dg, grading) is not None:
        return False
    if phi[t.root] not in grading.levels[0]:
        return False
    for u, v in t.arcs():
        if not dg.has_arc(phi[u], phi[v]):
            return False
    oracle = TournamentOracle(dg)
    image = set(phi.values())
    for u, v in t.arcs():
        t_uv = oracle.size(phi[u], phi[v])
        if emb.tournament_sizes.get((u, v)) != t_uv:
            return False
        if t_uv - 1 < grading.level_of(phi[v]) - grading.level_of(phi[u]):
            return False
        # maximality: competitors are all vertices except the embedded
        # tree minus v's subtree
        blocked = image - {phi[x] for x in t.subtree(v)}
        g_u = grading.level_of(phi[u])
        for w in dg.out[phi[u]]:
            if w in blocked:
                continue
            t_uw = oracle.size(phi[u], w)
            if t_uw - 1 >= grading.level_of(w) - g_u and t_uv < t_uw:
                return False
    return True
