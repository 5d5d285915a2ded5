"""Peel gradings out of digraphs and embed calm rooted trees into them.

A (k, m)-grading of a digraph is a nested chain X_1 <= ... <= X_m covering
all vertices, X_1 nonempty, where every vertex of X_i (i < m) keeps at
least k out-neighbors inside X_{i+1}. Peeling low-out-degree vertices
either produces such a chain or layers the whole digraph into pieces of
max out-degree < k.

A *calm* copy of a rooted tree is an arc-preserving embedding whose root
lands in X_1 and whose every tree arc (u, v) satisfies the slack condition
t(u', v') - 1 >= level(v') - level(u'), where t is the largest transitive
tournament from u' to v', chosen maximally: no eligible competitor outside
the embedded tree (minus v's subtree) reaches a larger tournament.

In a pattern digraph every member of the universe N+(u) & N-(v) contains
u & v on every axis, so the members pairwise meet and their arcs form a
strict partial order: t(u, v) is 2 plus its longest chain, which one Kahn
pass finds (Mirsky 1971). Given omega, no step here is exponential.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

# ``degeneracy_coloring`` is imported only to stay a module name: perfbench
# rebinds it to trace calls.
from .graphs import Digraph, Graph, RootedTree, degeneracy_coloring, is_path_induced  # noqa: F401
# ``omega`` is imported only to stay a module name: perfbench rebinds it to
# trace calls.
from .oracles import omega  # noqa: F401

__all__ = [
    "CalmEmbedding",
    "CalmSearchError",
    "Grading",
    "HostGraphError",
    "InternalInvariantError",
    "Layering",
    "TournamentOracle",
    "embed_calm_tree",
    "find_path_induced_tree",
    "grading_error",
    "peel_grading",
    "verify_calm",
]


class CalmSearchError(RuntimeError):
    """No eligible extension candidate despite valid preconditions."""


class InternalInvariantError(RuntimeError):
    """A re-verification of our own construction failed; this is a bug."""


class HostGraphError(ValueError):
    """The digraph is not a faithful pattern digraph of the host graph."""


@dataclass(frozen=True)
class Grading:
    """Nested levels X_1..X_m with the k-out-neighbor property."""

    levels: tuple[frozenset[int], ...]
    k: int
    _level_of: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("grading needs at least one level")
        if self.k < 1:
            raise ValueError("k must be positive")
        level_of: dict[int, int] = {}
        for i, level in enumerate(self.levels, start=1):
            for v in level:
                level_of.setdefault(v, i)
        object.__setattr__(self, "_level_of", level_of)

    @property
    def m(self) -> int:
        return len(self.levels)

    def level_of(self, v: int) -> int:
        """g(v): the first 1-based level containing v."""
        return self._level_of[v]


@dataclass(frozen=True)
class Layering:
    """Peeled layers, one per round, partitioning the digraph."""

    layers: tuple[frozenset[int], ...]


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


def peel_grading(dg: Digraph, k: int, m: int) -> Grading | Layering:
    """Peel m-1 rounds of out-degree < k vertices; grade the survivors.

    Round i removes every vertex whose out-degree inside the current
    remainder Z_i is below k. If survivors remain after m-1 rounds, the
    reversed chain X_i = Z_{m-i+1} is a (k, m)-grading (a survivor of round
    i kept >= k out-neighbors in Z_i, which is the next reversed level).
    Otherwise the removed layers, which partition the digraph, are returned
    (the paper colors each with 2k-1 colors; the pipeline does not).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if m < 1:
        raise ValueError("m must be positive")
    z = frozenset(range(dg.n))
    chain = [z]
    layers: list[frozenset[int]] = []
    for _ in range(m - 1):
        current = chain[-1]
        peeled = frozenset(
            v for v in current if len(dg.out[v] & current) < k
        )
        layers.append(peeled)
        chain.append(current - peeled)
    if chain[-1]:
        return Grading(tuple(reversed(chain)), k)
    return Layering(tuple(layers))


class TournamentOracle:
    """Memoized t(u, v): 2 plus the longest chain inside U = N+(u) & N-(v).

    0 when the arc u->v is missing. In a pattern digraph the arcs inside U
    are transitive (see the module docstring), so this is 2 plus the largest
    underlying clique inside U: the largest transitive tournament from u to
    v. On any acyclic digraph it is never less, since a clique there is a
    transitive tournament and so a chain, but it can be more (a -> b -> c in
    U, a and c not adjacent). A query peels U round by round, minimal
    members first, at most |U| set lookups per member.
    """

    def __init__(self, dg: Digraph):
        if not dg.is_acyclic():
            raise ValueError("tournament sizes need an acyclic digraph")
        self._dg = dg
        self._cache: dict[tuple[int, int], int] = {}

    def size(self, u: int, v: int) -> int:
        key = (u, v)
        if key not in self._cache:
            out, inn = self._dg.out, self._dg.inn
            if v not in out[u]:
                self._cache[key] = 0
            else:
                universe = out[u] & inn[v]
                pending = {w: len(inn[w] & universe) for w in universe}
                layer = [w for w, count in pending.items() if not count]
                height = 0  # rounds, one per member of a longest chain
                while layer:
                    height += 1
                    ready = []
                    for w in layer:
                        for x in out[w] & universe:
                            pending[x] -= 1
                            if not pending[x]:
                                ready.append(x)
                    layer = ready
                self._cache[key] = 2 + height
        return self._cache[key]


@dataclass(frozen=True)
class CalmEmbedding:
    """Arc-preserving calm embedding of a rooted tree into a digraph."""

    tree: RootedTree
    phi: Mapping[int, int]
    tournament_sizes: Mapping[tuple[int, int], int]


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


def embed_calm_tree(
    dg: Digraph, grading: Grading, t: RootedTree, host_clique_number: int
) -> CalmEmbedding | None:
    """Embed the tree calmly, or None when the preconditions fail.

    Vertices are placed in preorder, each as one extension step: among the
    unused out-neighbors w of the parent's image with slack
    t(parent, w) - 1 >= level(w) - level(parent), pick the one maximizing
    the tournament size (ties to the smallest id). Raises CalmSearchError
    when no candidate exists despite valid preconditions; with the slack
    the grading guarantees (m >= depth * omega when omega >= 2) that
    cannot happen, see calm_precondition_error for the diagnosis hook.
    """
    if calm_precondition_error(dg, grading, t, host_clique_number) is not None:
        return None
    oracle = TournamentOracle(dg)
    phi: dict[int, int] = {t.root: min(grading.levels[0])}
    used = {phi[t.root]}
    sizes: dict[tuple[int, int], int] = {}
    for v in t.preorder()[1:]:
        p = t.parent[v]
        assert p is not None
        up = phi[p]
        g_up = grading.level_of(up)
        best: tuple[int, int] | None = None
        for w in sorted(dg.out[up]):
            if w in used:
                continue
            tw = oracle.size(up, w)
            if tw - 1 < grading.level_of(w) - g_up:
                continue
            if best is None or tw > best[0]:
                best = (tw, w)
        if best is None:
            raise CalmSearchError(
                f"no extension candidate at tree vertex {v} "
                f"(parent image {up}, level {g_up})"
            )
        sizes[(p, v)] = best[0]
        phi[v] = best[1]
        used.add(best[1])
    return CalmEmbedding(t, phi, sizes)


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


def find_path_induced_tree(
    dg: Digraph, g: Graph, t: RootedTree, host_clique_number: int
) -> CalmEmbedding | Layering:
    """Either path-induced-embed the tree into dg or peel dg into layers.

    Runs the dichotomy with k = t.n and m = depth * omega (bumped to 2
    when the digraph has no arcs so that peeling can exhaust it; a lone
    level would grade trivially and then have nothing to extend along).
    ``host_clique_number`` may be any upper bound on the clique number of
    dg's underlying graph; a larger bound only adds peel rounds, and one
    below 1 raises ValueError. A returned embedding is re-verified to be
    path-induced in dg (failure raises InternalInvariantError) and checked
    against the host graph (adjacency between path endpoints that dg lacks
    raises HostGraphError, since it means dg is not a faithful, modest
    pattern digraph of g).
    """
    if dg.n != g.n:
        raise ValueError("digraph and host graph disagree on vertex count")
    # checked here as well, since a layering never reaches the precondition
    if host_clique_number < 1:
        raise ValueError("clique number bound must be positive")
    if dg.n == 0:
        return Layering(())
    depth = t.depth()
    m = 1 if depth == 0 else max(2, depth * host_clique_number)
    result = peel_grading(dg, t.n, m)
    if isinstance(result, Layering):
        return result
    emb = embed_calm_tree(dg, result, t, host_clique_number)
    if emb is None:  # we built the grading, so its preconditions hold
        raise InternalInvariantError("constructed grading rejected by embedder")
    if not is_path_induced(dg, t, emb.phi):
        raise InternalInvariantError("calm embedding is not path-induced")
    for v in range(t.n):
        for a in t.ancestors(v)[1:]:
            if g.adjacent(emb.phi[a], emb.phi[v]):
                raise HostGraphError(
                    "path endpoints adjacent in host graph but not in the "
                    f"pattern digraph (tree vertices {a}, {v})"
                )
    return emb
