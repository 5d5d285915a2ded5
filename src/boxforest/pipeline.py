"""End-to-end dichotomy: color within the proven bound or emit a tree.

Given normalized boxes and tree parameters (depth r, branching k), the
pipeline builds the host graph from one sweep. When the complete
(k^d * omega)-ary tree of depth r has more vertices |T| than the host
graph's maximum degree, every pattern peels out whole in its first round,
since a pattern out-degree is at most the host degree, so no pattern can
embed the tree. No tree is searched for in d = 1, where interval graphs
are chordal, so smallest-last colors them with exactly omega colors,
within the bound; nor with omega given and |T| > n - 1, which is known
before any edge is. On that no-search exit a dense host graph is colored
on bit rows built from the boxes, and no host graph is built at all; the
density is tested first from the axes' endpoint sums, and rows are built
only up to ``_ROWS_CAP`` boxes. Otherwise the host graph's edges are
classified by pattern into the pattern digraphs that have arcs, and the
grading machinery runs on each. The first calm, path-induced embedding is
pruned, each vertex's children cut to k pairwise-disjoint boxes, into an
induced copy of the depth-r k-ary tree in the host graph.

If no pattern embeds the tree, the host graph is colored smallest-last,
on bit rows built from the boxes when it is dense. The paper's product of
per-pattern layer colorings proves that a coloring within the derived
bound (2 r |T| omega)^(4^d) exists; the certificate needs only one, and
smallest-last uses at most n colors, below the bound's 4^16 for d >= 2.
A coloring certificate carries r and k, not the bound: the bound is
worked out from the boxes wherever it is checked, and built only where
the palette could reach it. Certificates list their entries by position,
as box files list boxes: ``colors[i]`` is box i's color, and the palette
is one more than the largest; ``map[v]`` is the box of tree vertex v,
numbered level by level as ``complete_kary_tree`` numbers them. The
certificate objects hold what their JSON holds: a coloring's palette and
a tree certificate's tree are worked out, not stored.

Both outcomes are re-verified from scratch before being returned; a
verification failure raises InternalInvariantError because it can only
mean a bug, not an unlucky input. A coloring is checked on the host
graph's lists where they were built, and otherwise by the sweep that
``verify_certificate`` runs, labelled by the colors; a tree by one sweep
over the boxes it maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

# ``peel_grading``, ``product_coloring``, ``maximum_independent_set`` and
# ``intersects`` are imported only to stay module names: perfbench rebinds
# them to trace calls.
from .embedding import (  # noqa: F401
    CalmEmbedding,
    CalmSearchError,
    InternalInvariantError,
    find_path_induced_tree,
    peel_grading,
)
from .geometry import (  # noqa: F401
    Box,
    _as_family,
    _by_id,
    _Family,
    _load_json,
    _sweep,
    intersects,
)
from .graphs import (
    Coloring,
    _smallest_last_on_rows,
    complete_kary_tree,
    intersection_graph,
    intersection_rows,
    smallest_last_coloring,
)
from .oracles import maximum_independent_set, omega  # noqa: F401
from .patterns import decompose, product_coloring  # noqa: F401

__all__ = [
    "InducedTree",
    "ProperColoring",
    "certificate_to_json",
    "chi_bound",
    "color_or_find_forest",
    "extract_independent",
    "parse_certificate",
    "prune_children",
    "tree_vertex_count",
    "verify_certificate",
]


def tree_vertex_count(depth: int, branching: int) -> int:
    """Vertices of the complete ``branching``-ary tree of the given depth."""
    if depth < 0 or branching < 1:
        raise ValueError("need depth >= 0 and branching >= 1")
    if branching == 1:
        return depth + 1
    return (branching ** (depth + 1) - 1) // (branching - 1)


def chi_bound(d: int, r: int, k: int, omega: int) -> int:
    """The derived palette bound (2 r |T| w)^(4^d), an exact integer, where
    |T| counts the vertices of the complete (k^d w)-ary tree of depth r that
    the per-pattern step embeds. It dominates the paper's stated form
    (2 r k^d w^2)^(4^d) whenever k^d w >= 2."""
    if d < 1 or r < 0 or k < 1 or omega < 1:
        raise ValueError("need d >= 1, r >= 0, k >= 1, omega >= 1")
    return (2 * r * tree_vertex_count(r, k**d * omega) * omega) ** (4**d)


def _tree_fits(r: int, branching: int, n: int) -> bool:
    """Whether the complete ``branching``-ary tree of depth ``r`` has at most
    ``n`` vertices.

    A depth-r tree has more than r vertices, more than ``branching`` once
    r >= 1, and at least branching^r >= 2^(r (bits of branching - 1));
    refusing those first keeps the count under 2^(2 (bits of n) + 1),
    however large r and n are.
    """
    return (
        r < n
        and (r == 0 or branching < n)
        and r * (branching.bit_length() - 1) < n.bit_length()
        and tree_vertex_count(r, branching) <= n
    )


class _ChildShortfall(InternalInvariantError):
    """Too few disjoint children: a bug, unless omega was understated."""


def _interval_mis(ids: Sequence[int], los: Sequence, his: Sequence) -> list[int]:
    """Exact maximum independent set of the intervals [los[i], his[i]] of
    the boxes ``ids[i]``, greedy by hi (ties by id)."""
    chosen: list[int] = []
    last_hi = None
    for hi, bid, lo in sorted(zip(his, ids, los)):
        if last_hi is None or lo > last_hi:
            chosen.append(bid)
            last_hi = hi
    return chosen


def _interval_max_clique(ids: Sequence[int], los: Sequence, his: Sequence) -> frozenset[int]:
    """Ids of intervals through the first deepest sweep point (exact).

    One pass counts the depth after each event and finds the first
    deepest; a second replays the events up to it, so the set is built
    once, not at each new depth."""
    events = sorted([*zip(los, repeat(0), ids), *zip(his, repeat(1), ids)])
    depth = best = deepest = 0
    for at, (_, is_hi, _) in enumerate(events):
        depth += -1 if is_hi else 1
        if depth > best:
            best, deepest = depth, at
    active: set[int] = set()
    for _, is_hi, bid in events[: deepest + 1]:
        if is_hi:
            active.discard(bid)
        else:
            active.add(bid)
    return frozenset(active)


def extract_independent(boxes: Sequence[Box]) -> tuple[int, ...]:
    """Pairwise-disjoint boxes, at least ceil((n / omega)^(1/d)) of them.

    From the last axis down: each axis's intervals form an interval graph;
    either its exact independent set is large, or its deepest point is
    covered by many boxes which all meet there, and only those go on to the
    next axis down. Folding back up, an axis's independent set wins when it
    is at least as large as what the axes below it found. One loop over the
    axes, so any d runs without recursion. Returns the ids found, sorted.
    """
    if not boxes:
        raise ValueError("empty box collection")
    pool = _as_family(boxes)
    upper: list[list[int]] = []  # the interval MIS of axes d-1 down to 1
    for axis in range(len(pool.columns) // 2 - 1, 0, -1):
        ids, lo, hi = pool.ids, *pool.columns[2 * axis : 2 * axis + 2]
        upper.append(_interval_mis(ids, lo, hi))
        stack = _interval_max_clique(ids, lo, hi)
        pool = pool.take([p for p, b in enumerate(ids) if b in stack])
    ids = _interval_mis(pool.ids, *pool.columns[:2])
    for option in reversed(upper):
        if len(option) >= len(ids):
            ids = option
    return tuple(sorted(ids))


@dataclass(frozen=True)
class ProperColoring:
    """Coloring certificate: proper on the host graph, palette within the
    derived bound for depth ``r`` and branching ``k``."""

    coloring: Coloring
    r: int
    k: int


@dataclass(frozen=True)
class InducedTree:
    """Induced-copy certificate: ``mapping[v]`` is the box id of vertex v of
    ``complete_kary_tree(r, k)``, whose vertices are numbered level by
    level; exhaustively checkable."""

    mapping: tuple[int, ...]
    r: int
    k: int


Certificate = ProperColoring | InducedTree


def prune_children(emb: CalmEmbedding, boxes: Sequence[Box], k: int) -> InducedTree:
    """Thin an embedded wide tree down to an induced k-ary certificate.

    Level by level each kept vertex selects k of its children whose boxes
    are pairwise disjoint, the first k by id that ``extract_independent``
    finds: by the containment bound it finds at least k among the
    k^d * omega children. The final mapping is re-verified pairwise
    against the boxes; any failure is a bug, not an input condition.
    """
    if k < 1:
        raise ValueError("k must be positive")
    boxes = _by_id(boxes)
    big = emb.tree
    r = big.depth()
    mapping = [emb.phi[big.root]]
    frontier = [big.root]
    # level by level, as complete_kary_tree numbers its vertices
    for _ in range(r):
        next_frontier = []
        for big_v in frontier:
            kids = big.children[big_v]
            found = extract_independent(boxes.take([emb.phi[c] for c in kids]))
            if len(found) < k:
                raise _ChildShortfall(
                    f"only {len(found)} disjoint children of tree vertex "
                    f"{big_v}, needed {k}; contradicts the containment bound"
                )
            chosen_set = set(found[:k])
            for c in kids:
                if emb.phi[c] in chosen_set:
                    next_frontier.append(c)
                    mapping.append(emb.phi[c])
        frontier = next_frontier
    cert = InducedTree(tuple(mapping), r, k)
    problem = _induced_tree_violation(cert, boxes)
    if problem:
        raise InternalInvariantError(f"pruned certificate not induced: {problem}")
    return cert


def _induced_tree_violation(cert: InducedTree, boxes: _Family) -> str | None:
    """Whether the mapping, of box ids in range, is an induced copy of
    ``complete_kary_tree(r, k)``, from one sweep over the mapped boxes of
    the family listed by id; None when clean, else the smallest tree pair
    at fault."""
    # a tree with more vertices than the mapping is refused before it is built
    if not _tree_fits(cert.r, cert.k, len(cert.mapping)):
        return "mapping does not cover the tree vertices"
    t = complete_kary_tree(cert.r, cert.k)
    if len(cert.mapping) != t.n:
        return "mapping does not cover the tree vertices"
    if len(set(cert.mapping)) != t.n:
        return "mapping is not injective"
    # the mapped boxes listed by tree vertex: the sweep yields each pair of
    # tree vertices whose boxes meet, and a pair u < v is a tree edge
    # exactly when u is v's parent
    met = [False] * t.n  # whether v's box meets its parent's
    extra = None
    for j, hits in _sweep(boxes.take(cert.mapping), None):
        for i in hits:
            u, v = (i, j) if i < j else (j, i)
            if t.parent[v] == u:
                met[v] = True
            elif extra is None or (u, v) < extra:
                extra = (u, v)
    missing = min(((t.parent[v], v) for v in range(1, t.n) if not met[v]), default=None)
    faults = [(pair, kind) for pair, kind in ((missing, "missing"), (extra, "extra")) if pair]
    if not faults:
        return None
    (u, v), kind = min(faults)
    return f"{kind} adjacency between tree vertices {u} and {v}"


# Rows take n^2 / 8 bytes before m is known, so the boxes are colored on
# rows up front only up to this many: 32 MB of rows, about 100 MB at the
# peak of building them. Above it the sweep's lists decide whether the
# graph is dense (CHANGES.md has the measured cost)
_ROWS_CAP = 16_384


def _dense(two_m: int, n: int) -> bool:
    """Whether a graph with 2m adjacency entries on n vertices is colored on
    bit rows: 2m >= n^2 / 8. On random 2-d instances (n = 400 to 3200) rows
    won from 2m / n^2 = 0.11 up and lost at 0.010 and below; between, the
    crossover falls as n grows, from 0.11 at n = 400 to 0.024 at n = 3200
    (CHANGES.md)."""
    return 8 * two_m >= n * n


def _may_be_dense(boxes: _Family) -> bool:
    """False when rows are not worth building up front: above ``_ROWS_CAP``
    boxes, or when one axis alone shows the graph sparse.

    An edge meets on every axis, so m is at most the number of pairs that
    meet on any one axis. Normalized, an axis's endpoints are the ints
    0..2n-1, so hi - lo - 1 endpoints lie strictly inside a side, and a
    pair that meets on the axis puts exactly two of its endpoints inside
    its sides (one in each when they cross, both in the outer one when one
    holds the other): twice the axis's pairs is sum(hi) - sum(lo) - n,
    counted in O(n). Boxes that are not normalized get no rows up front;
    the host graph's lists decide for them.
    """
    n = len(boxes)
    if n > _ROWS_CAP:
        return False
    columns = boxes.columns
    for lows, highs in zip(columns[0::2], columns[1::2]):
        # distinct ints in 0..2n-1 are the ranks; shared ones fail the sweep later
        if {*map(type, lows), *map(type, highs)} != {int} or min(lows) < 0 or max(highs) >= 2 * n:
            return False
        if not _dense(sum(highs) - sum(lows) - n, n):
            return False
    return True


def _bound_violation(boxes: _Family, palette: int, r: int, k: int) -> str | None:
    """Why ``palette`` (at least 1) exceeds the coloring bound
    (2 r |T| w)^(4^d) for depth ``r`` and branching ``k``; None if within.

    The bound grows with w, so any w up to the clique number is sound: 1 in
    d >= 2, the intervals' exact clique in d = 1. A bound the palette
    cannot reach is not built: with r >= 1 the base is at least 4, so
    2 * 4^d bits are within; so is a palette below |T|, which the base
    exceeds, or of at most 4^d * (bits of the base - 1) bits. What is left
    builds a bound less than 1.5 times as long as the palette.
    """
    d = len(boxes.columns) // 2
    w = 1
    if r:  # depth 0 makes the bound 0, below any palette of a box
        patterns = 4**d
        bits = palette.bit_length()
        if bits <= 2 * patterns:
            return None
        if d == 1:
            w = len(_interval_max_clique(boxes.ids, *boxes.columns))
        branching = k**d * w
        if not _tree_fits(r, branching, palette):
            return None
        if bits <= patterns * ((2 * r * tree_vertex_count(r, branching) * w).bit_length() - 1):
            return None
        if palette <= chi_bound(d, r, k, w):
            return None
    return (
        f"palette {palette} exceeds the bound (2 r |T| w)^(4^d) for d = {d}, "
        f"r = {r}, k = {k}, w = {w}"
    )


def color_or_find_forest(
    boxes: Sequence[Box],
    r: int,
    k: int,
    omega_bound: int | None = None,
) -> Certificate:
    """Proper coloring within the derived bound, or an induced tree.

    Expects normalized boxes with ids 0..n-1. ``omega_bound`` may supply a
    caller-guaranteed upper bound on the clique number to skip the exact
    oracle, which refuses more than ``oracles.OMEGA_LIMIT`` (40) boxes; in
    d >= 2 it is then required. With r = 0 the certificate is the trivial
    single-vertex tree (any box is one), and only the ids are checked.

    No tree is searched for in d = 1, where interval graphs are chordal,
    so the palette is omega; nor in d >= 2 with ``omega_bound`` given when
    a tree with more vertices |T| than n - 1 cannot embed, whatever the
    edges. On that no-search exit the outcome is a coloring: when the host
    graph is dense it is colored on bit rows built from the boxes, no host
    graph is built, and the self-check is a sweep labelled by the colors.
    Otherwise the host graph comes from one sweep. When a tree is sought
    and |T| is at most the host graph's maximum degree, its edges are
    classified and decomposed, and the pattern digraphs with arcs are
    searched in order until one embeds the tree. Failing that, or with no
    search, the host graph is colored smallest-last. The palette is
    checked against the bound as ``verify_certificate`` checks it.
    """
    if not boxes:
        raise ValueError("empty box collection")
    if r < 0 or k < 1:
        raise ValueError("need r >= 0 and k >= 1")
    if omega_bound is not None and omega_bound < 1:
        raise ValueError("omega bound must be positive")
    boxes = _by_id(boxes)
    d = len(boxes.columns) // 2
    n = len(boxes)

    if r == 0:  # box 0 is a one-vertex tree
        return InducedTree((0,), 0, k)

    # no tree is sought in d = 1, nor where Delta <= n - 1 < |T|
    search = d >= 2 and (omega_bound is None or _tree_fits(r, k**d * omega_bound, n - 1))
    if not search and _may_be_dense(boxes):
        # the edges are needed only to color, and a dense graph's rows come
        # from the boxes. The rows are not trusted: the sweep, labelled by
        # the colors, must find no pair of one color that meets
        rows = intersection_rows(boxes)
        if _dense(sum(map(int.bit_count, rows)), n):
            coloring = _smallest_last_on_rows(rows)
            colors = coloring.colors
            if len(colors) != n or next(_sweep(boxes, colors), None):
                raise InternalInvariantError("smallest-last coloring improper on the boxes")
            return _bounded_coloring(boxes, coloring, r, k)

    g = intersection_graph(boxes)
    if search:
        w = omega_bound if omega_bound is not None else omega(g)
        branching = k**d * w
        # a pattern out-degree is at most the host degree, so when that is
        # below |T| every pattern peels out whole in round 1 and none is searched
        if _tree_fits(r, branching, max(map(len, g.adj))):
            big_tree = complete_kary_tree(r, branching)
            for pd in decompose(boxes, g):
                result = find_path_induced_tree(pd.digraph, big_tree, host_clique_number=w)
                if isinstance(result, CalmEmbedding):
                    try:
                        return prune_children(result, boxes, k)
                    except _ChildShortfall as exc:
                        if omega_bound is None:
                            raise
                        # with the true clique number the children always suffice
                        raise CalmSearchError(str(exc)) from None

    # at most Delta + 1 <= n colors. A dense host graph is colored on
    # bit rows: the same order and colors from O(n log Delta) operations
    # on n-bit ints, not O(m) interpreter steps. The self-check reads the
    # sweep's lists, so it does not trust the rows.
    if _dense(sum(map(len, g.adj)), g.n):
        coloring = _smallest_last_on_rows(intersection_rows(boxes))
    else:
        coloring = smallest_last_coloring(g.adj)
    if not coloring.is_proper_on(g):
        raise InternalInvariantError("smallest-last coloring improper on the host graph")
    return _bounded_coloring(boxes, coloring, r, k)


def _bounded_coloring(boxes: _Family, coloring: Coloring, r: int, k: int) -> ProperColoring:
    """The certificate for a proper coloring whose palette is within the
    bound, checked as ``verify_certificate`` checks it."""
    # d >= 2 and |T| >= 2 put the bound (2 r |T| w)^(4^d) at 4^16 or more,
    # and in d = 1 the palette is omega
    problem = _bound_violation(boxes, coloring.palette_size, r, k)
    if problem:
        raise InternalInvariantError(f"smallest-last coloring: {problem}")
    return ProperColoring(coloring, r, k)


def certificate_to_json(cert: Certificate) -> str:
    """Canonical single-line JSON; byte-stable for identical certificates.

    The entries are arrays by position: ``colors[i]`` is box i's color,
    ``map[v]`` the box of tree vertex v."""
    if isinstance(cert, ProperColoring):
        payload = {
            "kind": "coloring",
            "palette": cert.coloring.palette_size,
            "colors": cert.coloring.colors,
        }
    else:
        payload = {"kind": "induced_tree", "map": cert.mapping}
    payload.update(r=cert.r, k=cert.k)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class _RepeatedKey(ValueError):
    """A certificate object lists one key twice."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json.loads`` object hook: a repeated key is an error, not an update."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise _RepeatedKey(f"certificate repeats the key {key!r}")
        obj[key] = value
    return obj


def parse_certificate(text: str) -> dict:
    """Parse and schema-check a certificate; ValueError on malformed input."""
    payload = _load_json(text, "bad certificate JSON", _unique_keys)
    if not isinstance(payload, dict):
        raise ValueError("certificate must be a JSON object")
    kind = payload.get("kind")
    if kind not in ("coloring", "induced_tree"):
        raise ValueError("certificate kind must be 'coloring' or 'induced_tree'")
    # the entries, then the integers besides r and k
    entries, *numbers = ("colors", "palette") if kind == "coloring" else ("map",)
    wanted = {"kind", "r", "k", entries, *numbers}
    if set(payload) != wanted:
        raise ValueError(f"{kind} certificate needs keys {sorted(wanted)}")
    for key in ("r", "k", *numbers):
        if type(payload[key]) is not int:
            raise ValueError(f"{key} must be an integer")
    if payload["r"] < 0 or payload["k"] < 1:
        raise ValueError("need r >= 0 and k >= 1")
    if type(payload[entries]) is not list:
        raise ValueError(f"{entries} must be an array")
    if not {*map(type, payload[entries])} <= {int}:
        raise ValueError(f"{entries} entries must be integers")
    return payload


def verify_certificate(boxes: Sequence[Box], payload: dict) -> tuple[bool, str]:
    """Re-verify a parsed certificate against the boxes, class by class.

    Returns (ok, message); box ids other than 0..n-1 or entries of the
    wrong length raise ValueError since that is an input error rather than
    a refutation. A coloring's palette must be one more than its largest
    color, and is checked against the bound worked out from the boxes and
    its r and k; no number the certificate states as a bound is read.
    """
    if not boxes:
        raise ValueError("empty box collection")
    boxes = _by_id(boxes)
    n = len(boxes)
    if payload["kind"] == "coloring":
        colors: list[int] = payload["colors"]
        if len(colors) != n:
            raise ValueError("certificate colors do not cover the box ids")
        palette = payload["palette"]
        bad = next((v for v, c in enumerate(colors) if not 0 <= c < palette), None)
        if bad is not None:
            return False, f"color of box {bad} outside the stated palette"
        if palette != max(colors) + 1:
            return False, f"stated palette {palette} but the largest color is {max(colors)}"
        problem = _bound_violation(boxes, palette, payload["r"], payload["k"])
        if problem:
            return False, problem
        # one sweep pairs only boxes of one color, and only the smallest
        # pair of each batch is kept: a large color class costs no memory
        clash = min((sorted((j, min(hits))) for j, hits in _sweep(boxes, colors)), default=None)
        if clash is not None:
            u, v = clash
            return False, f"adjacent boxes {u} and {v} share color {colors[u]}"
        return True, (
            f"proper coloring with {palette} color{'' if palette == 1 else 's'} within bound"
        )
    r, k = payload["r"], payload["k"]
    if not _tree_fits(r, k, n):
        raise ValueError("certificate tree has more vertices than there are boxes")
    size = tree_vertex_count(r, k)
    mapping: list[int] = payload["map"]
    if len(mapping) != size:
        raise ValueError(f"certificate map must cover tree vertices 0..{size - 1}")
    if any(not 0 <= b < n for b in mapping):
        raise ValueError("certificate map hits a box id out of range")
    problem = _induced_tree_violation(InducedTree(tuple(mapping), r, k), boxes)
    if problem:
        return False, problem
    return True, f"induced depth-{r} {k}-ary tree on {size} boxes"
