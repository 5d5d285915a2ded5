"""End-to-end dichotomy: color within the proven bound or emit a tree.

Given normalized boxes and tree parameters (depth r, branching k), the
pipeline builds the host graph from one sweep. When the complete
(k^d * omega)-ary tree of depth r has more vertices |T| than the host
graph's maximum degree, every pattern peels out whole in its first round,
since a pattern out-degree is at most the host degree, so no pattern can
embed the tree. Otherwise the host graph's edges are classified by pattern
into the pattern digraphs that have arcs, and the grading machinery runs
on each. The first calm, path-induced embedding is pruned, each vertex's
children cut to k pairwise-disjoint boxes, into an induced copy of the
depth-r k-ary tree in the host graph. In d = 1 no tree is sought: interval
graphs are chordal, so smallest-last colors them with exactly omega
colors, within the bound.

If no pattern embeds the tree, the host graph is colored smallest-last,
and only then is the bound built. The paper's product of per-pattern layer
colorings proves that a coloring within the derived bound exists; the
certificate needs only one, and smallest-last uses at most n colors, below
the bound's 4^16 for d >= 2.

Both outcomes are re-verified from scratch before being returned; a
verification failure raises InternalInvariantError because it can only
mean a bug, not an unlucky input.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

# ``peel_grading``, ``product_coloring`` and ``maximum_independent_set`` are
# imported only to stay module names: perfbench rebinds them to trace calls.
from .embedding import (  # noqa: F401
    CalmEmbedding,
    CalmSearchError,
    InternalInvariantError,
    find_path_induced_tree,
    peel_grading,
)
from .geometry import Box, _sweep, intersects
from .graphs import (
    Coloring,
    RootedTree,
    complete_kary_tree,
    intersection_graph,
    smallest_last_coloring,
)
from .oracles import maximum_independent_set, omega  # noqa: F401
from .patterns import decompose, product_coloring  # noqa: F401

__all__ = [
    "BoundReport",
    "Extraction",
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


@dataclass(frozen=True)
class BoundReport:
    """Two closed-form palette bounds, exact integers throughout.

    ``stated_bound`` is (2 r k^d w^2)^(4^d), phrased in the raw branching
    parameter; ``derived_bound`` replaces k^d w by the vertex count of the
    tree the per-pattern step embeds, (2 r |T| w)^(4^d), and is what the
    pipeline's coloring obligation is keyed on. The derived form dominates
    whenever k^d w >= 2.
    """

    d: int
    r: int
    k: int
    omega: int
    tree_branching: int
    tree_size: int
    stated_bound: int
    derived_bound: int


def chi_bound(d: int, r: int, k: int, omega: int) -> BoundReport:
    if d < 1 or r < 0 or k < 1 or omega < 1:
        raise ValueError("need d >= 1, r >= 0, k >= 1, omega >= 1")
    branching = k**d * omega
    size = tree_vertex_count(r, branching)
    patterns = 4**d
    return BoundReport(
        d=d,
        r=r,
        k=k,
        omega=omega,
        tree_branching=branching,
        tree_size=size,
        stated_bound=(2 * r * k**d * omega**2) ** patterns,
        derived_bound=(2 * r * size * omega) ** patterns,
    )


def _tree_fits(r: int, branching: int, n: int) -> bool:
    """Whether the complete ``branching``-ary tree of depth ``r`` has at most
    ``n`` vertices.

    A depth-r tree has more than r vertices, and more than ``branching``
    once r >= 1; refusing those first keeps the count below n ** n.
    """
    return r < n and (r == 0 or branching < n) and tree_vertex_count(r, branching) <= n


def _bound_too_long(limit: int) -> str:
    return (
        f"coloring bound has more than {limit} digits, the interpreter's limit "
        f"for writing an integer (sys.get_int_max_str_digits()); lower r or k"
    )


def _writable_bound(d: int, r: int, k: int, omega: int) -> BoundReport:
    """``chi_bound`` for a coloring, refused up front when it surely cannot
    be written.

    A bound too long to write is a ValueError before any big integer is
    built. Its length comes from bit lengths: |T| >= branching^r and
    |T| > r, so the bound is at least 2^(4^d * bits), and
    3 * bits >= 10 * limit gives more than ``limit`` decimal digits, since
    2^10 > 10^3. A bound that is not surely too long is computed, and
    ``certificate_to_json`` refuses it if it is.
    """
    limit = sys.get_int_max_str_digits()
    if limit:
        branching = k**d * omega
        tree_bits = max(r * (branching.bit_length() - 1), (r + 1).bit_length() - 1)
        bits = 4**d * ((2 * r * omega).bit_length() - 1 + tree_bits)
        if 3 * bits >= 10 * limit:
            raise ValueError(_bound_too_long(limit))
    return chi_bound(d, r, k, omega)


class _ChildShortfall(InternalInvariantError):
    """Too few disjoint children: a bug, unless omega was understated."""


class Extraction(NamedTuple):
    ids: tuple[int, ...]
    shortfall: bool


def _interval_mis(boxes: Sequence[Box], axis: int) -> list[int]:
    """Exact maximum independent set of an interval graph, greedy by hi."""
    chosen: list[int] = []
    last_hi = None
    for b in sorted(boxes, key=lambda b: (b.side(axis).hi, b.id)):
        if last_hi is None or b.side(axis).lo > last_hi:
            chosen.append(b.id)
            last_hi = b.side(axis).hi
    return chosen


def _interval_max_clique(boxes: Sequence[Box], axis: int) -> frozenset[int]:
    """Ids of intervals through the first deepest sweep point (exact)."""
    events = sorted(
        [(b.side(axis).lo, 0, b.id) for b in boxes]
        + [(b.side(axis).hi, 1, b.id) for b in boxes]
    )
    active: set[int] = set()
    best: frozenset[int] = frozenset()
    for _, is_hi, bid in events:
        if is_hi:
            active.discard(bid)
        else:
            active.add(bid)
            if len(active) > len(best):
                best = frozenset(active)
    return best


def extract_independent(
    boxes: Sequence[Box], target: int | None = None
) -> Extraction:
    """Pairwise-disjoint boxes, at least ceil((n / omega)^(1/d)) of them.

    From the last axis down: each axis's intervals form an interval graph;
    either its exact independent set is large, or its deepest point is
    covered by many boxes which all meet there, and only those go on to the
    next axis down. Folding back up, an axis's independent set wins when it
    is at least as large as what the axes below it found. One loop over the
    axes, so any d runs without recursion. Truncates to ``target`` when
    given; flags a shortfall (returning everything found) when the target
    is out of reach.
    """
    if not boxes:
        raise ValueError("empty box collection")
    if target is not None and target < 1:
        raise ValueError("target must be positive")
    d = boxes[0].dim
    if any(b.dim != d for b in boxes):
        raise ValueError("dimension mismatch")
    pool: Sequence[Box] = boxes
    upper: list[list[int]] = []  # the interval MIS of axes d-1 down to 1
    for axis in range(d - 1, 0, -1):
        upper.append(_interval_mis(pool, axis))
        stack = _interval_max_clique(pool, axis)
        pool = [b for b in pool if b.id in stack]
    ids = _interval_mis(pool, 0)
    for option in reversed(upper):
        if len(option) >= len(ids):
            ids = option
    ids = sorted(ids)
    if target is None:
        return Extraction(tuple(ids), False)
    if len(ids) >= target:
        return Extraction(tuple(ids[:target]), False)
    return Extraction(tuple(ids), True)


@dataclass(frozen=True)
class ProperColoring:
    """Coloring certificate: proper on the host graph, palette within the
    derived bound of ``report``."""

    coloring: Coloring
    report: BoundReport


@dataclass(frozen=True)
class InducedTree:
    """Induced-copy certificate: tree vertex -> box id, exhaustively checkable."""

    tree: RootedTree
    mapping: Mapping[int, int]
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
    by_id = {b.id: b for b in boxes}
    big = emb.tree
    r = big.depth()
    parent: list[int | None] = [None]
    mapping = {0: emb.phi[big.root]}
    frontier = [(0, big.root)]  # (new vertex, big-tree vertex)
    for _ in range(r):
        next_frontier = []
        for new_v, big_v in frontier:
            kids = big.children[big_v]
            ext = extract_independent([by_id[emb.phi[c]] for c in kids], target=k)
            if ext.shortfall:
                raise _ChildShortfall(
                    f"only {len(ext.ids)} disjoint children of tree vertex "
                    f"{big_v}, needed {k}; contradicts the containment bound"
                )
            chosen_set = set(ext.ids)
            for c in kids:
                if emb.phi[c] in chosen_set:
                    parent.append(new_v)
                    nv = len(parent) - 1
                    mapping[nv] = emb.phi[c]
                    next_frontier.append((nv, c))
        frontier = next_frontier
    tree = complete_kary_tree(r, k)
    if tree.n != len(parent):
        raise InternalInvariantError("pruned tree has wrong size")
    cert = InducedTree(tree, mapping, r, k)
    problem = _induced_tree_violation(cert, boxes)
    if problem:
        raise InternalInvariantError(f"pruned certificate not induced: {problem}")
    return cert


def _induced_tree_violation(cert: InducedTree, boxes: Sequence[Box]) -> str | None:
    """Pairwise check that the mapping is an induced copy; None when clean."""
    by_id = {b.id: b for b in boxes}
    t = cert.tree
    if set(cert.mapping) != set(range(t.n)):
        return "mapping does not cover the tree vertices"
    if len(set(cert.mapping.values())) != t.n:
        return "mapping is not injective"
    if any(v not in by_id for v in cert.mapping.values()):
        return "mapping hits an unknown box id"
    tree_edges = t.underlying_edges()
    for u in range(t.n):
        for v in range(u + 1, t.n):
            expected = (u, v) in tree_edges
            actual = intersects(by_id[cert.mapping[u]], by_id[cert.mapping[v]])
            if expected != actual:
                kind = "missing adjacency" if expected else "extra adjacency"
                return f"{kind} between tree vertices {u} and {v}"
    return None


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
    single-vertex tree (any box is one).

    The host graph comes from one sweep. In d >= 2, when the tree has at
    most as many vertices |T| as the host graph's maximum degree, its
    edges are classified and decomposed, and the pattern digraphs with arcs
    are searched in order until one embeds the tree. Failing that, and in
    d = 1, the host graph is colored smallest-last. The bound is built
    only for that coloring: in d = 1 interval graphs are chordal, so the
    palette is omega and keys the bound.
    """
    if not boxes:
        raise ValueError("empty box collection")
    if r < 0 or k < 1:
        raise ValueError("need r >= 0 and k >= 1")
    if omega_bound is not None and omega_bound < 1:
        raise ValueError("omega bound must be positive")
    d = boxes[0].dim
    g = intersection_graph(boxes)  # checks the ids are 0..n-1

    if r == 0:
        cert = InducedTree(RootedTree([None]), {0: 0}, 0, k)
        problem = _induced_tree_violation(cert, boxes)
        if problem:
            raise InternalInvariantError(problem)
        return cert

    w = None
    if d >= 2:
        w = omega_bound if omega_bound is not None else omega(g)
        branching = k**d * w
        # a pattern out-degree is at most the host degree, so when that is
        # below |T| every pattern peels out whole in round 1 and none is searched
        if _tree_fits(r, branching, max(map(len, g.adj))):
            big_tree = complete_kary_tree(r, branching)
            for pd in decompose(boxes, g):
                result = find_path_induced_tree(
                    pd.digraph, g, big_tree, host_clique_number=w
                )
                if isinstance(result, CalmEmbedding):
                    try:
                        return prune_children(result, boxes, k)
                    except _ChildShortfall as exc:
                        if omega_bound is None:
                            raise
                        # with the true clique number the children always suffice
                        raise CalmSearchError(str(exc)) from None

    # at most Delta + 1 <= n colors; d >= 2 and |T| >= 2 put the bound
    # (2 r |T| w)^(4^d) at 4^16 or more, and in d = 1 the palette is omega
    coloring = smallest_last_coloring(g.adj)
    report = _writable_bound(d, r, k, coloring.palette_size if w is None else w)
    if not coloring.is_proper_on(g):
        raise InternalInvariantError("smallest-last coloring improper on the host graph")
    if coloring.palette_size > report.derived_bound:
        raise InternalInvariantError(
            f"smallest-last coloring: palette {coloring.palette_size} exceeds "
            f"derived bound {report.derived_bound}"
        )
    return ProperColoring(coloring, report)


def certificate_to_json(cert: Certificate) -> str:
    """Canonical single-line JSON; byte-stable for identical certificates."""
    if isinstance(cert, ProperColoring):
        limit = sys.get_int_max_str_digits()
        bound = cert.report.derived_bound
        if limit and bound >= 10**limit:
            raise ValueError(_bound_too_long(limit))
        payload = {
            "kind": "coloring",
            "palette": cert.coloring.palette_size,
            "bound": bound,
            "colors": {str(v): c for v, c in cert.coloring.colors.items()},
        }
    else:
        payload = {
            "kind": "induced_tree",
            "r": cert.r,
            "k": cert.k,
            "map": {str(v): b for v, b in cert.mapping.items()},
        }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _int_keyed(entries: dict, label: str) -> dict[int, int]:
    """Decode a JSON object with canonical decimal keys and integer values.

    A key must read back as itself (``"1"``, not ``"01"``, ``"+1"`` or
    ``"1_0"``), so no two keys can name the same box.
    """
    out: dict[int, int] = {}
    for key, value in entries.items():
        if type(value) is not int:
            raise ValueError(f"{label} values must be integers")
        try:
            box_id = int(key)
        except (TypeError, ValueError):
            box_id = None
        if box_id is None or str(box_id) != key:
            raise ValueError(f"{label} keys must be decimal ids, got {key!r}")
        out[box_id] = value
    return out


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json.loads`` object hook: a repeated key is an error, not an update."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"certificate repeats the key {key!r}")
        obj[key] = value
    return obj


def parse_certificate(text: str) -> dict:
    """Parse and schema-check a certificate; ValueError on malformed input."""
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad certificate JSON: {exc}") from None
    except RecursionError:
        raise ValueError("bad certificate JSON: nested too deeply") from None
    if not isinstance(payload, dict):
        raise ValueError("certificate must be a JSON object")
    kind = payload.get("kind")
    if kind == "coloring":
        wanted = {"kind", "palette", "bound", "colors"}
        if set(payload) != wanted:
            raise ValueError(f"coloring certificate needs keys {sorted(wanted)}")
        if type(payload["palette"]) is not int or type(payload["bound"]) is not int:
            raise ValueError("palette and bound must be integers")
        if not isinstance(payload["colors"], dict):
            raise ValueError("colors must be an object")
        payload["colors"] = _int_keyed(payload["colors"], "colors")
        return payload
    if kind == "induced_tree":
        wanted = {"kind", "r", "k", "map"}
        if set(payload) != wanted:
            raise ValueError(f"induced-tree certificate needs keys {sorted(wanted)}")
        if type(payload["r"]) is not int or type(payload["k"]) is not int:
            raise ValueError("r and k must be integers")
        if payload["r"] < 0 or payload["k"] < 1:
            raise ValueError("need r >= 0 and k >= 1")
        if not isinstance(payload["map"], dict):
            raise ValueError("map must be an object")
        payload["map"] = _int_keyed(payload["map"], "map")
        return payload
    raise ValueError("certificate kind must be 'coloring' or 'induced_tree'")


def verify_certificate(boxes: Sequence[Box], payload: dict) -> tuple[bool, str]:
    """Re-verify a parsed certificate against the boxes, class by class.

    Returns (ok, message); a mismatched vertex set raises ValueError since
    that is an input error rather than a refutation.
    """
    n = len(boxes)
    if payload["kind"] == "coloring":
        colors: dict[int, int] = payload["colors"]
        if set(colors) != set(range(n)):
            raise ValueError("certificate colors do not cover the box ids")
        palette = payload["palette"]
        bad = next((v for v, c in colors.items() if not 0 <= c < palette), None)
        if bad is not None:
            return False, f"color of box {bad} outside the stated palette"
        if palette > payload["bound"]:
            return False, (
                f"palette {palette} exceeds the stated bound {payload['bound']}"
            )
        if sorted(b.id for b in boxes) != list(range(n)):
            raise ValueError("box ids must be 0..n-1")
        # one sweep pairs only boxes of one color, and only the smallest
        # pair of each batch is kept: a large color class costs no memory
        clash = min((sorted((j, min(hits))) for j, hits in _sweep(boxes, colors)), default=None)
        if clash is not None:
            u, v = clash
            return False, f"adjacent boxes {u} and {v} share color {colors[u]}"
        return True, f"proper coloring with {palette} colors within bound"
    r, k = payload["r"], payload["k"]
    if not _tree_fits(r, k, n):
        raise ValueError("certificate tree has more vertices than there are boxes")
    tree = complete_kary_tree(r, k)
    mapping: dict[int, int] = payload["map"]
    if set(mapping) != set(range(tree.n)):
        raise ValueError(
            f"certificate map must cover tree vertices 0..{tree.n - 1}"
        )
    if any(not 0 <= b < n for b in mapping.values()):
        raise ValueError("certificate map hits a box id out of range")
    cert = InducedTree(tree, mapping, r, k)
    problem = _induced_tree_violation(cert, boxes)
    if problem:
        return False, problem
    return True, f"induced depth-{r} {k}-ary tree on {tree.n} boxes"
