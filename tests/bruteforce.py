"""Independent exhaustive reference implementations used only by tests.

Everything here is written the dumbest defensible way (subset scans and
backtracking) so that agreement with the package's solvers is meaningful.
Nothing imports from the package except plain data types, and the box-file
reference, which shares the package's reader of one token and its quoting
of long text.
"""

from __future__ import annotations

import json

from itertools import combinations, permutations, product


def is_clique(adj: dict[int, set[int]], verts: tuple[int, ...]) -> bool:
    return all(v in adj[u] for u, v in combinations(verts, 2))


def is_independent(adj: dict[int, set[int]], verts: tuple[int, ...]) -> bool:
    return all(v not in adj[u] for u, v in combinations(verts, 2))


def adjacency(n: int, edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_max_degree(n: int, edges) -> int:
    return max(len(near) for near in adjacency(n, edges).values())


def brute_omega(n: int, edges) -> int:
    adj = adjacency(n, edges)
    for size in range(n, 0, -1):
        for verts in combinations(range(n), size):
            if is_clique(adj, verts):
                return size
    return 0


def brute_interval_depth(intervals: list[tuple]) -> int:
    """Most closed intervals through one point. The deepest point can be
    taken at some interval's left end, so only those points are tried."""
    return max(
        (sum(lo <= x <= hi for lo, hi in intervals) for x, _ in intervals), default=0
    )


def brute_extract_independent(boxes: dict[int, tuple]) -> tuple[int, ...]:
    """The containment-bound extraction written recursively, one axis per
    call, as its sorted ids. ``boxes`` maps an id to its per-axis (lo, hi)
    pairs.

    The last axis's greedy independent set (by right end, then id) wins
    when it is at least as large as what the recursion finds among the
    intervals through that axis's first deepest point, projected to the
    axes below.
    """

    def extract(boxes: dict[int, tuple]) -> list[int]:
        last = {i: sides[-1] for i, sides in boxes.items()}
        greedy: list[int] = []
        for i in sorted(last, key=lambda i: (last[i][1], i)):
            if not greedy or last[i][0] > last[greedy[-1]][1]:
                greedy.append(i)
        if len(next(iter(boxes.values()))) == 1:
            return greedy
        depth = brute_interval_depth(list(last.values()))
        point = min(
            lo for lo, _ in last.values()
            if sum(a <= lo <= b for a, b in last.values()) == depth
        )
        stack = {i: boxes[i][:-1] for i, (lo, hi) in last.items() if lo <= point <= hi}
        below = extract(stack)
        return greedy if len(greedy) >= len(below) else below

    return tuple(sorted(extract(boxes)))


def brute_alpha(n: int, edges) -> int:
    adj = adjacency(n, edges)
    for size in range(n, 0, -1):
        for verts in combinations(range(n), size):
            if is_independent(adj, verts):
                return size
    return 0


def brute_chi(n: int, edges) -> int:
    if n == 0:
        return 0
    adj = adjacency(n, edges)

    def colorable(k: int) -> bool:
        colors: dict[int, int] = {}

        def place(v: int) -> bool:
            if v == n:
                return True
            used = {colors[u] for u in adj[v] if u in colors}
            cap = min(k, max(colors.values(), default=-1) + 2)
            for c in range(cap):
                if c not in used:
                    colors[v] = c
                    if place(v + 1):
                        return True
                    del colors[v]
            return False

        return place(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def all_directed_paths(n: int, arcs: set[tuple[int, int]]):
    """Every directed path (as a vertex tuple, length >= 1)."""
    out: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in arcs:
        out[u].append(v)

    def extend(path: list[int]):
        yield tuple(path)
        for w in out[path[-1]]:
            if w not in path:
                path.append(w)
                yield from extend(path)
                path.pop()

    for v in range(n):
        yield from extend([v])


def topological_order(n: int, arcs) -> list[int] | None:
    """Kahn's algorithm, sources in id order and successors sorted; None
    when a cycle exists."""
    indeg = [0] * n
    out: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in arcs:
        out[u].append(v)
        indeg[v] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    for v in order:
        for w in sorted(out[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    return order if len(order) == n else None


def brute_modest(n: int, arcs: set[tuple[int, int]], host_edges) -> bool:
    """Every directed path whose endpoints carry an arc spans a host clique."""
    host = adjacency(n, host_edges)
    for path in all_directed_paths(n, arcs):
        if len(path) < 2:
            continue
        if (path[0], path[-1]) in arcs and not is_clique(host, path):
            return False
    return True


def brute_divergent(n: int, arcs: set[tuple[int, int]], host_edges) -> bool:
    """Paths leaving one vertex through two distinct non-adjacent
    out-neighbors must end in distinct non-adjacent vertices."""
    host = adjacency(n, host_edges)
    by_start: dict[int, list[tuple[int, ...]]] = {}
    for p in all_directed_paths(n, arcs):
        by_start.setdefault(p[0], []).append(p)
    for u in range(n):
        starts = [w for (a, w) in arcs if a == u]
        for x1 in starts:
            for y1 in starts:
                if x1 == y1 or y1 in host[x1]:
                    continue
                for p in by_start.get(x1, []):
                    for q in by_start.get(y1, []):
                        if p[-1] == q[-1] or q[-1] in host[p[-1]]:
                            return False
    return True


def brute_is_path_induced(arcs, tree_parent, phi: dict[int, int]) -> bool:
    """Whether no two images of tree vertices at tree distance >= 2 along
    one root path are adjacent in the underlying graph of ``arcs``."""
    underlying = {frozenset(arc) for arc in arcs}
    for v in range(len(tree_parent)):
        path = [v]  # v, its parent, its grandparent, ...
        while tree_parent[path[-1]] is not None:
            path.append(tree_parent[path[-1]])
        for a in path[2:]:
            if frozenset((phi[a], phi[v])) in underlying:
                return False
    return True


def brute_induced_copy(n: int, edges, tree_parent) -> dict[int, int] | None:
    """Induced copy of a rooted tree via raw injections, or None."""
    adj = adjacency(n, edges)
    t = len(tree_parent)
    tree_edges = {
        (min(v, tree_parent[v]), max(v, tree_parent[v]))
        for v in range(1, t)
    }
    for image in permutations(range(n), t):
        ok = True
        for a in range(t):
            for b in range(a + 1, t):
                want = (a, b) in tree_edges
                have = image[b] in adj[image[a]]
                if want != have:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return dict(enumerate(image))
    return None


def find_induced_copy(g, t) -> dict[int, int] | None:
    """First induced copy of rooted tree ``t``'s underlying graph in graph
    ``g``, or None.

    Backtracks over the tree in preorder: a candidate must be adjacent to
    its parent's image and non-adjacent to every other mapped image, which
    checks each vertex pair exactly once. Faster than
    ``brute_induced_copy`` and checked against it, so tests can search
    graphs of tens of vertices.
    """
    order = t.preorder()
    image: dict[int, int] = {}
    used: set[int] = set()

    def place(idx: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        p = t.parent[v]
        candidates = range(g.n) if p is None else sorted(g.adj[image[p]])
        for w in candidates:
            if w in used:
                continue
            ok = all(
                (tv == p) == g.adjacent(w, image[tv])
                for tv in image
                if tv != v
            )
            if not ok:
                continue
            image[v] = w
            used.add(w)
            if place(idx + 1):
                return True
            used.discard(w)
            del image[v]
        return False

    return dict(image) if place(0) else None


def brute_boxes_from_rows(rows) -> list:
    """Row-by-row build of ``boxes_from_rows``: each row's width is checked,
    then its box is built through ``Interval`` and ``Box``, so the first
    fault in row order raises."""
    from boxforest.geometry import Box, Interval

    out = []
    width = None
    for i, row in enumerate(rows):
        if len(row) < 2 or len(row) % 2:
            raise ValueError(f"row {i}: expected an even number of bounds, got {len(row)}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"row {i}: expected {width} bounds, got {len(row)}")
        out.append(Box(i, tuple(map(Interval, row[0::2], row[1::2]))))
    return out


def brute_load_boxes(path) -> list:
    """Row-by-row reader of ``load_boxes``, text and JSON: each text row's
    width is checked, then each of its tokens is read by ``_parse_number``,
    and the rows go to ``brute_boxes_from_rows``."""
    from boxforest.geometry import _parse_number, _quote

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return _brute_boxes_from_json(text.lstrip())
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty box file")
    try:
        d, n = map(int, lines[0].split())
    except ValueError:
        raise ValueError(f"bad header {_quote(lines[0])}: expected two integers 'd n'") from None
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if n < 1:
        raise ValueError("box count must be at least 1")
    if len(lines) - 1 != n:
        raise ValueError(f"header {_quote(lines[0])} does not match the {len(lines) - 1} box rows")
    rows = []
    for i, ln in enumerate(lines[1:]):
        tokens = ln.split()
        if len(tokens) != 2 * d:
            raise ValueError(
                f"row {i} {_quote(ln)}: expected 2d bounds for header {_quote(lines[0])}"
            )
        rows.append([_parse_number(t) for t in tokens])
    return brute_boxes_from_rows(rows)


_JSON_TYPE_NAMES = {list: "array", dict: "object", bool: "boolean", type(None): "null"}


def _brute_boxes_from_json(text: str) -> list:
    from boxforest.geometry import _parse_number

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON box file: {exc}") from None
    except RecursionError:
        raise ValueError("bad JSON box file: nested too deeply") from None
    if not isinstance(payload, dict) or "boxes" not in payload:
        raise ValueError("JSON box file needs a 'boxes' key")
    entries = payload["boxes"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("'boxes' must be a nonempty list")
    rows = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, list) or not entry:
            raise ValueError(f"box {i}: expected a list of [lo, hi] pairs")
        flat = []
        for pair in entry:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"box {i}: each axis must be a [lo, hi] pair")
            for v in pair:
                kind = type(v)
                if kind is int:
                    flat.append(v)
                elif kind in (float, str):
                    flat.append(_parse_number(str(v)))
                else:
                    raise ValueError(
                        f"box {i}: a bound must be a number or a numeric string, "
                        f"not JSON {_JSON_TYPE_NAMES[kind]}"
                    )
        rows.append(flat)
    return brute_boxes_from_rows(rows)


def brute_normalize(boxes) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Per-axis ranks by sorting ``(value, box id, 0 for lo / 1 for hi)``
    records, as ``(id, ((lo, hi), ...))`` per box in input order. Takes
    anything with ``.id`` and ``.sides`` of ``.lo``/``.hi``."""
    d = len(boxes[0].sides)
    ranked = {b.id: [[0, 0] for _ in range(d)] for b in boxes}
    for axis in range(d):
        records = []
        for b in boxes:
            side = b.sides[axis]
            records.append((side.lo, b.id, 0))
            records.append((side.hi, b.id, 1))
        records.sort()
        for rank, (_, bid, which) in enumerate(records):
            ranked[bid][axis][which] = rank
    return [(b.id, tuple(map(tuple, ranked[b.id]))) for b in boxes]


# All-pairs references for the axis-0 pair sweep and the heap peeler. A box
# is a tuple of per-axis (lo, hi) pairs; box ids are list positions.


def overlap_letter(a: tuple, b: tuple) -> str | None:
    """Overlap type of interval a relative to b (distinct endpoints), or None."""
    (lo1, hi1), (lo2, hi2) = a, b
    if hi1 < lo2 or hi2 < lo1:
        return None
    if lo1 < lo2:
        return "C" if hi2 < hi1 else "L"
    return "c" if hi1 < hi2 else "R"


def brute_patterns(sides: list[tuple]) -> dict[tuple[int, int], str]:
    """Pattern string of u relative to v for every intersecting pair u < v."""
    out = {}
    for u, v in combinations(range(len(sides)), 2):
        letters = [overlap_letter(a, b) for a, b in zip(sides[u], sides[v])]
        if None not in letters:
            out[(u, v)] = "".join(letters)
    return out


def brute_first_clash(sides: list[tuple], colors: list[int]) -> tuple[int, int] | None:
    """The smallest intersecting pair u < v whose boxes share a color, from a
    scan of all pairs; None when the coloring is proper."""
    return next(
        ((u, v) for u, v in sorted(brute_patterns(sides)) if colors[u] == colors[v]),
        None,
    )


def brute_decompose(sides: list[tuple]) -> dict[str, set[tuple[int, int]]]:
    """Arc sets of the nonempty pattern digraphs, keyed by pattern string."""
    mirror = str.maketrans("CcLR", "cCRL")
    arcs: dict[str, set[tuple[int, int]]] = {}
    for (u, v), pattern in brute_patterns(sides).items():
        arcs.setdefault(pattern, set()).add((u, v))
        arcs.setdefault(pattern.translate(mirror), set()).add((v, u))
    return arcs


def brute_degeneracy_coloring(n: int, edges, bound: int) -> dict[int, int] | None:
    """Peel the smallest vertex of remaining degree < bound, rescanning the
    sorted survivors each step; greedy-color the reversed order."""
    adj = adjacency(n, edges)
    degree = {v: len(adj[v]) for v in range(n)}
    alive = set(range(n))
    order = []
    while alive:
        pick = next((v for v in sorted(alive) if degree[v] < bound), None)
        if pick is None:
            return None
        alive.discard(pick)
        order.append(pick)
        for w in adj[pick]:
            if w in alive:
                degree[w] -= 1
    colors: dict[int, int] = {}
    for v in reversed(order):
        used = {colors[w] for w in adj[v] if w in colors}
        colors[v] = next(c for c in range(bound) if c not in used)
    return colors


def brute_peel_layers(n: int, arcs, k: int, m: int) -> list[set[int]] | None:
    """Peel m - 1 rounds of vertices with out-degree < k in the remainder;
    None when vertices survive (a grading), else the m - 1 layers."""
    out: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in arcs:
        out[u].add(v)
    remaining = set(range(n))
    layers = []
    for _ in range(m - 1):
        peeled = {v for v in remaining if len(out[v] & remaining) < k}
        layers.append(peeled)
        remaining -= peeled
    return None if remaining else layers


def check_layering(n: int, arcs, k: int, m: int, layers) -> None:
    """Assert that ``layers`` partition 0..n-1, equal the layers of
    ``brute_peel_layers``, and that every vertex of a round's layer has
    fewer than k out-neighbors among the vertices left at that round."""
    assert sum(map(len, layers)) == n
    assert set().union(*layers) == set(range(n))
    assert [set(layer) for layer in layers] == brute_peel_layers(n, arcs, k, m)
    out: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in arcs:
        out[u].add(v)
    remaining = set(range(n))
    for layer in layers:
        assert all(len(out[v] & remaining) < k for v in layer)
        remaining -= layer


def brute_peel_coloring(n: int, arcs, k: int, m: int) -> dict[int, int] | None:
    """The paper's coloring of a peel: None when vertices survive (a
    grading). Otherwise each layer's arcs are filtered out of the full arc
    list, relabeled to 0.. in id order, and colored by the sorted-scan
    peeler with 2k - 1 colors, each layer's palette placed after the
    previous ones. Raises AssertionError when a layer needs more."""
    layers = brute_peel_layers(n, arcs, k, m)
    if layers is None:
        return None
    colors: dict[int, int] = {}
    offset = 0
    for layer in layers:
        if not layer:
            continue
        order = sorted(layer)
        index = {v: i for i, v in enumerate(order)}
        local = [(index[u], index[v]) for u, v in arcs if u in layer and v in layer]
        sub = brute_degeneracy_coloring(len(order), local, 2 * k - 1)
        if sub is None:
            raise AssertionError("a layer of out-degree < k failed to color")
        for i, v in enumerate(order):
            colors[v] = offset + sub[i]
        offset += max(sub.values()) + 1
    return colors


def brute_smallest_last_coloring(n: int, edges) -> dict[int, int]:
    """Remove the smallest vertex of minimum remaining degree, rescanning
    the sorted survivors each step; greedy-color the reversed order."""
    adj = adjacency(n, edges)
    alive = set(range(n))
    order = []
    while alive:
        pick = min(sorted(alive), key=lambda v: len(adj[v] & alive))
        alive.discard(pick)
        order.append(pick)
    colors: dict[int, int] = {}
    for v in reversed(order):
        used = {colors[w] for w in adj[v] if w in colors}
        colors[v] = next(c for c in range(n) if c not in used)
    return colors


def brute_product_coloring(sides: list[tuple], size: int, m: int) -> dict[int, int] | None:
    """The paper's product coloring from the all-pairs decomposition: every
    pattern is peeled with k = ``size`` for m - 1 rounds, and the
    per-pattern colorings combine into tuples numbered by first appearance
    in id order. None when some pattern keeps a grading."""
    n, d = len(sides), len(sides[0])
    arcs = brute_decompose(sides)
    pieces = []
    for letters in product("CcLR", repeat=d):
        piece = brute_peel_coloring(n, arcs.get("".join(letters), ()), size, m)
        if piece is None:
            return None
        pieces.append(piece)
    index: dict[tuple[int, ...], int] = {}
    return {v: index.setdefault(tuple(p[v] for p in pieces), len(index)) for v in range(n)}


def brute_coloring_certificate(
    sides: list[tuple], r: int, k: int, omega: int | None = None
) -> str | None:
    """The coloring certificate of the dichotomy for d >= 2 and r >= 1, from
    all-pairs scans; None when some pattern keeps a grading (the dichotomy
    then answers with a tree).

    |T| is the size of the complete (k^d omega)-ary depth-r tree. Where it
    exceeds the host graph's maximum degree no pattern keeps a grading;
    elsewhere the paper's product coloring, which peels every pattern for
    max(1, r omega - 1) rounds, exists exactly when none does. Every
    coloring certificate colors the host graph smallest-last. ``omega`` is
    the clique number, found by subset scan when not given: pass it for
    instances too large to scan.
    """
    n, d = len(sides), len(sides[0])
    edges = brute_patterns(sides)
    w = brute_omega(n, edges) if omega is None else omega
    branching = k**d * w
    size = sum(branching**i for i in range(r + 1))
    if size <= brute_max_degree(n, edges):
        if brute_product_coloring(sides, size, max(2, r * w)) is None:
            return None
    colors = brute_smallest_last_coloring(n, edges)
    payload = {
        "kind": "coloring",
        "palette": max(colors.values()) + 1,
        "colors": [colors[v] for v in range(n)],
        "r": r,
        "k": k,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
