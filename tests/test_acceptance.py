"""Acceptance gate: the eight headline guarantees at full stated scale.

Each criterion is one test; `pytest -v` therefore prints one pass/fail
line per criterion, and each test additionally prints a `[PASS]` summary
with the witnessed counts when it succeeds.
"""

from __future__ import annotations

import random
from itertools import combinations

from boxforest import (
    Grading,
    Layering,
    ProperColoring,
    alpha,
    certificate_to_json,
    chi,
    chi_bound,
    color_or_find_forest,
    complete_kary_tree,
    decompose,
    embed_calm_tree,
    extract_independent,
    intersection_graph,
    intersects,
    normalize,
    omega,
    parse_certificate,
    peel_grading,
    random_boxes,
    tree_vertex_count,
    verify_basic,
    verify_certificate,
)
from bruteforce import (
    brute_alpha,
    brute_chi,
    brute_interval_depth,
    brute_omega,
    brute_peel_coloring,
    check_layering,
    find_induced_copy,
)
from lemmas import calm_precondition_error, grading_error, verify_calm


def _passed(num: int, detail: str) -> None:
    print(f"[PASS] criterion {num}: {detail}")


def test_criterion_1_pattern_digraphs_are_acyclic_modest_divergent():
    rng = random.Random(101)
    instances = 0
    digraphs = 0
    while instances < 200:
        d = instances % 3 + 1
        n = rng.randint(1, 12)
        boxes = random_boxes(n, d, seed=rng.randrange(10**9))
        g = intersection_graph(boxes)
        for pd in decompose(boxes, g):
            report = verify_basic(pd, g)
            assert report.acyclic is True, (d, n, str(pd.pattern), report)
            assert report.modest is True, (d, n, str(pd.pattern), report)
            assert report.divergent is True, (d, n, str(pd.pattern), report)
            digraphs += 1
        instances += 1
    _passed(1, f"{instances} instances, {digraphs} pattern digraphs checked")


def test_criterion_2_containment_bound_and_extraction():
    rng = random.Random(202)
    instances = 0
    while instances < 200:
        d = instances % 3 + 1
        n = rng.randint(1, 25)
        boxes = random_boxes(n, d, seed=rng.randrange(10**9))
        g = intersection_graph(boxes)
        a = alpha(g)
        w = omega(g)
        assert n <= a**d * w, (d, n, a, w)
        need = 1
        while need**d * w < n:
            need += 1
        found = extract_independent(boxes)
        assert len(found) >= need, (d, n, w, need, found)
        picked = [boxes[i] for i in found]
        for x, y in combinations(picked, 2):
            assert not intersects(x, y), (d, n, x.id, y.id)
        instances += 1
    _passed(2, f"{instances} instances satisfy the bound and extraction size")


def test_criterion_3_gradings_calm_embeddings_and_layerings():
    rng = random.Random(303)
    digraphs = 0
    gradings = 0
    embeddings = 0
    layerings = 0
    while digraphs < 100:
        d = rng.randint(1, 2)
        n = rng.randint(2, 12)
        boxes = random_boxes(n, d, seed=rng.randrange(10**9))
        for pd in decompose(boxes, intersection_graph(boxes)):
            dg = pd.digraph
            assert dg.arcs  # decompose lists only the patterns with arcs
            digraphs += 1
            for k, m, shape in ((2, 2, (1, 1)), (3, 3, (1, 2))):
                result = peel_grading(dg, k, m)
                if isinstance(result, Grading):
                    assert grading_error(dg, result) is None
                    gradings += 1
                    w = brute_omega(dg.n, dg.arcs)
                    t = complete_kary_tree(*shape)
                    # where the lemma's preconditions hold, its embedding is calm
                    if calm_precondition_error(dg, result, t, w) is None:
                        emb = embed_calm_tree(dg, result, t)
                        assert verify_calm(dg, result, emb)
                        embeddings += 1
                else:
                    # the layers partition the digraph as the all-pairs peel
                    # does, and the paper colors them within 2k - 1 colors
                    # each (brute_peel_coloring raises otherwise)
                    assert isinstance(result, Layering)
                    check_layering(dg.n, dg.arcs, k, m, result.layers)
                    colors = brute_peel_coloring(dg.n, dg.arcs, k, m)
                    assert all(colors[u] != colors[v] for u, v in dg.arcs)
                    assert max(colors.values()) < 2 * k * (m - 1)
                    layerings += 1
    assert embeddings >= 1
    _passed(
        3,
        f"{digraphs} digraphs with arcs: {gradings} gradings, "
        f"{embeddings} verified calm embeddings, {layerings} layerings",
    )


def star_boxes(children: int):
    """One big box with pairwise-disjoint boxes inside it."""
    from boxforest import boxes_from_rows

    top = 3 * children
    rows = [[0, top, 0, top]]
    for i in range(children):
        rows.append([3 * i + 1, 3 * i + 2, 3 * i + 1, 3 * i + 2])
    return normalize(boxes_from_rows(rows))


def test_criterion_4_dichotomy_certificates_verify():
    rng = random.Random(404)
    shapes = ((1, 1), (1, 2), (2, 2))
    instances = 0
    colorings = 0
    trees = 0
    while instances < 100:
        d = instances % 2 + 1
        r, k = shapes[instances % 3]
        if instances % 10 == 0:
            # structured instances keep the induced-tree branch exercised
            boxes = star_boxes(11)
        else:
            n = rng.randint(1, 16)
            boxes = random_boxes(n, d, seed=rng.randrange(10**9))
        cert = color_or_find_forest(boxes, r=r, k=k)
        payload = parse_certificate(certificate_to_json(cert))
        ok, msg = verify_certificate(boxes, payload)
        assert ok, (d, n, r, k, msg)
        if isinstance(cert, ProperColoring):
            colorings += 1
            w = omega(intersection_graph(boxes))
            assert cert.coloring.palette_size <= chi_bound(boxes[0].dim, r, k, w)
        else:
            trees += 1
            g = intersection_graph(boxes)
            copy = find_induced_copy(g, complete_kary_tree(r, k))
            assert copy is not None, (d, n, r, k)
        instances += 1
    assert trees >= 1 and colorings >= 1
    _passed(
        4,
        f"{instances} instances: {colorings} colorings, {trees} induced "
        f"trees, every certificate re-verified",
    )


def test_criterion_5_interval_instances_color_optimally():
    # up to 20 intervals the exact oracles confirm omega and chi; up to 300
    # the deepest point of a brute sweep does, since interval graphs are
    # perfect and a clique of intervals shares a point
    rng = random.Random(505)
    instances = 0
    largest = 0
    while instances < 100:
        n = rng.randint(1, 20) if instances < 50 else rng.randint(21, 300)
        boxes = random_boxes(n, 1, seed=rng.randrange(10**9))
        cert = color_or_find_forest(boxes, r=1, k=1)
        assert isinstance(cert, ProperColoring)
        depth = brute_interval_depth([(b.sides[0].lo, b.sides[0].hi) for b in boxes])
        assert cert.coloring.palette_size == depth, (n, depth)
        g = intersection_graph(boxes)
        if n <= 20:
            assert depth == omega(g) == chi(g), n
        assert cert.coloring.is_proper_on(g)
        ok, msg = verify_certificate(boxes, parse_certificate(certificate_to_json(cert)))
        assert ok, msg
        largest = max(largest, n)
        instances += 1
    _passed(
        5,
        f"{instances} interval instances of up to {largest} boxes colored "
        f"with exactly omega colors",
    )


def test_criterion_6_oracles_match_independent_bruteforce():
    rng = random.Random(606)
    graphs = 0
    while graphs < 100:
        n = rng.randint(0, 10)
        p = rng.choice((0.2, 0.5, 0.8))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        from boxforest import Graph

        g = Graph(n, edges)
        assert omega(g) == brute_omega(n, edges)
        assert alpha(g) == brute_alpha(n, edges)
        assert chi(g) == brute_chi(n, edges)
        graphs += 1
    _passed(6, f"{graphs} graphs agree on omega, alpha, and chi")


def test_criterion_7_bound_arithmetic():
    spots = {
        (1, 1, 1, 1): (16, 256),
        (1, 1, 2, 1): (256, 1296),
    }
    # the paper's stated bound, in the raw branching k
    def stated_bound(d, r, k, w):
        return (2 * r * k**d * w**2) ** (4**d)

    for (d, r, k, w), (stated, derived) in spots.items():
        assert stated_bound(d, r, k, w) == stated
        assert chi_bound(d, r, k, w) == derived
    checked = 0
    dominated = 0
    for d in (1, 2, 3):
        for r in (1, 2, 3, 4):
            for k in (1, 2, 3):
                for w in (1, 2, 3, 4):
                    derived = chi_bound(d, r, k, w)
                    size = tree_vertex_count(r, k**d * w)
                    assert derived == (2 * r * size * w) ** (4**d)
                    checked += 1
                    if k**d * w >= 2:
                        assert derived >= stated_bound(d, r, k, w)
                        dominated += 1
    _passed(
        7,
        f"{checked} parameter points match the closed forms, "
        f"{dominated} satisfy derived >= stated",
    )


def test_criterion_8_certificates_are_deterministic():
    rng = random.Random(808)
    compared = 0
    for _ in range(6):
        d = rng.randint(1, 2)
        n = rng.randint(4, 14)
        r, k = rng.choice(((1, 1), (1, 2), (2, 2)))
        boxes = random_boxes(n, d, seed=rng.randrange(10**9))
        first = certificate_to_json(color_or_find_forest(boxes, r=r, k=k))
        again = certificate_to_json(color_or_find_forest(boxes, r=r, k=k))
        assert first == again, (d, n, r, k)
        compared += 1
    _passed(8, f"{compared} instances byte-identical across reruns")
