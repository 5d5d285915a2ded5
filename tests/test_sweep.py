"""The pair sweep and the heap peeler against all-pairs references.

Also checks that certify and verify sweep once, and that what they derive
from the one sweep (pattern digraphs, host graph, peel layers,
certificates, the first clash a verifier reports) matches references that
copy and rescan everything.
"""

from __future__ import annotations

import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxforest import (
    Box,
    CalmEmbedding,
    Grading,
    Graph,
    InducedTree,
    Layering,
    ProperColoring,
    all_patterns,
    boxes_from_rows,
    burling_like,
    certificate_to_json,
    cli,
    color_or_find_forest,
    decompose,
    degeneracy_coloring,
    embedding,
    geometry,
    graphs,
    grid_disjoint_boxes,
    intersecting_pairs,
    intersection_graph,
    nested_chain_boxes,
    normalize,
    omega,
    oracles,
    parse_certificate,
    patterns,
    peel_grading,
    pipeline,
    random_boxes,
    tree_vertex_count,
    verify_certificate,
)
from boxforest.graphs import intersection_rows, smallest_last_coloring
from bruteforce import (
    brute_coloring_certificate,
    brute_decompose,
    brute_degeneracy_coloring,
    brute_first_clash,
    brute_max_degree,
    brute_omega,
    brute_patterns,
    brute_peel_layers,
    brute_product_coloring,
    brute_smallest_last_coloring,
    check_layering,
)


def random_instance(rng: random.Random, d: int):
    """Normalized boxes with n <= 40; a coarse lattice forces endpoint ties
    into normalize, and a random side cap mixes sparse and dense cases."""
    n = rng.randint(1, 40)
    span = 3 * n
    cap = rng.choice((2, n // 2 + 1, span))
    rows = []
    for _ in range(n):
        row = []
        for _ in range(d):
            lo = rng.randrange(span)
            row.extend((lo, lo + rng.randint(0, cap)))
        rows.append(row)
    return normalize(boxes_from_rows(rows))


def family(name: str):
    if name.startswith("random-d"):
        rng = random.Random(name)
        return [random_instance(rng, int(name[-1])) for _ in range(75)]
    if name == "nested":
        return [nested_chain_boxes(n, d) for n in (1, 2, 7, 20) for d in (1, 2, 3)]
    if name == "grid":
        return [grid_disjoint_boxes(n, d) for n in (1, 5, 30) for d in (1, 2, 3)]
    return [burling_like(level) for level in (1, 2, 3, 4)]


FAMILIES = ["random-d1", "random-d2", "random-d3", "random-d4", "nested", "grid", "burling"]


def plain(boxes) -> list[tuple]:
    return [tuple((s.lo, s.hi) for s in b.sides) for b in boxes]


@pytest.mark.parametrize("name", FAMILIES)
def test_sweep_finds_every_pair_once_with_its_pattern(name):
    for boxes in family(name):
        names = [str(p) for p in all_patterns(boxes[0].dim)]
        pairs = intersecting_pairs(boxes)
        found = {(u, v): names[code] for u, v, code in pairs}
        assert len(found) == len(pairs)
        assert found == brute_patterns(plain(boxes))


@pytest.mark.parametrize("name", FAMILIES)
def test_pattern_digraphs_match_all_pairs_decomposition(name):
    for boxes in family(name):
        want = brute_decompose(plain(boxes))
        pds = decompose(boxes, intersection_graph(boxes))
        got = {str(pd.pattern): set(pd.digraph.arcs) for pd in pds}
        assert got == want  # only the patterns with arcs are listed


@pytest.mark.parametrize("name", FAMILIES)
def test_mirrored_patterns_share_one_adjacency(name):
    for boxes in family(name):
        pds = decompose(boxes, intersection_graph(boxes))
        index = {pd.pattern: c for c, pd in enumerate(pds)}
        for pd in pds:
            dg = pd.digraph
            mirror = pds[index[pd.pattern.mirrored()]].digraph
            assert mirror is not dg
            for v in range(dg.n):
                assert dg.inn[v] is mirror.out[v]
            into = {(u, v) for v in range(dg.n) for u in dg.inn[v]}
            assert into == {(u, v) for u in range(dg.n) for v in dg.out[u]}


@pytest.mark.parametrize("name", FAMILIES)
def test_rows_are_the_host_graph_in_any_listing_order(name):
    # rows are indexed by box id, whatever the listing order; a prefix of a
    # normalized family has distinct endpoints that are not the ranks
    # 0..2n-1, so the endpoints must be sorted by value
    rng = random.Random(name)
    for boxes in family(name):
        shuffled = rng.sample(boxes, len(boxes))
        prefix = boxes[: rng.randint(1, len(boxes))]
        for listing in (boxes, shuffled, prefix):
            g = intersection_graph(listing)
            want = [sum(1 << (g.n - 1 - u) for u in near) for near in g.adj]
            assert intersection_rows(listing) == want


@pytest.mark.parametrize("name", FAMILIES)
def test_heap_peeler_colors_like_the_sorted_scan(name):
    for boxes in family(name):
        g = intersection_graph(boxes)
        top = max((g.degree(v) for v in range(g.n)), default=0) + 2
        for bound in range(1, top):
            want = brute_degeneracy_coloring(g.n, g.edges, bound)
            got = degeneracy_coloring(g.adj, bound)
            assert (got is None) == (want is None), bound
            if got is not None:
                assert dict(enumerate(got.colors)) == want


@pytest.mark.parametrize("name", FAMILIES)
def test_labelled_sweep_keeps_only_pairs_with_one_label(name):
    rng = random.Random(name)
    for boxes in family(name):
        pairs = intersecting_pairs(boxes)
        n = len(boxes)
        for count in (1, 2, 3, n):
            values = rng.sample(range(10 * n), count)
            if count == n:
                labels = dict(zip(range(n), values))
            else:
                labels = {v: rng.choice(values) for v in range(n)}
            want = [p for p in pairs if labels[p[0]] == labels[p[1]]]
            assert sorted(intersecting_pairs(boxes, labels)) == sorted(want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_labels_listed_by_id_match_the_all_pairs_reference(d):
    # verify and certify's self-check pass the sweep a family in id order
    # and the colors as a list by position; ints 0..kinds-1 (one color, all
    # distinct) are used as they are, and a gapped palette or labels that
    # are not ints are renamed. A shuffled listing goes through the public
    # entry, which puts it in id order
    rng = random.Random(d)
    for _ in range(30):
        boxes = random_instance(rng, d)
        n = len(boxes)
        want = brute_patterns(plain(boxes))
        for labels in (
            [rng.choice((0, 3, 7)) for _ in range(n)],
            [0] * n,
            rng.sample(range(n), n),
            [rng.choice(("red", 0, 1.0, True)) for _ in range(n)],
            [rng.choice((0.0, 1.0)) for _ in range(n)],
        ):
            same = {p for p in want if labels[p[0]] == labels[p[1]]}
            batches = geometry._sweep(boxes, labels)
            found = [(min(i, j), max(i, j)) for j, hits in batches for i in hits]
            assert len(found) == len(same)
            assert set(found) == same
            for listing in (boxes, rng.sample(boxes, n)):
                pairs = intersecting_pairs(listing, dict(enumerate(labels)))
                assert len(pairs) == len(same)
                assert {(u, v) for u, v, _ in pairs} == same


def test_a_family_is_put_in_id_order_once():
    # a family already in id order comes back as the same object, with no
    # copy; ids 0..n-1 in another order come back sorted; others raise
    boxes = random_boxes(30, 2, seed=5)
    assert geometry._by_id(boxes) is boxes
    assert geometry._by_id(random.Random(5).sample(boxes, 30)) == boxes
    gapped = [Box(2 * b.id, b.sides) for b in boxes]
    repeated = [*boxes[:-1], Box(0, boxes[-1].sides)]
    for bad in (gapped, repeated, boxes[1:]):
        with pytest.raises(ValueError, match=r"^box ids must be 0\.\.n-1$"):
            geometry._by_id(bad)


def greedy_colors(n: int, pairs) -> list[int]:
    """A proper coloring: each box in id order takes the smallest color
    unused by its earlier neighbors."""
    earlier: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in pairs:
        earlier[v].add(u)
    colors: list[int] = []
    for v in range(n):
        used = {colors[u] for u in earlier[v]}
        colors.append(next(c for c in range(n) if c not in used))
    return colors


def expected_verdict(boxes, colors: list[int]) -> tuple[bool, str]:
    clash = brute_first_clash(plain(boxes), colors)
    if clash is None:
        palette = max(colors) + 1
        return True, f"proper coloring with {palette} color{'' if palette == 1 else 's'} within bound"
    u, v = clash
    return False, f"adjacent boxes {u} and {v} share color {colors[u]}"


@pytest.mark.parametrize("name", FAMILIES)
def test_verify_matches_the_all_pairs_reference(name):
    rng = random.Random(name)
    clashes = 0
    for boxes in family(name):
        n = len(boxes)
        pairs = sorted(brute_patterns(plain(boxes)))
        proper = greedy_colors(n, pairs)
        tampered = list(proper)
        for u, v in rng.sample(pairs, min(3, len(pairs))):
            tampered[v] = tampered[u]
        one_color = [0] * n
        for colors in (proper, tampered, one_color):
            palette = max(colors) + 1
            payload = {"kind": "coloring", "palette": palette, "colors": colors, "r": 1, "k": 1}
            verdict = verify_certificate(boxes, payload)
            assert verdict == expected_verdict(boxes, colors)
            clashes += not verdict[0]
    assert clashes > 0 or name == "grid"


def test_verify_cost_follows_the_color_classes():
    # every pair of these boxes meets (about 1.1M pairs), but no two share a
    # color, so a verifier that walks all intersecting pairs is far too slow
    n = 1500
    boxes = nested_chain_boxes(n, 2)
    payload = {"kind": "coloring", "palette": n, "colors": list(range(n)), "r": 1, "k": 1}
    start = time.perf_counter()
    ok, message = verify_certificate(boxes, payload)
    assert time.perf_counter() - start < 0.25
    assert ok, message


def test_verify_holds_one_clash_not_all():
    # all 19,900 pairs meet and share the one color; only the smallest is
    # reported, so memory must not grow with the number of clashes
    n = 200
    boxes = nested_chain_boxes(n, 2)
    payload = {"kind": "coloring", "palette": 1, "colors": [0] * n, "r": 1, "k": 1}
    tracemalloc.start()
    try:
        ok, message = verify_certificate(boxes, payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (ok, message) == (False, "adjacent boxes 0 and 1 share color 0")
    assert peak < 2000 * n


def raw_rows(rng: random.Random, n: int, d: int, side: tuple[int, int]) -> list[list[int]]:
    """n random boxes in [0, 10^6)^d with sides drawn from ``side``."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(d):
            length = rng.randint(*side)
            lo = rng.randrange(10**6 - length)
            row.extend((lo, lo + length))
        rows.append(row)
    return rows


def cell_instance(name: str):
    """Instances for the sweep's axis-1 cells: many small cells, boxes that
    span all of axis 1, raw coordinates and other dimensions."""
    rng = random.Random(name)
    small = (10**4, 5 * 10**4)  # 1-5 % of the range: many cells
    if name.startswith("small-sides"):
        return normalize(boxes_from_rows(raw_rows(rng, int(name[-3:]), 2, small)))
    if name == "full-span":
        rows = raw_rows(rng, 200, 2, small)
        for row in rng.sample(rows, 4):
            row[2:] = [-1 - rng.randrange(9), 10**6 + rng.randrange(9)]
        return normalize(boxes_from_rows(rows))
    if name == "raw-coordinates":
        # distinct but not normalized: x -> x / 3 - 250 maps ranks to
        # negative values, ints and Fractions mixed; two boxes sit far out,
        # one with a float bound
        ranks = [[x for side in b.sides for x in (side.lo, side.hi)]
                 for b in normalize(boxes_from_rows(raw_rows(rng, 300, 2, small)))]
        rows = [[x // 3 - 250 if x % 3 == 0 else Fraction(x, 3) - 250 for x in row]
                for row in ranks]
        rows += [[10**30, 10**30 + 1, -(10**30), -(10**30) + 5],
                 [-(10**30), 10**30 + 2, -0.5, 10**30]]
        return boxes_from_rows(rows)
    d = int(name[-1])
    return normalize(boxes_from_rows(raw_rows(rng, 150, d, (10**4, 4 * 10**5))))


CELL_CASES = [
    "small-sides-200", "small-sides-500", "full-span", "raw-coordinates", "d1", "d3", "d4"
]


@pytest.mark.parametrize("name", CELL_CASES)
def test_cell_sweep_matches_the_all_pairs_reference(name):
    boxes = cell_instance(name)
    n = len(boxes)
    names = [str(p) for p in all_patterns(boxes[0].dim)]
    want = brute_patterns(plain(boxes))
    assert want
    pairs = intersecting_pairs(boxes)
    assert len(pairs) == len(want)
    assert {(u, v): names[code] for u, v, code in pairs} == want
    rng = random.Random(name)
    for values in ([0], ["red", "green", "blue"], rng.sample(range(10 * n), n)):
        if len(values) == n:
            labels = dict(zip(range(n), values))
        else:
            labels = {v: rng.choice(values) for v in range(n)}
        same = {p: pattern for p, pattern in want.items() if labels[p[0]] == labels[p[1]]}
        labelled = intersecting_pairs(boxes, labels)
        assert len(labelled) == len(same)
        assert {(u, v): names[code] for u, v, code in labelled} == same


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.randoms(use_true_random=False))
def test_pairs_under_shuffled_ids_match_the_all_pairs_reference(d, rng):
    """Ids that are a permutation of the positions are read through a map
    from id; the patterns must be those of the boxes the ids name."""
    boxes = random_instance(rng, d)
    n = len(boxes)
    ids = rng.sample(range(n), n)
    shuffled = [Box(i, b.sides) for i, b in zip(ids, boxes)]
    by_id = [()] * n
    for b, side in zip(shuffled, plain(boxes)):
        by_id[b.id] = side
    names = [str(p) for p in all_patterns(d)]
    pairs = intersecting_pairs(shuffled)
    assert len(pairs) == len({(u, v) for u, v, _ in pairs})
    assert {(u, v): names[code] for u, v, code in pairs} == brute_patterns(by_id)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_long_candidate_lists_match_the_all_pairs_reference(d, monkeypatch):
    # about half of the pairs of 200 random boxes meet on each axis, so a
    # box's slice of a cell holds dozens of boxes, filtered axis by axis
    boxes = random_boxes(200, d, seed=d)
    n = len(boxes)
    sides = plain(boxes)
    names = [str(p) for p in all_patterns(d)]
    want = brute_patterns(sides)
    assert intersection_graph(boxes).edges == set(want)
    # the same boxes in reverse order, and again under other ids
    backwards = boxes[::-1]
    assert intersection_graph(backwards).edges == set(want)
    moved = [Box(3 * b.id + 7, b.sides) for b in backwards]
    assert sorted(intersecting_pairs(moved)) == sorted(
        (3 * u + 7, 3 * v + 7, code) for u, v, code in intersecting_pairs(boxes)
    )
    rng = random.Random(d)
    for count in (None, 1, 3, n):
        same, labels = want, None
        if count is not None:
            values = rng.sample(range(10 * n), count)
            if count == n:
                labels = dict(zip(range(n), values))
            else:
                labels = {v: rng.choice(values) for v in range(n)}
            same = {p: name for p, name in want.items() if labels[p[0]] == labels[p[1]]}
        for order in (boxes, backwards):
            pairs = intersecting_pairs(order, labels)
            assert len(pairs) == len(same)
            assert {(u, v): names[code] for u, v, code in pairs} == same
    # raise the clique oracle's limit so that certify computes omega itself
    monkeypatch.setattr(oracles, "OMEGA_LIMIT", n)
    w = omega(Graph(n, want))
    for r, k in ((1, 1), (2, 2)):  # decomposed and searched, then not
        cert = color_or_find_forest(boxes, r, k)
        data = certificate_to_json(cert)
        assert data == brute_coloring_certificate(sides, r, k, omega=w)
        colors = parse_certificate(data)["colors"]
        tampered = list(colors)
        for u, v in rng.sample(sorted(want), 3):
            tampered[v] = tampered[u]
        for painted in (colors, tampered):
            palette = max(painted) + 1
            payload = {"kind": "coloring", "palette": palette, "colors": painted, "r": 1, "k": 1}
            assert verify_certificate(boxes, payload) == expected_verdict(boxes, painted)


def test_sweep_cost_follows_the_pairs_that_meet_on_two_axes():
    # every strip spans axis 0, so all 3000 are open at once and a sweep
    # that tests every open box would make about 4.5M tests for ~1.3k pairs
    rng = random.Random(1)
    rows = []
    for i in range(3000):
        lo = rng.randrange(10**6 - 300)
        rows.append([i, 10**6 + i, lo, lo + rng.randint(1, 300)])
    boxes = normalize(boxes_from_rows(rows))
    start = time.perf_counter()
    pairs = intersecting_pairs(boxes)
    assert time.perf_counter() - start < 0.25
    # the strips meet exactly where their axis-1 sides overlap
    by_lo = sorted(range(len(boxes)), key=lambda v: boxes[v].side(1).lo)
    want = set()
    for a, u in enumerate(by_lo):
        for v in by_lo[a + 1:]:
            if boxes[v].side(1).lo > boxes[u].side(1).hi:
                break
            want.add((min(u, v), max(u, v)))
    assert {(u, v) for u, v, _ in pairs} == want


def test_sweep_ranks_shared_endpoints_and_rejects_mixed_dimensions():
    # raw input is ranked: the shared endpoint 2 goes to box 0 first, so
    # [0, 2] ends before [2, 3] starts; listed the other way round they meet
    assert intersecting_pairs(boxes_from_rows([[0, 2], [2, 3]])) == []
    assert intersecting_pairs(boxes_from_rows([[2, 3], [0, 2]])) == [(0, 1, 3)]
    mixed = [*normalize(boxes_from_rows([[0, 1]])), *normalize(boxes_from_rows([[0, 1, 0, 1]]))]
    with pytest.raises(ValueError):
        intersecting_pairs(mixed)


@pytest.mark.parametrize("name", FAMILIES)
def test_host_graph_from_the_family_is_the_intersection_graph(name):
    for boxes in family(name):
        g = intersection_graph(boxes)
        union = [set() for _ in boxes]
        for pd in decompose(boxes, g):
            for v, near in enumerate(pd.digraph.out):
                union[v] |= near
        assert isinstance(g.adj, tuple) and len(g.adj) == len(union) == len(boxes)
        for v, near in enumerate(g.adj):
            # the sweep's lists, kept as they are: no repeat, no loop
            assert isinstance(near, list)
            assert len(set(near)) == len(near) and v not in near
            assert set(near) == union[v]
        assert g.edges == set(brute_patterns(plain(boxes)))


@pytest.fixture
def sweep_calls(monkeypatch):
    """Counts pair sweeps: calls of the generator behind ``intersecting_pairs``
    through every module name, so a caller that reads its batches one at a
    time is counted too."""
    calls = []
    original = geometry._sweep

    def counted(boxes, *rest):
        calls.append(len(boxes))
        return original(boxes, *rest)

    for module in (geometry, graphs, patterns, pipeline):
        if hasattr(module, "_sweep"):
            monkeypatch.setattr(module, "_sweep", counted)
    return calls


def test_certify_and_verify_sweep_once(sweep_calls):
    rng = random.Random(3)
    kinds = set()
    for _ in range(40):
        d = rng.randint(1, 3)
        boxes = random_boxes(rng.randint(2, 14), d, seed=rng.randrange(10**6))
        r, k = rng.choice(((0, 1), (1, 1), (1, 2), (2, 2)))
        sweep_calls.clear()
        cert = color_or_find_forest(boxes, r, k)
        # r = 0 gives the one-vertex tree from the ids alone; any other
        # outcome sweeps the n boxes once, and a tree is then checked by one
        # sweep over only the |T| boxes it maps, in certify and in verify
        tree = isinstance(cert, InducedTree)
        checked = [len(cert.mapping)] if tree else [len(boxes)]
        assert sweep_calls == ([] if r == 0 else [len(boxes)] + checked * tree), (d, r, k)
        payload = parse_certificate(certificate_to_json(cert))
        sweep_calls.clear()
        ok, message = verify_certificate(boxes, payload)
        assert ok, message
        assert sweep_calls == checked
        kinds.add(type(cert))
    assert kinds == {ProperColoring, InducedTree}


@pytest.fixture
def classifier_calls(monkeypatch):
    """Counts calls of the pattern classifier ``_pattern_codes`` through
    every module name."""
    calls = []
    original = geometry._pattern_codes

    def counted(boxes, pairs):
        calls.append(len(boxes))
        return original(boxes, pairs)

    for module in (geometry, graphs, patterns, pipeline, cli):
        if hasattr(module, "_pattern_codes"):
            monkeypatch.setattr(module, "_pattern_codes", counted)
    return calls


def test_patterns_are_classified_only_where_they_are_decomposed(classifier_calls):
    # where the tree outgrows every degree no pattern digraph is built, so
    # neither certify nor verify classifies a single pair
    below = 0
    for boxes, r, k in [*all_pairs_cases(), (random_boxes(9, 1, seed=1), 1, 1)]:
        n, degree, _, size = brute_sizes(boxes, r, k)
        classifier_calls.clear()
        cert = color_or_find_forest(boxes, r, k)
        if degree < size or boxes[0].dim == 1:
            assert classifier_calls == []
            below += degree < size
        else:
            assert classifier_calls == [n]
        if isinstance(cert, ProperColoring):
            classifier_calls.clear()
            verify_certificate(boxes, parse_certificate(certificate_to_json(cert)))
            assert classifier_calls == []
    assert below >= 10
    boxes = fan_instance(random.Random(3), 3)
    classifier_calls.clear()
    assert isinstance(color_or_find_forest(boxes, 1, 1), InducedTree)
    assert classifier_calls == [len(boxes)]


def _random_digraphs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        boxes = random_instance(rng, rng.randint(2, 3))
        for pd in decompose(boxes, intersection_graph(boxes)):
            yield pd.digraph


def test_full_layerings_match_the_all_pairs_peel():
    checked = 0
    for dg in _random_digraphs(41, 30):
        result = peel_grading(dg, dg.n + 1, 2)  # every vertex peels at once
        assert result == Layering((frozenset(range(dg.n)),))
        check_layering(dg.n, dg.arcs, dg.n + 1, 2, result.layers)
        checked += 1
    assert checked >= 100


def test_partial_layerings_match_the_all_pairs_peel():
    partial = 0
    for dg in _random_digraphs(42, 25):
        for k in (1, 2, 3):
            for m in (2, 3, dg.n + 1):
                result = peel_grading(dg, k, m)
                if brute_peel_layers(dg.n, dg.arcs, k, m) is None:
                    assert isinstance(result, Grading)
                    continue
                assert isinstance(result, Layering)
                check_layering(dg.n, dg.arcs, k, m, result.layers)
                if sum(1 for layer in result.layers if layer) > 1:
                    partial += 1
    assert partial >= 50


def test_first_clash_reported_is_the_smallest_pair():
    rng = random.Random(5)
    for _ in range(20):
        boxes = random_boxes(rng.randint(3, 12), 2, seed=rng.randrange(10**6))
        pairs = sorted(brute_patterns(plain(boxes)))
        if not pairs:
            continue
        cert = color_or_find_forest(boxes, 2, 2)
        payload = parse_certificate(certificate_to_json(cert))
        for u, v in rng.sample(pairs, min(3, len(pairs))):
            payload["colors"][v] = payload["colors"][u]
        colors = payload["colors"]
        payload["palette"] = max(colors) + 1  # the tampering may drop the largest color
        first = next((a, b) for a, b in pairs if colors[a] == colors[b])
        ok, message = verify_certificate(boxes, payload)
        assert not ok
        assert message == (
            f"adjacent boxes {first[0]} and {first[1]} share color {colors[first[0]]}"
        )


def hub_rows(leaves: int, d: int) -> list[list[int]]:
    """Rows of ``leaves`` disjoint boxes and, last, one hub box around them."""
    rows = [
        [x for side in b.sides for x in (side.lo, side.hi)]
        for b in grid_disjoint_boxes(leaves, d)
    ]
    rows.append([x for _ in range(d) for x in (-1, 2 * leaves)])
    return rows


def fan_instance(rng: random.Random, d: int):
    """A hub box around disjoint leaves, plus up to two small random boxes."""
    leaves = rng.randint(3, 9)
    rows = hub_rows(leaves, d)
    for _ in range(rng.randint(0, 2)):
        row = []
        for _ in range(d):
            lo = rng.randrange(2 * leaves)
            row.extend((lo, lo + 1))
        rows.append(row)
    return normalize(boxes_from_rows(rows))


def sparse_instance(rng: random.Random, d: int):
    """9 to 16 boxes with short sides: few neighbors each, a small omega."""
    n = rng.randint(9, 16)
    cap = n if d == 3 else n // 2
    rows = []
    for _ in range(n):
        row = []
        for _ in range(d):
            lo = rng.randrange(2 * n)
            row.extend((lo, lo + rng.randint(1, cap)))
        rows.append(row)
    return normalize(boxes_from_rows(rows))


def all_pairs_cases():
    """(boxes, r, k): fans and small random instances in d = 2 and 3, then
    sparse ones whose depth-2 tree mostly fits in n but outgrows every
    degree."""
    rng = random.Random(7)
    for i in range(40):
        d = rng.randint(2, 3)
        if i % 2:
            boxes = fan_instance(rng, d)
        else:
            boxes = random_boxes(rng.randint(3, 14), d, seed=rng.randrange(10**6))
        yield boxes, *rng.choice(((1, 1), (1, 2), (2, 1), (2, 2)))
    rng = random.Random(11)
    for i in range(14):
        yield sparse_instance(rng, 2 + i % 2), 2, 1


def brute_sizes(boxes, r: int, k: int) -> tuple[int, int, int, int]:
    """n, the maximum degree, omega and |T|, from all-pairs scans."""
    sides = plain(boxes)
    n = len(sides)
    edges = brute_patterns(sides)
    w = brute_omega(n, edges)
    return n, brute_max_degree(n, edges), w, tree_vertex_count(r, k ** len(sides[0]) * w)


def test_no_pattern_keeps_a_grading_where_the_tree_outgrows_every_degree():
    # a pattern out-degree is at most the host degree, so with k = |T| every
    # pattern peels out whole in round 1 and the product coloring exists
    below = 0
    for boxes, r, k in all_pairs_cases():
        n, degree, w, size = brute_sizes(boxes, r, k)
        if degree < size <= n:
            assert brute_product_coloring(plain(boxes), size, max(2, r * w)) is not None
            below += 1
    assert below >= 10


@st.composite
def small_instances(draw):
    """2 to 10 boxes in d = 2 or 3 on a lattice of 2n + 1 points per axis."""
    d = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(2, 10))
    rows = []
    for _ in range(n):
        row = []
        for _ in range(d):
            lo = draw(st.integers(0, 2 * n))
            row.extend((lo, lo + draw(st.integers(0, n))))
        rows.append(row)
    return normalize(boxes_from_rows(rows))


@settings(max_examples=150, deadline=None)
@given(small_instances(), st.sampled_from(((1, 1), (1, 2), (2, 1))))
def test_no_pattern_keeps_a_grading_on_small_instances(boxes, rk):
    r, k = rk
    n, degree, w, size = brute_sizes(boxes, r, k)
    assume(degree < size <= n)
    assert brute_product_coloring(plain(boxes), size, max(2, r * w)) is not None


def test_certificates_match_the_all_pairs_path():
    colorings = trees = 0
    for boxes, r, k in all_pairs_cases():
        want = brute_coloring_certificate(plain(boxes), r, k)
        cert = color_or_find_forest(boxes, r, k)
        if want is None:
            assert isinstance(cert, InducedTree)
            trees += 1
        else:
            assert certificate_to_json(cert) == want
            colorings += 1
    assert colorings >= 10 and trees >= 1


def test_smallest_last_palette_never_exceeds_the_product_palette():
    # wherever certify colors, the paper's product coloring exists: where
    # the tree has more vertices than any box has neighbors every pattern
    # peels out whole in round 1, and where the patterns are decomposed
    # none kept a grading; smallest-last on the host graph must never need
    # more colors than the product, nor more than the maximum degree + 1
    above_n = below_n = decomposed = 0
    cases = [*all_pairs_cases(), (burling_like(3), 1, 1)]
    for boxes, r, k in cases + [(boxes, 1, 1) for boxes, _, _ in cases]:
        n, degree, w, size = brute_sizes(boxes, r, k)
        cert = color_or_find_forest(boxes, r, k)
        if isinstance(cert, InducedTree):
            assert size <= degree
            continue
        product = brute_product_coloring(plain(boxes), size, max(2, r * w))
        assert cert.coloring.palette_size <= max(product.values()) + 1
        assert cert.coloring.palette_size <= degree + 1
        if size <= degree:
            decomposed += 1
        else:
            above_n += size > n
            below_n += size <= n
    assert above_n >= 10 and below_n >= 10 and decomposed >= 10


@pytest.fixture
def pattern_work(monkeypatch):
    """Names of the pattern decompositions and per-pattern tree searches
    called, through every module name they go by."""
    calls = []
    for name, homes in (
        ("decompose", (patterns, pipeline)),
        ("find_path_induced_tree", (embedding, pipeline)),
    ):
        original = getattr(pipeline, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in homes:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_certify_skips_the_patterns_where_the_tree_outgrows_every_degree(pattern_work):
    below = 0
    for boxes, r, k in all_pairs_cases():
        n, degree, _, size = brute_sizes(boxes, r, k)
        pattern_work.clear()
        cert = color_or_find_forest(boxes, r, k)
        if degree < size <= n:
            assert isinstance(cert, ProperColoring)
            assert pattern_work == []
            below += 1
        elif size <= degree:
            assert pattern_work[0] == "decompose"
    assert below >= 10


@pytest.fixture
def coloring_work(monkeypatch):
    """Names of the coloring routines called, through every boxforest
    module that holds them."""
    calls = []
    originals = {
        "smallest_last_coloring": graphs.smallest_last_coloring,
        "_smallest_last_on_rows": graphs._smallest_last_on_rows,
        "degeneracy_coloring": graphs.degeneracy_coloring,
        "product_coloring": patterns.product_coloring,
    }
    homes = {name: 0 for name in originals}
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "boxforest":
            continue
        for name, original in originals.items():
            if module.__dict__.get(name) is not original:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
            homes[name] += 1
    # each name is in its own module and in at least one that imports it
    assert min(homes.values()) >= 2
    return calls


def test_certify_colors_smallest_last_once_where_no_pattern_embeds(
    pattern_work, coloring_work
):
    decomposed = 0
    for boxes, _, _ in all_pairs_cases():
        _, degree, _, size = brute_sizes(boxes, 1, 1)
        pattern_work.clear()
        coloring_work.clear()
        cert = color_or_find_forest(boxes, 1, 1)
        if isinstance(cert, InducedTree):
            assert coloring_work == []
        elif size <= degree:
            assert pattern_work[0] == "decompose"
            # one smallest-last coloring, on the lists or on bit rows
            assert len(coloring_work) == 1
            assert coloring_work[0] in ("smallest_last_coloring", "_smallest_last_on_rows")
            decomposed += 1
    assert decomposed >= 10


@pytest.mark.parametrize("d, k", [(2, 1), (2, 2), (3, 1)])
def test_a_hub_embeds_the_tree_exactly_when_its_degree_reaches_the_tree_size(
    d, k, pattern_work
):
    # omega is 2, so |T| = 1 + 2 k^d; the hub's degree is its leaf count
    size = tree_vertex_count(1, 2 * k**d)
    for leaves in (size, size - 1):
        boxes = normalize(boxes_from_rows(hub_rows(leaves, d)))
        assert brute_sizes(boxes, 1, k) == (leaves + 1, leaves, 2, size)
        pattern_work.clear()
        cert = color_or_find_forest(boxes, 1, k)
        want = brute_coloring_certificate(plain(boxes), 1, k)
        if leaves == size:
            assert want is None
            assert isinstance(cert, InducedTree)
            assert cert.mapping[0] == leaves  # the hub is the root
            assert pattern_work[0] == "decompose"
        else:
            assert certificate_to_json(cert) == want
            assert pattern_work == []
        ok, message = verify_certificate(boxes, parse_certificate(certificate_to_json(cert)))
        assert ok, message


@pytest.mark.parametrize("name", FAMILIES)
def test_smallest_last_colors_like_the_sorted_scan(name):
    for boxes in family(name):
        g = intersection_graph(boxes)
        got = smallest_last_coloring(g.adj)
        assert dict(enumerate(got.colors)) == brute_smallest_last_coloring(g.n, g.edges)
        assert got.is_proper_on(g)
        # degeneracy + 1 is the least bound below which every remaining
        # degree can be peeled
        least = next(
            b for b in range(1, g.n + 2)
            if brute_degeneracy_coloring(g.n, g.edges, b) is not None
        )
        assert got.palette_size <= least


@pytest.fixture
def tree_searches(monkeypatch):
    """(pattern digraph, result) of every per-pattern tree search."""
    calls = []
    original = pipeline.find_path_induced_tree

    def spy(dg, *rest, **kwargs):
        result = original(dg, *rest, **kwargs)
        calls.append((dg, result))
        return result

    monkeypatch.setattr(pipeline, "find_path_induced_tree", spy)
    return calls


def test_tree_search_skips_arc_free_patterns_and_stops_at_the_first_tree(tree_searches):
    kinds = set()
    for boxes, r, k in all_pairs_cases():
        tree_searches.clear()
        cert = color_or_find_forest(boxes, r, k)
        kinds.add(type(cert))
        assert all(any(dg.out) for dg, _ in tree_searches)
        embedded = [isinstance(result, CalmEmbedding) for _, result in tree_searches]
        # only the last search may embed, and it does exactly when the
        # certificate is a tree
        assert not any(embedded[:-1])
        assert (embedded[-1:] == [True]) == isinstance(cert, InducedTree)
    assert kinds == {ProperColoring, InducedTree}


def test_fans_stop_after_the_first_embedding(tree_searches):
    boxes = fan_instance(random.Random(3), 3)
    with_arcs = len(decompose(boxes, intersection_graph(boxes)))
    cert = color_or_find_forest(boxes, 1, 1)
    assert isinstance(cert, InducedTree)
    # the hub's pattern comes first; its mirror and the rest are never searched
    assert len(tree_searches) == 1 < with_arcs
    assert isinstance(tree_searches[0][1], CalmEmbedding)
