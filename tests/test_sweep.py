"""The axis-0 pair sweep and the heap peeler against all-pairs references.

Also checks that certify and verify sweep once, and that what they derive
from the one sweep (pattern digraphs, host graph, layer colorings,
certificates, the first clash a verifier reports) matches references that
copy and rescan everything.
"""

from __future__ import annotations

import random

import pytest

from boxforest import (
    InducedTree,
    LayeredColoring,
    ProperColoring,
    all_patterns,
    boxes_from_rows,
    burling_like,
    certificate_to_json,
    color_or_find_forest,
    decompose,
    degeneracy_coloring,
    geometry,
    graphs,
    grid_disjoint_boxes,
    intersecting_pairs,
    intersection_graph,
    nested_chain_boxes,
    normalize,
    parse_certificate,
    patterns,
    peel_grading,
    pipeline,
    random_boxes,
    verify_certificate,
)
from bruteforce import (
    brute_coloring_certificate,
    brute_decompose,
    brute_degeneracy_coloring,
    brute_patterns,
    brute_peel_coloring,
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
        assert pairs == sorted(pairs)
        found = {(u, v): names[code] for u, v, code in pairs}
        assert len(found) == len(pairs)
        assert found == brute_patterns(plain(boxes))


@pytest.mark.parametrize("name", FAMILIES)
def test_pattern_digraphs_match_all_pairs_decomposition(name):
    for boxes in family(name):
        want = brute_decompose(plain(boxes))
        got = {str(pd.pattern): set(pd.digraph.arcs) for pd in decompose(boxes)}
        assert {p: a for p, a in got.items() if a} == want


@pytest.mark.parametrize("name", FAMILIES)
def test_mirrored_patterns_share_one_adjacency(name):
    for boxes in family(name):
        pds = decompose(boxes)
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
def test_heap_peeler_colors_like_the_sorted_scan(name):
    for boxes in family(name):
        g = intersection_graph(boxes)
        top = max((g.degree(v) for v in range(g.n)), default=0) + 2
        for bound in range(1, top):
            want = brute_degeneracy_coloring(g.n, g.edges, bound)
            got = degeneracy_coloring(dict(enumerate(g.adj)), bound)
            assert (got is None) == (want is None), bound
            if got is not None:
                assert dict(got.colors) == want


def test_sweep_rejects_shared_endpoints_and_mixed_dimensions():
    with pytest.raises(ValueError):
        intersecting_pairs(boxes_from_rows([[0, 2], [2, 3]]))
    mixed = normalize(boxes_from_rows([[0, 1]])) + normalize(boxes_from_rows([[0, 1, 0, 1]]))
    with pytest.raises(ValueError):
        intersecting_pairs(mixed)


@pytest.mark.parametrize("name", FAMILIES)
def test_host_graph_from_the_family_is_the_intersection_graph(name):
    for boxes in family(name):
        g = patterns.host_graph(decompose(boxes))
        assert g.adj == intersection_graph(boxes).adj
        assert g.edges == set(brute_patterns(plain(boxes)))


@pytest.fixture
def sweep_calls(monkeypatch):
    """Counts calls of ``intersecting_pairs`` through every module name."""
    calls = []
    original = geometry.intersecting_pairs

    def counted(boxes):
        calls.append(len(boxes))
        return original(boxes)

    for module in (geometry, graphs, patterns, pipeline):
        if hasattr(module, "intersecting_pairs"):
            monkeypatch.setattr(module, "intersecting_pairs", counted)
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
        assert len(sweep_calls) == 1, (d, r, k)
        payload = parse_certificate(certificate_to_json(cert))
        sweep_calls.clear()
        ok, message = verify_certificate(boxes, payload)
        assert ok, message
        assert len(sweep_calls) == (1 if isinstance(cert, ProperColoring) else 0)
        kinds.add(type(cert))
    assert kinds == {ProperColoring, InducedTree}


def _random_digraphs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        for pd in decompose(random_instance(rng, rng.randint(2, 3))):
            yield pd.digraph


def test_full_layer_colorings_match_copy_and_relabel():
    checked = 0
    for dg in _random_digraphs(41, 30):
        result = peel_grading(dg, dg.n + 1, 2)  # every vertex peels at once
        assert isinstance(result, LayeredColoring)
        assert result.layers == (frozenset(range(dg.n)),)
        assert dict(result.coloring.colors) == brute_peel_coloring(
            dg.n, dg.arcs, dg.n + 1, 2
        )
        checked += 1
    assert checked >= 100


def test_partial_layer_colorings_match_copy_and_relabel():
    partial = 0
    for dg in _random_digraphs(42, 25):
        for k in (1, 2, 3):
            for m in (2, 3, dg.n + 1):
                result = peel_grading(dg, k, m)
                want = brute_peel_coloring(dg.n, dg.arcs, k, m)
                if want is None:
                    assert not isinstance(result, LayeredColoring)
                    continue
                assert isinstance(result, LayeredColoring)
                assert dict(result.coloring.colors) == want
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
        first = next((a, b) for a, b in pairs if colors[a] == colors[b])
        ok, message = verify_certificate(boxes, payload)
        assert not ok
        assert message == (
            f"adjacent boxes {first[0]} and {first[1]} share color {colors[first[0]]}"
        )


def fan_instance(rng: random.Random, d: int):
    """A hub box around disjoint leaves, plus up to two small random boxes."""
    leaves = rng.randint(3, 9)
    rows = [
        [x for side in b.sides for x in (side.lo, side.hi)]
        for b in grid_disjoint_boxes(leaves, d)
    ]
    rows.append([x for _ in range(d) for x in (-1, 2 * leaves)])
    for _ in range(rng.randint(0, 2)):
        row = []
        for _ in range(d):
            lo = rng.randrange(2 * leaves)
            row.extend((lo, lo + 1))
        rows.append(row)
    return normalize(boxes_from_rows(rows))


def test_certificates_match_the_all_pairs_path():
    rng = random.Random(7)
    colorings = trees = 0
    for i in range(40):
        d = rng.randint(2, 3)
        if i % 2:
            boxes = fan_instance(rng, d)
        else:
            boxes = random_boxes(rng.randint(3, 14), d, seed=rng.randrange(10**6))
        r, k = rng.choice(((1, 1), (1, 2), (2, 1), (2, 2)))
        want = brute_coloring_certificate(plain(boxes), r, k)
        cert = color_or_find_forest(boxes, r, k)
        if want is None:
            assert isinstance(cert, InducedTree)
            trees += 1
        else:
            assert certificate_to_json(cert) == want
            colorings += 1
    assert colorings >= 10 and trees >= 1
