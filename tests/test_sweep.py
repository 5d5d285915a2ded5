"""The axis-0 pair sweep and the heap peeler against all-pairs references."""

from __future__ import annotations

import random

import pytest

from boxforest import (
    all_patterns,
    boxes_from_rows,
    burling_like,
    decompose,
    degeneracy_coloring,
    grid_disjoint_boxes,
    intersecting_pairs,
    intersection_graph,
    nested_chain_boxes,
    normalize,
)
from bruteforce import brute_decompose, brute_degeneracy_coloring, brute_patterns


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
def test_heap_peeler_colors_like_the_sorted_scan(name):
    for boxes in family(name):
        g = intersection_graph(boxes)
        top = max((g.degree(v) for v in range(g.n)), default=0) + 2
        for bound in range(1, top):
            want = brute_degeneracy_coloring(g.n, g.edges, bound)
            got = degeneracy_coloring(g, bound)
            assert (got is None) == (want is None), bound
            if got is not None:
                assert dict(got.colors) == want


def test_sweep_rejects_shared_endpoints_and_mixed_dimensions():
    with pytest.raises(ValueError):
        intersecting_pairs(boxes_from_rows([[0, 2], [2, 3]]))
    mixed = normalize(boxes_from_rows([[0, 1]])) + normalize(boxes_from_rows([[0, 1, 0, 1]]))
    with pytest.raises(ValueError):
        intersecting_pairs(mixed)
