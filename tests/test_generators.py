"""Instance generators; the recursive family gets its invariants rechecked."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxforest import (
    burling_like,
    burling_size,
    grid_disjoint_boxes,
    intersection_graph,
    nested_chain_boxes,
    normalize,
    random_boxes,
)
from boxforest.generators import _burling_raw
from boxforest.geometry import boxes_from_rows
from bruteforce import brute_chi


class TestRandomBoxes:
    @given(st.integers(1, 15), st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_normalized_output(self, n, d, seed):
        boxes = random_boxes(n, d, seed=seed)
        assert len(boxes) == n
        assert all(b.dim == d for b in boxes)
        assert boxes == normalize(boxes)
        for axis in range(d):
            vals = sorted(
                v for b in boxes for v in (b.side(axis).lo, b.side(axis).hi)
            )
            assert vals == list(range(2 * n))

    def test_deterministic_per_seed(self):
        assert random_boxes(8, 2, seed=42) == random_boxes(8, 2, seed=42)
        assert random_boxes(8, 2, seed=42) != random_boxes(8, 2, seed=43)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_boxes(0, 2)
        with pytest.raises(ValueError):
            random_boxes(3, 0)


class TestShapedFamilies:
    def test_nested_chain_is_complete(self):
        boxes = nested_chain_boxes(5, 2)
        g = intersection_graph(boxes)
        assert len(g.edges) == 10

    def test_grid_is_edgeless(self):
        boxes = grid_disjoint_boxes(10, 2)
        g = intersection_graph(boxes)
        assert len(g.edges) == 0
        assert len(boxes) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            nested_chain_boxes(0, 1)
        with pytest.raises(ValueError):
            grid_disjoint_boxes(5, 0)


def edges_of(rows):
    boxes = normalize(
        boxes_from_rows([[v for side in r for v in side] for r in rows])
    )
    return boxes


def probe_hits(rows, probe) -> tuple[int, ...]:
    """Ids of the raw Burling rows meeting the probe's region, by strict overlap."""
    hits = []
    for i, (x0, x1, y0, y1, z0, z1) in enumerate(rows):
        if x1 <= probe.x0 or x0 >= probe.x1:
            continue
        if y1 <= probe.y0 or y0 >= 1:
            continue
        if z1 <= probe.z0 or z0 >= probe.z1:
            continue
        hits.append(i)
    return tuple(hits)


class TestBurling:
    def test_frozen_sizes(self):
        assert [burling_size(level) for level in range(1, 6)] == [
            1,
            3,
            13,
            181,
            39733,
        ]
        for level in (1, 2, 3, 4):
            assert len(burling_like(level)) == burling_size(level)

    def test_size_guard_before_building(self):
        with pytest.raises(ValueError):
            burling_like(5)
        with pytest.raises(ValueError):
            burling_like(3, limit=10)
        with pytest.raises(ValueError):
            burling_like(0)

    def test_deterministic(self):
        assert burling_like(3) == burling_like(3)

    def test_triangle_free_through_level_four(self):
        for level in (1, 2, 3, 4):
            g = intersection_graph(burling_like(level))
            masks = [0] * g.n
            for u, v in g.edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            for u, v in g.edges:
                assert masks[u] & masks[v] == 0, (level, u, v)

    def test_frozen_edge_counts(self):
        counts = [
            len(intersection_graph(burling_like(level)).edges)
            for level in (1, 2, 3, 4)
        ]
        assert counts == [0, 1, 11, 323]

    def test_chromatic_numbers_climb(self):
        # exact values at desk scale; the recursion forces one more color
        # per level while every family stays triangle-free
        for level, expected in ((1, 1), (2, 2), (3, 3)):
            g = intersection_graph(burling_like(level))
            assert brute_chi(g.n, g.edges) == expected

    def test_normalization_preserves_the_graph(self):
        raw, _ = _burling_raw(3)
        flat = [[v for pair in ((r[0], r[1]), (r[2], r[3]), (r[4], r[5])) for v in pair] for r in raw]
        raw_boxes = boxes_from_rows(flat)
        cooked = burling_like(3)
        g_raw = intersection_graph(normalize(raw_boxes))
        g_cooked = intersection_graph(cooked)
        assert g_raw.edges == g_cooked.edges

    def test_probe_regions_hit_exactly_their_roots(self):
        for level in (1, 2, 3, 4):
            rows, probes = _burling_raw(level)
            for probe in probes:
                assert probe_hits(rows, probe) == probe.roots

    def test_probe_roots_pairwise_disjoint(self):
        for level in (2, 3, 4):
            rows, probes = _burling_raw(level)
            for probe in probes:
                for i, a in enumerate(probe.roots):
                    for b in probe.roots[i + 1:]:
                        ra, rb = rows[a], rows[b]
                        overlap = all(
                            max(ra[2 * ax], rb[2 * ax]) < min(ra[2 * ax + 1], rb[2 * ax + 1])
                            for ax in range(3)
                        )
                        assert not overlap, (level, a, b)

    def test_probe_x_slabs_pairwise_disjoint(self):
        for level in (2, 3, 4):
            _, probes = _burling_raw(level)
            for p, q in combinations(probes, 2):
                assert p.x1 < q.x0 or q.x1 < p.x0, (level, p, q)

    def test_roots_cross_probe_slab_in_x(self):
        # every root's x-range strictly contains its probe's x-slab
        for level in (2, 3, 4):
            rows, probes = _burling_raw(level)
            for probe in probes:
                for rid in probe.roots:
                    row = rows[rid]
                    assert row[0] < probe.x0 < probe.x1 < row[1]
