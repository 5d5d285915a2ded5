"""Pattern decomposition and the structural checks on each piece."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxforest import (
    Coloring,
    Digraph,
    Graph,
    PatternDigraph,
    all_patterns,
    boxes_from_rows,
    decompose,
    intersection_graph,
    intersection_pattern,
    intersects,
    normalize,
    product_coloring,
    random_boxes,
    verify_basic,
)
from bruteforce import brute_divergent, brute_modest


def random_boxes_rows(rng: random.Random, n: int, d: int) -> list[list[int]]:
    rows = []
    for _ in range(n):
        row = []
        for _ in range(d):
            a, b = rng.randrange(0, 4 * n), rng.randrange(0, 4 * n)
            row.extend((min(a, b), max(a, b) + 1))
        rows.append(row)
    return rows


def make_instance(seed: int, n: int, d: int):
    rng = random.Random(seed)
    boxes = normalize(boxes_from_rows(random_boxes_rows(rng, n, d)))
    return boxes, intersection_graph(boxes), decompose(boxes, intersection_graph(boxes))


class TestDecompose:
    def test_lists_the_patterns_with_arcs_in_order(self):
        for seed in range(20):
            boxes, _, fam = make_instance(seed, 5, 2)
            found = {
                intersection_pattern(a, b)
                for a in boxes
                for b in boxes
                if a != b and intersects(a, b)
            }
            assert [pd.pattern for pd in fam] == [p for p in all_patterns(2) if p in found]
            assert all(pd.digraph.arcs for pd in fam)

    def test_each_pair_once_with_mirror(self):
        boxes, g, fam = make_instance(1, 9, 2)
        by_pattern = {str(pd.pattern): pd.digraph for pd in fam}
        seen: dict[tuple[int, int], int] = {}
        for pd in fam:
            for u, v in pd.digraph.arcs:
                seen[(u, v)] = seen.get((u, v), 0) + 1
                # The same ordered pair sits in exactly this one pattern;
                # its reverse sits in the mirrored pattern.
                mirrored = by_pattern[str(pd.pattern.mirrored())]
                assert (v, u) in mirrored.arcs
        assert all(c == 1 for c in seen.values())
        edges = {(u, v) for u, v in seen} | {(v, u) for u, v in seen}
        assert len(edges) == 2 * len(g.edges)

    def test_arcs_match_pairwise_patterns(self):
        boxes, _, fam = make_instance(2, 8, 1)
        for pd in fam:
            for u, v in pd.digraph.arcs:
                assert intersection_pattern(boxes[u], boxes[v]) == pd.pattern
        # Non-intersecting pairs appear nowhere.
        total = sum(len(pd.digraph.arcs) for pd in fam)
        inter = sum(
            intersects(a, b)
            for i, a in enumerate(boxes)
            for b in boxes[i + 1:]
        )
        assert total == 2 * inter

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_boxes_listed_out_of_id_order(self, d):
        # the endpoint columns must be indexed by id, not by list position
        for seed in range(6):
            boxes = normalize(random_boxes(30, d, seed=seed))
            shuffled = boxes[:]
            random.Random(seed).shuffle(shuffled)
            assert shuffled != boxes
            g = intersection_graph(shuffled)
            fam = decompose(shuffled, g)
            by_id = {b.id: b for b in shuffled}
            arcs = 0
            for pd in fam:
                for u, v in pd.digraph.arcs:
                    assert intersection_pattern(by_id[u], by_id[v]) == pd.pattern
                    arcs += 1
            assert arcs == 2 * len(g.edges)

    def test_nested_intervals_concentrate_in_one_pattern(self):
        boxes = normalize(boxes_from_rows([[0, 9], [1, 8], [2, 7]]))
        fam = decompose(boxes, intersection_graph(boxes))
        arcs = {str(pd.pattern): pd.digraph.arcs for pd in fam}
        assert arcs == {
            "C": {(0, 1), (0, 2), (1, 2)},
            "c": {(1, 0), (2, 0), (2, 1)},
        }

    def test_rejects_mixed_dimension(self):
        bad = [*normalize(boxes_from_rows([[0, 1]])), *normalize(boxes_from_rows([[0, 1, 0, 1]]))]
        bad[1] = bad[1].__class__(1, bad[1].sides)
        with pytest.raises(ValueError):
            decompose(bad, intersection_graph(bad))


class TestVerifyBasic:
    @given(st.integers(0, 10**6), st.integers(2, 8), st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_always_holds_and_matches_bruteforce(self, seed, n, d):
        boxes, g, fam = make_instance(seed, n, d)
        for pd in fam:
            rep = verify_basic(pd, g)
            assert (rep.acyclic, rep.modest, rep.divergent) == (True,) * 3, (str(pd.pattern), rep)
            dg = pd.digraph
            assert brute_modest(dg.n, set(dg.arcs), g.edges)
            assert brute_divergent(dg.n, set(dg.arcs), g.edges)

    def test_skips_above_verify_limit(self):
        # the limit is 14 boxes
        _, g, fam = make_instance(3, 14, 1)
        rep = verify_basic(fam[0], g)
        assert (rep.acyclic, rep.modest, rep.divergent) == (True,) * 3
        _, g, fam = make_instance(3, 15, 1)
        rep = verify_basic(fam[0], g)
        assert rep.acyclic is True
        assert rep.modest is None and rep.divergent is None

    def test_flags_planted_violations(self):
        # Hand-built digraphs that cannot come from real box families.
        pat = all_patterns(1)[0]

        cyc = PatternDigraph(pat, Digraph(2, [(0, 1), (1, 0)]))
        rep = verify_basic(cyc, Graph(2, [(0, 1)]))
        assert rep.acyclic is False
        assert rep.witness

        # Arc 0->2 via 1, but 0 and 2 share no host edge: not modest.
        chain = PatternDigraph(pat, Digraph(3, [(0, 1), (1, 2), (0, 2)]))
        rep = verify_basic(chain, Graph(3, [(0, 1), (1, 2)]))
        assert rep.modest is False
        assert rep.witness

        # Two non-adjacent out-neighbors reach a shared vertex: not divergent.
        vee = PatternDigraph(pat, Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
        rep = verify_basic(vee, Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
        assert rep.divergent is False


class TestProductColoring:
    def test_combines_per_pattern_colorings(self):
        boxes, g, fam = make_instance(4, 7, 1)
        colorings = {}
        for pd in fam:
            und = Graph(pd.digraph.n, pd.digraph.arcs)
            greedy: dict[int, int] = {}
            for v in range(und.n):
                used = {greedy[u] for u in und.neighbors(v) if u in greedy}
                greedy[v] = next(c for c in range(und.n + 1) if c not in used)
            colorings[pd.pattern] = Coloring([greedy[v] for v in range(und.n)])
        combined = product_coloring(fam, colorings)
        assert combined.is_proper_on(g)

    @pytest.mark.parametrize("seed,d", [(2, 2), (2, 3), (3, 4)])
    def test_constant_pieces_are_skipped_without_changing_the_product(self, seed, d):
        boxes, g, with_arcs = make_instance(seed, 12, d)
        n = len(boxes)
        # decompose lists only the patterns with arcs; the product takes any
        # family, so the arc-free ones are added as empty digraphs
        listed = {pd.pattern: pd for pd in with_arcs}
        fam = [listed.get(p) or PatternDigraph(p, Digraph(n, [])) for p in all_patterns(d)]
        constant = Coloring([0] * n)
        colorings = {}
        arc_free = [pd.pattern for pd in fam if not any(pd.digraph.out)]
        for pd in fam:
            und = Graph(pd.digraph.n, pd.digraph.arcs)
            greedy: dict[int, int] = {}
            for v in range(n):
                used = {greedy[u] for u in und.neighbors(v) if u in greedy}
                greedy[v] = next(c for c in range(n + 1) if c not in used)
            colorings[pd.pattern] = Coloring([greedy[v] for v in range(n)])
        for pattern in arc_free[1:]:
            colorings[pattern] = constant
        # an arc-free pattern may still carry a coloring that is not constant
        colorings[arc_free[0]] = Coloring([v % 2 for v in range(n)])
        keys = [tuple(colorings[pd.pattern].colors[v] for pd in fam) for v in range(n)]
        first_seen = {key: None for key in keys}
        number = {key: i for i, key in enumerate(first_seen)}
        combined = product_coloring(fam, colorings)
        assert combined.colors == tuple(map(number.__getitem__, keys))
        assert combined.palette_size == len(number)
        # a constant piece is refused on a pattern with arcs
        with_arcs = next(pd.pattern for pd in fam if any(pd.digraph.out))
        with pytest.raises(ValueError):
            product_coloring(fam, {**colorings, with_arcs: constant})

    def test_rejects_improper_pieces(self):
        boxes, g, fam = make_instance(5, 5, 1)
        flat = {
            pd.pattern: Coloring([0] * len(boxes))
            for pd in fam
        }
        if any(pd.digraph.arcs for pd in fam):
            with pytest.raises(ValueError):
                product_coloring(fam, flat)

    def test_rejects_pieces_missing_a_vertex(self):
        boxes, g, fam = make_instance(7, 5, 1)
        short = {
            pd.pattern: Coloring(range(len(boxes) - 1))
            for pd in fam
        }
        with pytest.raises(ValueError):
            product_coloring(fam, short)

    def test_missing_pattern(self):
        boxes, g, fam = make_instance(6, 4, 1)
        with pytest.raises(ValueError):
            product_coloring(fam, {})
