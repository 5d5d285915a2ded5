"""Graph, digraph, and rooted tree containers plus the induced-copy search."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxforest import (
    Coloring,
    Digraph,
    Graph,
    RootedTree,
    boxes_from_rows,
    complete_kary_tree,
    degeneracy_coloring,
    intersection_graph,
    intersects,
    is_path_induced,
    normalize,
)
from bruteforce import brute_induced_copy, find_induced_copy


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


graph_strategy = st.builds(
    lambda n, seed, p: random_graph(random.Random(seed), n, p),
    st.integers(0, 7),
    st.integers(0, 10**6),
    st.floats(0.1, 0.9),
)


class TestGraph:
    def test_basicadjacency(self):
        g = Graph(4, [(0, 1), (1, 2)])
        assert g.adjacent(0, 1) and g.adjacent(1, 0)
        assert not g.adjacent(0, 2)
        assert g.neighbors(1) == {0, 2}
        assert g.degree(1) == 2
        assert g.edges == {(0, 1), (1, 2)}

    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph(-1, [])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edges == {(0, 1)}

    def test_complement(self):
        g = Graph(3, [(0, 1)])
        assert g.complement().edges == {(0, 2), (1, 2)}


class TestDigraph:
    def test_arcs_and_underlying(self):
        dg = Digraph(3, [(0, 1), (1, 2)])
        assert dg.has_arc(0, 1) and not dg.has_arc(1, 0)
        assert dg.out[1] == {2}
        assert dg.inn[1] == {0}
        assert dg.underlying().edges == {(0, 1), (1, 2)}

    def test_validation(self):
        with pytest.raises(ValueError):
            Digraph(2, [(1, 1)])
        with pytest.raises(ValueError):
            Digraph(1, [(0, 1)])

    def test_topological_order(self):
        dg = Digraph(4, [(2, 0), (2, 1), (0, 3), (1, 3)])
        assert dg.topological_order() == [2, 0, 1, 3]
        assert dg.is_acyclic()

    def test_cycle_has_no_order(self):
        dg = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert dg.topological_order() is None
        assert not dg.is_acyclic()

    def test_reach_includes_self(self):
        dg = Digraph(4, [(0, 1), (1, 2)])
        assert dg.reachable_from(0) == frozenset({0, 1, 2})
        assert dg.reachable_from(3) == frozenset({3})
        assert dg.coreachable_to(2) == frozenset({0, 1, 2})


class TestRootedTree:
    def test_shape(self):
        t = RootedTree([None, 0, 0, 1])
        assert t.root == 0
        assert t.n == 4
        assert t.children[0] == (1, 2)
        assert t.depth_of(3) == 2
        assert t.depth() == 2
        assert t.preorder() == [0, 1, 3, 2]
        assert t.subtree(1) == frozenset({1, 3})
        assert t.ancestors(3) == [1, 0]
        assert set(t.arcs()) == {(0, 1), (0, 2), (1, 3)}

    def test_validation(self):
        with pytest.raises(ValueError):
            RootedTree([])
        with pytest.raises(ValueError):
            RootedTree([0])  # root must have parent None
        with pytest.raises(ValueError):
            RootedTree([None, 2])  # parent must precede child
        with pytest.raises(ValueError):
            RootedTree([None, None])

    def test_complete_kary_sizes(self):
        assert complete_kary_tree(0, 5).n == 1
        assert complete_kary_tree(2, 2).n == 7
        assert complete_kary_tree(3, 1).n == 4
        t = complete_kary_tree(2, 3)
        assert t.n == 13
        assert all(len(t.children[v]) in (0, 3) for v in range(t.n))
        assert t.depth() == 2

    def test_complete_kary_zero_branching(self):
        with pytest.raises(ValueError):
            complete_kary_tree(1, 0)
        assert complete_kary_tree(0, 1).n == 1


class TestColoring:
    def test_proper_requires_full_palette_range(self):
        g = Graph(2, [])
        ok = Coloring({0: 0, 1: 0}, 1)
        assert ok.is_proper_on(g)
        with pytest.raises(ValueError):
            Coloring({0: 0, 1: 2}, 2)  # color outside palette

    def test_detects_conflicts_and_coverage(self):
        g = Graph(2, [(0, 1)])
        assert not Coloring({0: 0, 1: 0}, 1).is_proper_on(g)
        assert Coloring({0: 0, 1: 1}, 2).is_proper_on(g)
        assert not Coloring({0: 0}, 1).is_proper_on(g)  # missing vertex


class TestIntersectionGraph:
    def test_matches_pairwise_checks(self):
        rng = random.Random(5)
        rows = [
            [rng.randrange(0, 30) for _ in range(4)] for _ in range(8)
        ]
        rows = [
            [min(r[0], r[1]), max(r[0], r[1]) + 1, min(r[2], r[3]), max(r[2], r[3]) + 1]
            for r in rows
        ]
        boxes = normalize(boxes_from_rows(rows))
        g = intersection_graph(boxes)
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert g.adjacent(i, j) == intersects(boxes[i], boxes[j])

    def test_requires_contiguous_ids(self):
        boxes = normalize(boxes_from_rows([[0, 1], [2, 3]]))
        shifted = [b.__class__(b.id + 1, b.sides) for b in boxes]
        with pytest.raises(ValueError):
            intersection_graph(shifted)


class TestDegeneracyColoring:
    def test_stuck_when_degrees_large(self):
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert degeneracy_coloring(dict(enumerate(k4.adj)), 3) is None
        col = degeneracy_coloring(dict(enumerate(k4.adj)), 4)
        assert col is not None and col.is_proper_on(k4)

    @given(graph_strategy, st.integers(1, 8))
    @settings(max_examples=60)
    def test_proper_when_it_succeeds(self, g, bound):
        col = degeneracy_coloring(dict(enumerate(g.adj)), bound)
        if col is not None:
            assert col.palette_size <= bound
            assert col.is_proper_on(g)


class TestFindInducedCopy:
    @given(graph_strategy, st.integers(0, 2), st.integers(1, 2))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_bruteforce(self, g, depth, branching):
        t = complete_kary_tree(depth, branching)
        found = find_induced_copy(g, t)
        brute = brute_induced_copy(g.n, g.edges, [None] + [
            t.parent[v] for v in range(1, t.n)
        ])
        assert (found is None) == (brute is None)
        if found is not None:
            # Validate the returned embedding directly.
            assert len(set(found.values())) == t.n
            for a in range(t.n):
                for b in range(a + 1, t.n):
                    want = t.parent[b] == a or t.parent[a] == b
                    assert g.adjacent(found[a], found[b]) == want

    def test_star_example(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        t = complete_kary_tree(1, 3)
        phi = find_induced_copy(g, t)
        assert phi is not None and phi[0] == 0

    def test_missing_copy(self):
        triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert find_induced_copy(triangle, complete_kary_tree(1, 2)) is None


class TestIsPathInduced:
    def test_ancestor_edge_breaks_it(self):
        t = RootedTree([None, 0, 1])
        phi = {0: 0, 1: 1, 2: 2}
        chain = Digraph(3, [(0, 1), (1, 2)])
        assert is_path_induced(chain, t, phi)
        shortcut = Digraph(3, [(0, 1), (1, 2), (0, 2)])
        assert not is_path_induced(shortcut, t, phi)

    def test_arc_preservation_is_a_precondition(self):
        t = RootedTree([None, 0])
        with pytest.raises(ValueError):
            is_path_induced(Digraph(2, []), t, {0: 0, 1: 1})

    def test_rejects_bad_maps(self):
        t = RootedTree([None, 0])
        dg = Digraph(2, [(0, 1)])
        with pytest.raises(ValueError):
            is_path_induced(dg, t, {0: 0, 1: 0})
        with pytest.raises(ValueError):
            is_path_induced(dg, t, {0: 0})
