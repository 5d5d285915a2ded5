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
    normalize,
    random_boxes,
)
from boxforest.graphs import _reach, _smallest_last_on_rows, smallest_last_coloring
from bruteforce import (
    brute_induced_copy,
    brute_smallest_last_coloring,
    find_induced_copy,
    topological_order,
)


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

    def test_adjacency_is_a_tuple_of_lists(self):
        g = Graph(4, [(2, 1), (0, 1), (1, 0), (3, 1)])
        assert g.adj == ([1], [0, 2, 3], [1], [1])  # sorted, repeats collapsed
        # the sweep's graph wraps the lists it filled, in no promised order
        swept = intersection_graph(normalize(boxes_from_rows([[0, 2], [1, 4], [3, 5]])))
        assert type(swept.adj) is tuple and all(type(near) is list for near in swept.adj)
        assert sorted(map(sorted, swept.adj)) == [[0, 2], [1], [1]]


class TestDigraph:
    def test_arcs_and_underlying(self):
        dg = Digraph(3, [(0, 1), (1, 2)])
        assert dg.has_arc(0, 1) and not dg.has_arc(1, 0)
        assert dg.out[1] == {2}
        assert dg.inn[1] == {0}
        # the host graph of a digraph: each arc is added both ways
        assert Graph(dg.n, dg.arcs).edges == {(0, 1), (1, 2)}

    def test_validation(self):
        with pytest.raises(ValueError):
            Digraph(2, [(1, 1)])
        with pytest.raises(ValueError):
            Digraph(1, [(0, 1)])

    def test_topological_order(self):
        dg = Digraph(4, [(2, 0), (2, 1), (0, 3), (1, 3)])
        assert topological_order(dg.n, dg.arcs) == [2, 0, 1, 3]
        assert dg.is_acyclic()

    def test_cycle_has_no_order(self):
        # a bare cycle, one fed by a source, and one beside isolated vertices
        cyclic = [
            (3, [(0, 1), (1, 2), (2, 0)]),
            (3, [(0, 1), (1, 2), (2, 1)]),
            (5, [(3, 4), (4, 3)]),
        ]
        for n, arcs in cyclic:
            dg = Digraph(n, arcs)
            assert topological_order(dg.n, dg.arcs) is None
            assert not dg.is_acyclic()

    @given(
        st.integers(0, 9),
        st.floats(0.0, 0.6),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_acyclic_exactly_when_kahn_orders_everything(self, n, p, climb, rng):
        """Arcs that climb a random ranking make a DAG; arcs between any
        ordered pairs mostly do not once there are a few."""
        rank = rng.sample(range(n), n)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and (rank[u] < rank[v] or not climb) and rng.random() < p
        ]
        dg = Digraph(n, arcs)
        order = topological_order(n, arcs)
        assert dg.is_acyclic() == (order is not None)
        if order is None:
            assert not climb
            assert any(u in _reach(dg.out, v) for u, v in arcs)
        else:
            assert sorted(order) == list(range(n))
            place = {v: i for i, v in enumerate(order)}
            assert all(place[u] < place[v] for u, v in arcs)

    def test_reach_includes_self(self):
        dg = Digraph(4, [(0, 1), (1, 2)])
        assert _reach(dg.out, 0) == frozenset({0, 1, 2})
        assert _reach(dg.out, 3) == frozenset({3})
        assert _reach(dg.inn, 2) == frozenset({0, 1, 2})


class TestRootedTree:
    def test_shape(self):
        t = RootedTree([None, 0, 0, 1])
        assert t.root == 0
        assert t.n == 4
        assert t.children[0] == (1, 2)
        assert len(t.ancestors(3)) == 2  # the depth of vertex 3
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
        # the palette is worked out: one more than the largest color
        g = Graph(2, [])
        ok = Coloring((0, 0))
        assert ok.is_proper_on(g)
        assert ok.palette_size == 1
        assert Coloring([0, 2]) == Coloring((0, 2))
        assert Coloring((0, 2)).palette_size == 3
        assert Coloring(()).palette_size == 0
        with pytest.raises(ValueError):
            Coloring((0, -1))  # a color below 0

    def test_detects_conflicts_and_coverage(self):
        g = Graph(2, [(0, 1)])
        assert not Coloring((0, 0)).is_proper_on(g)
        assert Coloring((0, 1)).is_proper_on(g)
        assert not Coloring((0,)).is_proper_on(g)  # missing vertex
        assert not Coloring((0, 1, 2)).is_proper_on(g)  # a vertex too many


def clique_edges(vertices):
    return [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]]


def cliques_with_pendants() -> Graph:
    """K_40, K_3 and K_60, each with a pendant on its first two vertices:
    the minimum degree climbs past several horizons in K_40, falls back to
    0 as it empties, and climbs past them again in K_60."""
    edges, start = [], 0
    for size in (40, 3, 60):
        edges += clique_edges(list(range(start, start + size)))
        start += size
    pendants = []
    for first in (0, 40, 43):
        for v in (first, first + 1):
            pendants.append((v, start))
            start += 1
    return Graph(start, edges + pendants)


def star_over_clique(leaves: int, size: int) -> Graph:
    """A centre joined to every vertex of K_size and to ``leaves`` leaves,
    beside a disjoint K_20: the leaves go first and bring the waiting
    centre down across the horizon, and once the centre's side is gone
    K_20 pushes the minimum degree past the horizon into a rescan."""
    centre = size
    edges = clique_edges(list(range(size)))
    edges += [(v, centre) for v in range(size)]
    edges += [(centre, centre + 1 + i) for i in range(leaves)]
    start = size + 1 + leaves
    edges += clique_edges(list(range(start, start + 20)))
    return Graph(start + 20, edges)


def horizon_crossing_graphs():
    yield Graph(0)
    yield Graph(1)
    yield cliques_with_pendants()
    for leaves in (1, 5, 16, 17, 40):
        for size in (15, 16, 17, 33):
            yield star_over_clique(leaves, size)
    for seed in range(4):
        yield intersection_graph(random_boxes(150, 2, seed))


def bit_rows(g: Graph) -> list[int]:
    """g's adjacency as bit rows, vertex u at bit n-1-u."""
    return [sum(1 << (g.n - 1 - u) for u in near) for near in g.adj]


def tied_graphs():
    """Graphs where many vertices share the minimum degree at every step:
    empty graphs, complete graphs, disjoint cliques and a matching."""
    for n in (1, 2, 3, 17, 64):
        yield Graph(n)
        yield Graph(n, clique_edges(list(range(n))))
    yield Graph(30, clique_edges(list(range(10))) + clique_edges(list(range(10, 20))))
    yield Graph(40, [(2 * i, 2 * i + 1) for i in range(20)])


def complete_graphs():
    """K_m where the palette m = Delta + 1 is at and around a power of two,
    so the rows' tree of classes is just full or has just doubled, and an
    edgeless graph, whose tree is a single leaf."""
    for m in (1, 2, 3, 4, 5, 15, 16, 17, 31, 32, 33, 63, 64, 65):
        yield Graph(m, clique_edges(list(range(m))))
    yield Graph(33)


class TestSmallestLastColoring:
    def test_horizon_rescans_keep_the_sorted_scan_order(self):
        """The queue files vertices only up to a horizon and rescans the
        rest when the search passes it; on graphs whose minimum degree
        crosses several horizons, rises and falls back, the order and the
        colors are still those of the sorted scan, whatever the order of
        the lists. Bit rows give them too, there, on graphs full of degree
        ties and on cliques that fill the tree of classes."""
        rng = random.Random(5)
        for g in [*horizon_crossing_graphs(), *tied_graphs(), *complete_graphs()]:
            want = brute_smallest_last_coloring(g.n, g.edges)
            got = smallest_last_coloring(g.adj)
            assert dict(enumerate(got.colors)) == want
            shuffled = Graph._from_adjacency(rng.sample(near, len(near)) for near in g.adj)
            assert smallest_last_coloring(shuffled.adj) == got
            assert _smallest_last_on_rows(bit_rows(g)) == got
            assert got.is_proper_on(g)

    @given(
        st.builds(
            lambda n, seed, p: random_graph(random.Random(seed), n, p),
            st.integers(0, 40),
            st.integers(0, 10**6),
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.02, 0.98)),
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_rows_color_like_the_lists(self, g):
        """The bit-sliced degrees and class masks give the lists' removal
        order and colors, isolated vertices and degree ties included."""
        want = brute_smallest_last_coloring(g.n, g.edges)
        got = _smallest_last_on_rows(bit_rows(g))
        assert got == smallest_last_coloring(g.adj)
        assert dict(enumerate(got.colors)) == want

    @given(
        st.builds(
            lambda n, seed, p: random_graph(random.Random(seed), n, p),
            st.integers(0, 30),
            st.integers(0, 10**6),
            st.floats(0.05, 0.9),
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_neighbor_order_changes_nothing(self, g, rng):
        """Lists promise no order, so shuffling every adjacency list must
        leave the coloring and the self-check's verdicts as they are."""
        shuffled = Graph._from_adjacency(rng.sample(near, len(near)) for near in g.adj)
        got = smallest_last_coloring(shuffled.adj)
        assert got == smallest_last_coloring(g.adj)
        assert dict(enumerate(got.colors)) == brute_smallest_last_coloring(g.n, g.edges)
        assert got.is_proper_on(shuffled)
        for u, v in g.edges:
            clash = list(got.colors)
            clash[v] = clash[u]
            assert not Coloring(clash).is_proper_on(shuffled)
        if g.n:
            assert not Coloring(got.colors[:-1]).is_proper_on(shuffled)


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
        assert degeneracy_coloring(k4.adj, 3) is None
        col = degeneracy_coloring(k4.adj, 4)
        assert col is not None and col.is_proper_on(k4)

    @given(graph_strategy, st.integers(1, 8))
    @settings(max_examples=60)
    def test_proper_when_it_succeeds(self, g, bound):
        col = degeneracy_coloring(g.adj, bound)
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

