"""Gradings, tournament sizes, calm tree embeddings, and the dichotomy."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxforest import (
    CalmEmbedding,
    CalmSearchError,
    Digraph,
    Grading,
    Graph,
    HostGraphError,
    Layering,
    RootedTree,
    TournamentOracle,
    boxes_from_rows,
    calm_precondition_error,
    complete_kary_tree,
    decompose,
    embed_calm_tree,
    find_path_induced_tree,
    grading_error,
    intersection_graph,
    is_path_induced,
    normalize,
    peel_grading,
    random_boxes,
    verify_calm,
)
from bruteforce import (
    adjacency,
    brute_omega,
    brute_peel_coloring,
    check_layering,
    is_clique,
)


def transitive_tournament(n: int) -> Digraph:
    return Digraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def branching_dag(depth: int, fanout: int) -> Digraph:
    """Arcs from each internal level vertex to its own fanout children."""
    levels = [[0]]
    total = 1
    for _ in range(depth):
        nxt = list(range(total, total + len(levels[-1]) * fanout))
        levels.append(nxt)
        total += len(nxt)
    arcs = []
    for above, below in zip(levels, levels[1:]):
        for i, u in enumerate(above):
            arcs.extend((u, below[i * fanout + j]) for j in range(fanout))
    return Digraph(total, arcs)


def random_digraph(rng: random.Random, n: int, p: float) -> Digraph:
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return Digraph(n, arcs)


def random_dag(rng: random.Random, n: int, p: float) -> Digraph:
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Digraph(n, arcs)


def largest(members: list[int], accepts) -> int:
    """Size of the largest sorted subset of members that accepts takes."""
    for size in range(len(members), 0, -1):
        if any(map(accepts, combinations(members, size))):
            return size
    return 0


digraph_strategy = st.builds(
    lambda n, seed, p: random_digraph(random.Random(seed), n, p),
    st.integers(1, 8),
    st.integers(0, 10**6),
    st.floats(0.1, 0.7),
)

dag_strategy = st.builds(
    lambda n, seed, p: random_dag(random.Random(seed), n, p),
    st.integers(1, 8),
    st.integers(0, 10**6),
    st.floats(0.1, 0.9),
)


class TestGrading:
    def test_levels_and_lookup(self):
        g = Grading((frozenset({0}), frozenset({0, 1, 2})), 1)
        assert g.m == 2
        assert g.level_of(0) == 1
        assert g.level_of(2) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Grading((), 1)
        with pytest.raises(ValueError):
            Grading((frozenset({0}),), 0)

    def test_grading_error_messages(self):
        dg = transitive_tournament(4)
        ok = Grading((frozenset({0, 1, 2}), frozenset(range(4))), 1)
        assert grading_error(dg, ok) is None
        empty_first = Grading((frozenset(), frozenset(range(4))), 1)
        assert "X_1" in grading_error(dg, empty_first)
        not_nested = Grading((frozenset({3}), frozenset({0, 1})), 1)
        assert grading_error(dg, not_nested) is not None
        not_full = Grading((frozenset({0}), frozenset({0, 1})), 1)
        assert "full vertex set" in grading_error(dg, not_full)
        deficit = Grading((frozenset({3}), frozenset(range(4))), 1)
        assert "out-neighbors" in grading_error(dg, deficit)


class TestPeelGrading:
    def test_survivors_grade(self):
        dg = transitive_tournament(4)
        res = peel_grading(dg, 1, 2)
        assert isinstance(res, Grading)
        assert res.levels == (frozenset({0, 1, 2}), frozenset(range(4)))
        assert grading_error(dg, res) is None

    def test_exhaustion_layers(self):
        # an arc-free digraph peels out whole in round 1, and round 2 is empty
        dg = Digraph(5, [])
        res = peel_grading(dg, 1, 3)
        assert res == Layering((frozenset(range(5)), frozenset()))
        check_layering(5, [], 1, 3, res.layers)

    def test_single_level_is_trivial_grading(self):
        dg = Digraph(3, [])
        res = peel_grading(dg, 7, 1)
        assert isinstance(res, Grading)
        assert res.levels == (frozenset({0, 1, 2}),)

    def test_parameter_validation(self):
        dg = Digraph(1, [])
        with pytest.raises(ValueError):
            peel_grading(dg, 0, 2)
        with pytest.raises(ValueError):
            peel_grading(dg, 1, 0)

    @given(digraph_strategy, st.integers(1, 4), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_dichotomy(self, dg, k, m):
        res = peel_grading(dg, k, m)
        if isinstance(res, Grading):
            assert res.m == m and res.k == k
            assert grading_error(dg, res) is None
        else:
            # the layers are the all-pairs peel's, and the paper's coloring
            # of them (2k - 1 colors a layer, or brute_peel_coloring raises)
            # is proper within 2k(m - 1) colors
            assert isinstance(res, Layering) and len(res.layers) == m - 1
            check_layering(dg.n, dg.arcs, k, m, res.layers)
            colors = brute_peel_coloring(dg.n, dg.arcs, k, m)
            assert all(colors[u] != colors[v] for u, v in dg.arcs)
            assert max(colors.values(), default=-1) < 2 * k * (m - 1)


class TestTournamentSize:
    def test_hand_values(self):
        dg = transitive_tournament(4)
        # middle of (0, 3) is {1, 2}, adjacent, so a 2-clique inside
        assert TournamentOracle(dg).size(0, 3) == 4
        assert TournamentOracle(dg).size(0, 2) == 3
        assert TournamentOracle(dg).size(0, 1) == 2
        assert TournamentOracle(dg).size(1, 0) == 0
        assert TournamentOracle(dg).size(3, 3) == 0

    def test_non_adjacent_middle(self):
        dg = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])
        # 1 and 2 are not adjacent, so the middle clique has size 1
        assert TournamentOracle(dg).size(0, 3) == 3

    def test_rejects_cycles(self):
        with pytest.raises(ValueError):
            TournamentOracle(Digraph(2, [(0, 1), (1, 0)])).size(0, 1)

    @given(st.integers(0, 10**6), st.integers(2, 10), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_equals_largest_clique_on_pattern_digraphs(self, seed, n, d):
        # in a pattern digraph the arcs inside a universe are transitive, so
        # its longest chain is its largest clique
        boxes = random_boxes(n, d, seed=seed)
        for pd in decompose(boxes, intersection_graph(boxes)):
            dg = pd.digraph
            adj = adjacency(dg.n, dg.arcs)
            oracle = TournamentOracle(dg)
            for u, v in dg.arcs:
                middle = sorted(dg.out[u] & dg.inn[v])
                assert oracle.size(u, v) == 2 + largest(
                    middle, lambda c: is_clique(adj, c)
                )

    @given(dag_strategy)
    @settings(max_examples=60, deadline=None)
    def test_equals_longest_chain_on_dags(self, dg):
        adj = adjacency(dg.n, dg.arcs)
        for u in range(dg.n):
            for v in range(dg.n):
                if u == v:
                    continue
                got = TournamentOracle(dg).size(u, v)
                if not dg.has_arc(u, v):
                    assert got == 0
                    continue
                middle = sorted(dg.out[u] & dg.inn[v])
                # random_dag's arcs rise in id, so a chain is an ascending run
                chain = largest(
                    middle, lambda c: all(map(dg.has_arc, c, c[1:]))
                )
                assert got == 2 + chain
                # every clique of a DAG is a transitive tournament, so a chain
                assert got >= 2 + largest(middle, lambda c: is_clique(adj, c))


class TestEmbedCalmTree:
    def test_embeds_edge_with_maximal_tournament(self):
        dg = transitive_tournament(4)
        grading = peel_grading(dg, 1, 2)
        emb = embed_calm_tree(dg, grading, complete_kary_tree(1, 1), 4)
        assert emb is not None
        assert emb.phi == {0: 0, 1: 3}
        assert emb.tournament_sizes == {(0, 1): 4}
        assert verify_calm(dg, grading, emb)

    def test_precondition_failures_return_none(self):
        dg = transitive_tournament(4)
        grading = peel_grading(dg, 1, 2)
        # k too small for a two-child star
        star = complete_kary_tree(1, 2)
        assert calm_precondition_error(dg, grading, star, 4) is not None
        assert embed_calm_tree(dg, grading, star, 4) is None
        # m too small for a deep path in a dense digraph
        g2 = peel_grading(dg, 2, 2)
        path = complete_kary_tree(2, 1)
        assert isinstance(g2, Grading)
        assert calm_precondition_error(dg, g2, path, 4) is not None
        assert embed_calm_tree(dg, g2, path, 4) is None

    def test_stuck_without_out_arcs(self):
        dg = Digraph(3, [])
        grading = Grading((frozenset({0, 1, 2}),), 1)
        assert grading_error(dg, grading) is None
        t = complete_kary_tree(1, 1)
        assert calm_precondition_error(dg, grading, t, 1) is None
        with pytest.raises(CalmSearchError):
            embed_calm_tree(dg, grading, t, 1)

    def test_deep_embedding_in_branching_dag(self):
        dg = branching_dag(3, 3)
        t = complete_kary_tree(2, 1)
        grading = peel_grading(dg, t.n, 4)
        assert isinstance(grading, Grading)
        emb = embed_calm_tree(dg, grading, t, 2)
        assert emb is not None
        assert verify_calm(dg, grading, emb)
        assert is_path_induced(dg, t, emb.phi)

    @pytest.mark.parametrize("w", [0, -3])
    def test_clique_number_below_one_is_refused(self, w):
        dg = transitive_tournament(4)
        grading = peel_grading(dg, 1, 2)
        star = complete_kary_tree(1, 2)
        with pytest.raises(ValueError, match="clique number"):
            calm_precondition_error(dg, grading, star, w)
        with pytest.raises(ValueError, match="clique number"):
            embed_calm_tree(dg, grading, star, w)


class TestVerifyCalm:
    def setup_method(self):
        self.dg = transitive_tournament(4)
        self.grading = peel_grading(self.dg, 1, 2)
        self.emb = embed_calm_tree(
            self.dg, self.grading, complete_kary_tree(1, 1), 4
        )

    def test_accepts_honest_embedding(self):
        assert verify_calm(self.dg, self.grading, self.emb)

    def test_rejects_non_maximal_choice(self):
        # mapping the child to 1 ignores the bigger tournament toward 3
        fake = CalmEmbedding(self.emb.tree, {0: 0, 1: 1}, {(0, 1): 2})
        assert not verify_calm(self.dg, self.grading, fake)

    def test_rejects_wrong_stored_size(self):
        fake = CalmEmbedding(self.emb.tree, dict(self.emb.phi), {(0, 1): 99})
        assert not verify_calm(self.dg, self.grading, fake)

    def test_rejects_root_outside_first_level(self):
        grading = Grading((frozenset({0}), frozenset(range(4))), 1)
        assert grading_error(self.dg, grading) is None
        fake = CalmEmbedding(self.emb.tree, {0: 1, 1: 2}, {(0, 1): 2})
        assert not verify_calm(self.dg, grading, fake)

    def test_rejects_non_arcs_and_non_injective(self):
        fake = CalmEmbedding(self.emb.tree, {0: 3, 1: 0}, {(0, 1): 2})
        assert not verify_calm(self.dg, self.grading, fake)
        fake = CalmEmbedding(self.emb.tree, {0: 0, 1: 0}, {(0, 1): 2})
        assert not verify_calm(self.dg, self.grading, fake)

    def test_rejects_slack_violation(self):
        # level gap 2 needs tournament size >= 3, a bare arc is too weak
        dg = Digraph(4, [(0, 1), (0, 3), (1, 2), (2, 3)])
        assert TournamentOracle(dg).size(0, 3) == 2
        grading = Grading(
            (frozenset({0}), frozenset({0, 1}), frozenset(range(4))), 1
        )
        assert grading_error(dg, grading) is None
        t = RootedTree([None, 0])
        fake = CalmEmbedding(t, {0: 0, 1: 3}, {(0, 1): 2})
        assert not verify_calm(dg, grading, fake)


class TestFindPathInducedTree:
    def test_star_embeds(self):
        dg = Digraph(4, [(0, 1), (0, 2), (0, 3)])
        res = find_path_induced_tree(dg, Graph(dg.n, dg.arcs), complete_kary_tree(1, 2), 2)
        assert isinstance(res, CalmEmbedding)
        assert res.phi[0] == 0

    def test_edgeless_layers(self):
        # m is bumped to 2, so the one round peels every vertex
        dg = Digraph(4, [])
        res = find_path_induced_tree(dg, Graph(4, []), complete_kary_tree(1, 1), 1)
        assert res == Layering((frozenset(range(4)),))
        check_layering(4, [], complete_kary_tree(1, 1).n, 2, res.layers)

    def test_deep_tree_embeds_in_branching_dag(self):
        dg = branching_dag(3, 3)
        res = find_path_induced_tree(dg, Graph(dg.n, dg.arcs), complete_kary_tree(2, 1), 2)
        assert isinstance(res, CalmEmbedding)
        assert is_path_induced(dg, res.tree, res.phi)

    def test_host_shortcut_edge_detected(self):
        dg = branching_dag(3, 3)
        res = find_path_induced_tree(dg, Graph(dg.n, dg.arcs), complete_kary_tree(2, 1), 2)
        assert isinstance(res, CalmEmbedding)
        # plant a host edge joining the embedded root to the grandchild
        u, v = res.phi[0], res.phi[2]
        host = Graph(dg.n, [*dg.arcs, (u, v)])
        with pytest.raises(HostGraphError):
            find_path_induced_tree(dg, host, complete_kary_tree(2, 1), 2)

    def test_vertex_count_mismatch(self):
        with pytest.raises(ValueError):
            find_path_induced_tree(
                Digraph(2, []), Graph(3, []), complete_kary_tree(1, 1), 1
            )

    def test_empty_digraph(self):
        res = find_path_induced_tree(
            Digraph(0, []), Graph(0, []), complete_kary_tree(1, 1), 1
        )
        assert res == Layering(())

    @pytest.mark.parametrize("n", [0, 4])
    def test_clique_number_below_one_is_refused(self, n):
        # refused before peeling, so also where the answer would be layers
        with pytest.raises(ValueError, match="clique number"):
            find_path_induced_tree(
                Digraph(n, []), Graph(n, []), complete_kary_tree(1, 1), 0
            )

    @given(
        st.integers(0, 10**6),
        st.integers(2, 7),
        st.integers(1, 2),
        st.sampled_from([(1, 1), (1, 2), (2, 1)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_dichotomy_on_real_pattern_digraphs(self, seed, n, d, shape):
        rng = random.Random(seed)
        rows = []
        for _ in range(n):
            row = []
            for _ in range(d):
                a, b = rng.randrange(0, 4 * n), rng.randrange(0, 4 * n)
                row.extend((min(a, b), max(a, b) + 1))
            rows.append(row)
        boxes = normalize(boxes_from_rows(rows))
        g = intersection_graph(boxes)
        t = complete_kary_tree(*shape)
        for pd in decompose(boxes, g):
            w = brute_omega(g.n, pd.digraph.arcs)
            res = find_path_induced_tree(pd.digraph, g, t, w)
            if isinstance(res, Layering):
                # find_path_induced_tree peels with k = |T| and m = depth * omega
                m = max(2, t.depth() * w)
                check_layering(g.n, pd.digraph.arcs, t.n, m, res.layers)
            else:
                assert is_path_induced(pd.digraph, t, res.phi)
                for v in range(t.n):
                    for a in t.ancestors(v)[1:]:
                        assert not g.adjacent(res.phi[a], res.phi[v])
