"""Exact solvers cross-checked against the subset-scan references."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxforest import (
    Graph,
    OracleLimitError,
    maximum_clique,
    maximum_independent_set,
    omega,
    oracles,
)
from bruteforce import brute_alpha, brute_omega


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


graph_strategy = st.builds(
    lambda n, seed, p: random_graph(random.Random(seed), n, p),
    st.integers(0, 9),
    st.integers(0, 10**6),
    st.floats(0.05, 0.95),
)


class TestWitnesses:
    @given(graph_strategy)
    @settings(max_examples=80, deadline=None)
    def test_clique_witness_is_a_clique(self, g):
        w = maximum_clique(g)
        assert all(g.adjacent(u, v) for u, v in combinations(sorted(w), 2))
        assert len(w) == brute_omega(g.n, g.edges)

    @given(graph_strategy)
    @settings(max_examples=80, deadline=None)
    def test_independent_witness_is_independent(self, g):
        w = maximum_independent_set(g)
        assert all(not g.adjacent(u, v) for u, v in combinations(sorted(w), 2))
        assert len(w) == brute_alpha(g.n, g.edges)


def values(g: Graph) -> tuple[int, int]:
    """omega and alpha, the latter as the size of the independent witness."""
    return omega(g), len(maximum_independent_set(g))


class TestValuesAgainstBruteforce:
    def test_known_values(self):
        k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        assert values(k5) == (5, 1)
        c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert values(c5) == (2, 2)
        assert values(Graph(0, [])) == (0, 0)
        assert values(Graph(1, [])) == (1, 1)

    def test_deterministic_witnesses(self):
        g = random_graph(random.Random(99), 9, 0.5)
        assert maximum_clique(g) == maximum_clique(g)
        assert maximum_independent_set(g) == maximum_independent_set(g)


@pytest.fixture
def limits_of_five(monkeypatch):
    monkeypatch.setattr(oracles, "OMEGA_LIMIT", 5)


@pytest.mark.usefixtures("limits_of_five")
class TestRefusals:
    def test_each_oracle_refuses_above_limit(self):
        g = random_graph(random.Random(1), 6, 0.5)
        for fn, name in (
            (maximum_clique, "omega"), (omega, "omega"), (maximum_independent_set, "alpha")
        ):
            with pytest.raises(OracleLimitError) as exc:
                fn(g)
            assert exc.value.size == 6 and exc.value.oracle == name
            assert str(exc.value) == f"{name} oracle refuses n=6 above its limit 5"

    def test_at_limit_is_allowed(self):
        g = random_graph(random.Random(2), 5, 0.5)
        assert values(g) == (brute_omega(g.n, g.edges), brute_alpha(g.n, g.edges))
