"""Every family entry ranks raw boxes itself.

Families are drawn with ids 0..n-1 listed shuffled and bounds that are
ints, Fractions or floats from a small range, so shared endpoints and
zero-width sides occur. On each, every entry must give what it gives on
``normalize`` of the family, and a certificate of the raw family must
verify against it.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from boxforest import (
    box,
    certificate_to_json,
    color_or_find_forest,
    decompose,
    intersecting_pairs,
    intersection_graph,
    normalize,
    parse_certificate,
    verify_certificate,
)
from boxforest.geometry import _by_id
from bruteforce import brute_omega

COORDINATE = st.builds(
    lambda kind, x: (x, Fraction(x, 3), x / 2)[kind], st.integers(0, 2), st.integers(0, 6)
)


@st.composite
def raw_families(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 3))
    ids = draw(st.permutations(range(n)))
    return [
        box(i, *(tuple(sorted(draw(st.tuples(COORDINATE, COORDINATE)))) for _ in range(d)))
        for i in ids
    ]


def _arcs(boxes) -> dict[str, frozenset]:
    return {str(pd.pattern): pd.digraph.arcs for pd in decompose(boxes, intersection_graph(boxes))}


@given(raw_families(), st.integers(0, 2), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_entries_give_on_raw_boxes_what_they_give_on_their_ranks(raw, r, k):
    ranked = normalize(raw)
    assert normalize(ranked) is ranked
    ordered = _by_id(raw)
    assert _by_id(ordered) is ordered and normalize(ordered) is ordered

    assert sorted(intersecting_pairs(raw)) == sorted(intersecting_pairs(ranked))
    graph = intersection_graph(raw)
    assert list(map(set, graph.adj)) == list(map(set, intersection_graph(ranked).adj))
    assert _arcs(raw) == _arcs(ranked)

    w = brute_omega(graph.n, graph.edges)
    text = certificate_to_json(color_or_find_forest(raw, r, k, omega_bound=w))
    assert text == certificate_to_json(color_or_find_forest(ranked, r, k, omega_bound=w))
    ok, message = verify_certificate(raw, parse_certificate(text))
    assert ok, message
