"""End-to-end dichotomy, bounds, extraction, and certificate handling."""

from __future__ import annotations

import json
import random
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxforest import (
    Box,
    CalmSearchError,
    Coloring,
    InducedTree,
    InternalInvariantError,
    OracleLimitError,
    ProperColoring,
    boxes_from_rows,
    certificate_to_json,
    chi_bound,
    color_or_find_forest,
    complete_kary_tree,
    extract_independent,
    grid_disjoint_boxes,
    intersection_graph,
    intersects,
    nested_chain_boxes,
    normalize,
    omega,
    parse_certificate,
    pipeline,
    random_boxes,
    tree_vertex_count,
    verify_certificate,
)
from boxforest.graphs import smallest_last_coloring
from bruteforce import brute_alpha, brute_extract_independent, find_induced_copy


def stated_bound(d, r, k, w):
    """The paper's stated bound (2 r k^d w^2)^(4^d), in the raw branching k."""
    return (2 * r * k**d * w**2) ** (4**d)


class TestChiBound:
    def test_reference_values(self):
        # (2 r |T| w)^(4^d) with |T| = 2 and 3; the stated bound is 16 and 256
        assert chi_bound(1, 1, 1, 1) == 256
        assert stated_bound(1, 1, 1, 1) == 16
        assert chi_bound(1, 1, 2, 1) == 1296
        assert stated_bound(1, 1, 2, 1) == 256

    def test_formula_shape(self):
        for d in (1, 2, 3):
            for r in (0, 1, 2, 3):
                for k in (1, 2, 3):
                    for w in (1, 2, 4):
                        size = tree_vertex_count(r, k**d * w)
                        assert chi_bound(d, r, k, w) == (2 * r * size * w) ** (4**d)

    def test_derived_dominates_stated_when_branching_at_least_two(self):
        for d in (1, 2, 3):
            for r in (1, 2, 3, 4):
                for k in (1, 2, 3):
                    for w in (1, 2, 3, 4):
                        if k**d * w < 2:
                            continue
                        assert chi_bound(d, r, k, w) >= stated_bound(d, r, k, w)

    def test_validation(self):
        for bad in ((0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)):
            with pytest.raises(ValueError):
                chi_bound(*bad)

    def test_tree_vertex_count(self):
        assert tree_vertex_count(0, 3) == 1
        assert tree_vertex_count(2, 1) == 3
        assert tree_vertex_count(2, 2) == 7
        assert tree_vertex_count(3, 2) == 15
        for depth in range(4):
            for branching in range(1, 4):
                t = complete_kary_tree(depth, branching)
                assert tree_vertex_count(depth, branching) == t.n


class TestExtractIndependent:
    @given(st.integers(0, 10**6), st.integers(1, 40), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_disjoint_and_large_enough(self, seed, n, d):
        boxes = random_boxes(n, d, seed=seed)
        found = extract_independent(boxes)
        picked = [boxes[i] for i in found]
        assert len(set(found)) == len(found)
        for i, a in enumerate(picked):
            for b in picked[i + 1:]:
                assert not intersects(a, b)
        w = omega(intersection_graph(boxes))
        need = 1
        while need**d * w < n:
            need += 1
        assert len(found) >= need

    @given(
        st.integers(0, 10**6),
        st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_finds_k_among_k_to_the_d_times_omega(self, seed, shape):
        # the child count of a vertex of the embedded tree: the shortest
        # prefix of 40 random boxes with exactly k^d * omega of them, which
        # exists once n outgrows k^d * omega, because that gap starts at
        # k^d - 1 >= 0 and falls by one per box unless omega grows
        k, d = shape
        rng = random.Random(seed)
        rows = []
        for _ in range(40):
            row = []
            for _ in range(d):
                lo = rng.randrange(100)
                row.extend((lo, lo + rng.randint(1, 40)))
            rows.append(row)
        boxes = normalize(boxes_from_rows(rows))
        prefix = None
        for n in range(1, len(boxes) + 1):
            if n == k**d * omega(intersection_graph(boxes[:n])):
                prefix = boxes[:n]
                break
        assume(prefix is not None)
        found = extract_independent(prefix)
        assert len(found) >= k
        picked = [prefix[i] for i in found]
        for i, a in enumerate(picked):
            for b in picked[i + 1:]:
                assert not intersects(a, b)

    @given(st.integers(0, 10**6), st.integers(1, 30), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_recursive_reference(self, seed, n, d):
        # a narrow range gives shared endpoints, and a sample of the boxes
        # gives ids with gaps, as among a tree vertex's children
        rng = random.Random(seed)
        rows = []
        for _ in range(n):
            row = []
            for _ in range(d):
                lo = rng.randrange(12)
                row.extend((lo, lo + rng.randrange(6)))
            rows.append(row)
        boxes = boxes_from_rows(rows)
        boxes = rng.sample(boxes, rng.randint(1, n))
        plain = {b.id: tuple((s.lo, s.hi) for s in b.sides) for b in boxes}
        assert extract_independent(boxes) == brute_extract_independent(plain)

    def test_exact_on_intervals(self):
        for seed in range(25):
            boxes = random_boxes(10, 1, seed=seed)
            g = intersection_graph(boxes)
            assert len(extract_independent(boxes)) == brute_alpha(g.n, g.edges)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            extract_independent([])


def roundtrip(cert):
    return parse_certificate(certificate_to_json(cert))


class TestColorOrFindForest:
    def test_interval_instances_color_exactly_omega(self):
        for seed in range(10):
            boxes = random_boxes(12, 1, seed=seed)
            cert = color_or_find_forest(boxes, r=2, k=2)
            assert isinstance(cert, ProperColoring)
            g = intersection_graph(boxes)
            # a proper coloring with omega colors shows chi = omega
            assert cert.coloring.palette_size == omega(g)
            assert cert.coloring.is_proper_on(g)

    def test_star_yields_tree_certificate(self):
        rows = [[0, 9, 0, 9], [1, 2, 1, 2], [4, 5, 4, 5], [7, 8, 7, 8]]
        boxes = normalize(boxes_from_rows(rows))
        cert = color_or_find_forest(boxes, r=1, k=1)
        assert isinstance(cert, InducedTree)
        assert cert.r == 1 and cert.k == 1
        ok, msg = verify_certificate(boxes, roundtrip(cert))
        assert ok, msg

    def test_tree_matches_independent_search(self):
        rows = [[0, 9, 0, 9], [1, 2, 1, 2], [4, 5, 4, 5], [7, 8, 7, 8]]
        boxes = normalize(boxes_from_rows(rows))
        cert = color_or_find_forest(boxes, r=1, k=2)
        g = intersection_graph(boxes)
        t = complete_kary_tree(1, 2)
        if isinstance(cert, InducedTree):
            assert find_induced_copy(g, t) is not None
        else:
            assert cert.coloring.is_proper_on(g)

    def test_oversized_tree_short_circuits_to_coloring(self):
        # K = k^d * omega makes the complete tree bigger than the instance,
        # so no pattern can embed it and the host graph colors smallest-last
        boxes = random_boxes(6, 2, seed=3)
        cert = color_or_find_forest(boxes, r=3, k=3)
        assert isinstance(cert, ProperColoring)
        g = intersection_graph(boxes)
        assert cert.coloring.is_proper_on(g)
        assert (cert.r, cert.k) == (3, 3)
        assert cert.coloring.palette_size <= chi_bound(2, 3, 3, omega(g))

    def test_a_tree_outcome_builds_no_bound(self, monkeypatch):
        # the counter builds nothing: in d = 16 the bound has billions of digits
        calls = []
        real = chi_bound
        monkeypatch.setattr(pipeline, "chi_bound", lambda *args: calls.append(args) or real(*args))
        star = [[0, 9, 0, 9], [1, 2, 1, 2], [4, 5, 4, 5], [7, 8, 7, 8]]
        star16 = [[0, 9] * 16] + [[a, a + 1] * 16 for a in (1, 4, 7)]
        for rows, r in ((star, 1), (star16, 1), (star, 0)):
            cert = color_or_find_forest(normalize(boxes_from_rows(rows)), r=r, k=1)
            assert isinstance(cert, InducedTree)
        # nor does a coloring whose palette has at most 2 * 4^d bits, as
        # every coloring in d >= 2 below 2^32 colors: the bound is at least
        # 4^(4^d). In d = 1 that is a palette below 256
        for d in (1, 2, 3):
            boxes = random_boxes(12, d, seed=3)
            cert = color_or_find_forest(boxes, r=3, k=3)
            assert isinstance(cert, ProperColoring)
            assert verify_certificate(boxes, roundtrip(cert))[0]
        assert calls == []
        # a palette of 256 or more in d = 1 builds it: here (2 * 2 * 1)^4
        boxes = grid_disjoint_boxes(3, 1)
        for palette, ok in ((256, True), (257, False)):
            payload = {"kind": "coloring", "palette": palette, "colors": [0, 0, palette - 1]}
            payload.update(r=1, k=1)
            assert verify_certificate(boxes, payload)[0] is ok
        assert calls == [(1, 1, 1, 1)] * 2

    def test_depth_zero_returns_single_box_tree(self):
        boxes = random_boxes(5, 2, seed=1)
        cert = color_or_find_forest(boxes, r=0, k=3)
        assert isinstance(cert, InducedTree)
        assert cert.mapping == (0,)
        ok, msg = verify_certificate(boxes, roundtrip(cert))
        assert ok, msg

    def test_omega_bound_skips_oracle(self):
        boxes = grid_disjoint_boxes(60, 2)  # above the omega oracle limit
        with pytest.raises(OracleLimitError):
            color_or_find_forest(boxes, r=1, k=1)
        cert = color_or_find_forest(boxes, r=1, k=1, omega_bound=1)
        assert isinstance(cert, ProperColoring)
        assert cert.coloring.palette_size == 1

    def test_bound_below_omega_is_a_search_error_not_a_bug(self, monkeypatch):
        # omega is 7; a caller's bound of 1 embeds a tree whose root has only
        # one disjoint child, which proves the bound wrong
        boxes = random_boxes(12, 2, seed=0)
        with pytest.raises(CalmSearchError, match="disjoint children"):
            color_or_find_forest(boxes, r=1, k=2, omega_bound=1)
        # the same shortfall with omega from the exact oracle is a bug
        monkeypatch.setattr(pipeline, "omega", lambda g: 1)
        with pytest.raises(InternalInvariantError, match="disjoint children"):
            color_or_find_forest(boxes, r=1, k=2)

    def test_reruns_agree(self):
        boxes = random_boxes(10, 2, seed=11)
        one = color_or_find_forest(boxes, r=1, k=2)
        again = color_or_find_forest(boxes, r=1, k=2)
        assert certificate_to_json(one) == certificate_to_json(again)

    def test_validation(self):
        boxes = random_boxes(4, 2, seed=0)
        with pytest.raises(ValueError):
            color_or_find_forest([], r=1, k=1)
        with pytest.raises(ValueError):
            color_or_find_forest(boxes, r=-1, k=1)
        with pytest.raises(ValueError):
            color_or_find_forest(boxes, r=1, k=0)

    @given(
        st.integers(0, 10**6),
        st.integers(1, 10),
        st.integers(1, 2),
        st.sampled_from([(1, 1), (1, 2), (2, 2)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_certificates_always_verify(self, seed, n, d, shape):
        boxes = random_boxes(n, d, seed=seed)
        r, k = shape
        cert = color_or_find_forest(boxes, r=r, k=k)
        ok, msg = verify_certificate(boxes, roundtrip(cert))
        assert ok, msg
        if isinstance(cert, ProperColoring):
            w = omega(intersection_graph(boxes))
            assert cert.coloring.palette_size <= chi_bound(d, r, k, w)


class TestColoringFromTheBoxes:
    """Where no tree is sought (d = 1, or omega given in d >= 2 and
    |T| > n - 1), a dense host graph is colored on bit rows from the boxes,
    and the coloring is checked by a sweep labelled by its colors, not on
    the host graph's lists."""

    @pytest.fixture
    def dense(self, monkeypatch):
        boxes = random_boxes(40, 2, seed=1)  # 2m / n^2 about 0.42, omega 16

        def refuse(*args):
            raise AssertionError("host graph built")

        monkeypatch.setattr(pipeline, "intersection_graph", refuse)
        return boxes

    def test_a_dense_family_is_colored_without_a_host_graph(self, dense):
        cert = color_or_find_forest(dense, 2, 2, omega_bound=16)
        assert isinstance(cert, ProperColoring)
        ok, msg = verify_certificate(dense, roundtrip(cert))
        assert ok, msg

    def test_dense_intervals_are_colored_without_a_host_graph(self, monkeypatch):
        # in d = 1 no tree is sought, with or without omega; a sparse
        # family still builds the host graph and colors it on its lists
        def reference(boxes):
            coloring = smallest_last_coloring(intersection_graph(boxes).adj)
            return certificate_to_json(ProperColoring(coloring, 1, 1))

        dense = [nested_chain_boxes(2000, 1), random_boxes(3000, 1, seed=3)]
        sparse = grid_disjoint_boxes(50, 1)
        wanted = [reference(boxes) for boxes in (*dense, sparse)]
        built = []

        def refuse(boxes):
            built.append(len(boxes))
            raise AssertionError("host graph built")

        monkeypatch.setattr(pipeline, "intersection_graph", refuse)
        for boxes, want in zip(dense, wanted):
            assert certificate_to_json(color_or_find_forest(boxes, 1, 1)) == want
        assert built == []
        with pytest.raises(AssertionError, match="host graph built"):
            color_or_find_forest(sparse, 1, 1)
        assert built == [50]
        monkeypatch.setattr(pipeline, "intersection_graph", intersection_graph)
        assert certificate_to_json(color_or_find_forest(sparse, 1, 1)) == wanted[2]

    @pytest.mark.parametrize(
        "bad",
        [
            Coloring([0] * 40),  # every pair clashes
            Coloring(range(39)),  # box 39 has no color
        ],
        ids=["clash", "missing"],
    )
    def test_the_self_check_refuses_a_bad_coloring(self, dense, monkeypatch, bad):
        monkeypatch.setattr(pipeline, "_smallest_last_on_rows", lambda rows: bad)
        with pytest.raises(InternalInvariantError, match="improper on the boxes"):
            color_or_find_forest(dense, 2, 2, omega_bound=16)

    @given(
        st.integers(0, 10**6),
        st.integers(2, 30),
        st.integers(2, 3),
        st.integers(1, 4),
        st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_the_certificate_is_the_host_graphs(self, seed, n, d, spread, shape):
        # sides up to ``spread`` quarters of the range: dense and sparse
        # families, compared with smallest-last on the host graph's lists
        r, k = shape
        rng = random.Random(seed)
        rows = []
        for _ in range(n):
            row = []
            for _ in range(d):
                lo = rng.randrange(100)
                row.extend((lo, lo + rng.randint(1, 25 * spread)))
            rows.append(row)
        boxes = normalize(boxes_from_rows(rows))
        g = intersection_graph(boxes)
        w = omega(g)
        assume(tree_vertex_count(r, k**d * w) > n - 1)
        cert = color_or_find_forest(boxes, r, k, omega_bound=w)
        expected = ProperColoring(smallest_last_coloring(g.adj), r, k)
        assert certificate_to_json(cert) == certificate_to_json(expected)


class TestCertificateObjects:
    """A certificate object holds what its JSON holds, so it cannot state a
    palette or a tree that ``verify`` works out differently."""

    STAR = [[0, 9, 0, 9], [1, 2, 1, 2], [4, 5, 4, 5], [7, 8, 7, 8]]

    def test_a_coloring_states_no_palette(self):
        boxes = normalize(boxes_from_rows([[0, 1, 0, 1], [2, 3, 2, 3]]))
        with pytest.raises(TypeError):
            Coloring({0: 0, 1: 0}, 5)
        cert = ProperColoring(Coloring((0, 0)), 1, 1)
        assert roundtrip(cert)["palette"] == 1
        assert verify_certificate(boxes, roundtrip(cert)) == (
            True, "proper coloring with 1 color within bound"
        )

    def test_a_tree_certificate_states_no_tree(self):
        boxes = normalize(boxes_from_rows(self.STAR))
        with pytest.raises(TypeError):
            InducedTree(complete_kary_tree(1, 2), (0, 1), 1, 1)
        # the self-check builds the tree of r and k, as verify does: the
        # 3-vertex star that r = 1, k = 2 name is not covered by 2 boxes
        short = InducedTree((0, 1), 1, 2)
        assert pipeline._induced_tree_violation(short, boxes) == (
            "mapping does not cover the tree vertices"
        )
        with pytest.raises(ValueError, match="must cover tree vertices 0..2"):
            verify_certificate(boxes, roundtrip(short))
        # three boxes read as a path (r = 2, k = 1) rather than a star
        path = InducedTree((0, 1, 2), 2, 1)
        problem = "extra adjacency between tree vertices 0 and 2"
        assert pipeline._induced_tree_violation(path, boxes) == problem
        assert verify_certificate(boxes, roundtrip(path)) == (False, problem)
        star = InducedTree((0, 1, 2), 1, 2)
        assert pipeline._induced_tree_violation(star, boxes) is None
        assert verify_certificate(boxes, roundtrip(star))[0]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_verify_agrees_with_the_objects_own_checks(self, data):
        d = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 7))
        boxes = random_boxes(n, d, seed=data.draw(st.integers(0, 10**6)))
        r, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        coloring = Coloring(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        ok, msg = verify_certificate(boxes, roundtrip(ProperColoring(coloring, r, k)))
        assert ok == coloring.is_proper_on(intersection_graph(boxes)), msg
        # any mapping and any r and k: verify refuses a map that does not
        # fit the tree as an input error, and otherwise gives the
        # self-check's verdict
        mapping = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=n)))
        cert = InducedTree(mapping, data.draw(st.integers(0, 2)), k)
        problem = pipeline._induced_tree_violation(cert, boxes)
        try:
            ok, msg = verify_certificate(boxes, roundtrip(cert))
        except ValueError:
            assert problem == "mapping does not cover the tree vertices"
        else:
            assert ok == (problem is None)
            assert problem in (None, msg)


class TestCertificateJson:
    def test_canonical_bytes(self):
        boxes = random_boxes(8, 2, seed=2)
        cert = color_or_find_forest(boxes, r=1, k=2)
        a = certificate_to_json(cert)
        b = certificate_to_json(color_or_find_forest(boxes, r=1, k=2))
        assert a == b
        assert a.endswith("\n") and "\n" not in a[:-1]
        assert json.loads(a)["kind"] in ("coloring", "induced_tree")

    def test_colorings_of_any_depth_are_written_and_verify(self):
        # 3 disjoint boxes, k = 2: at depth 442 and up the bound has more
        # than 4300 digits, but no bound is written or built
        boxes = normalize(boxes_from_rows([[0, 1, 0, 1], [2, 3, 2, 3], [4, 5, 4, 5]]))
        start = time.perf_counter()
        for r in (441, 442, 10**6, 10**50):
            payload = roundtrip(color_or_find_forest(boxes, r=r, k=2))
            assert (payload["r"], payload["k"], payload["palette"]) == (r, 2, 1)
            assert verify_certificate(boxes, payload) == (
                True, "proper coloring with 1 color within bound"
            )
        assert time.perf_counter() - start < 1

    def test_interpreters_without_a_digit_limit_color_and_verify(self, monkeypatch):
        """CPython before 3.10.7 has no ``sys.get_int_max_str_digits``; a
        coloring is written and verified there all the same."""
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        boxes = normalize(random_boxes(30, 2, 1))
        cert = color_or_find_forest(boxes, 1, 1, omega_bound=30)
        assert isinstance(cert, ProperColoring)
        text = certificate_to_json(cert)
        assert (json.loads(text)["r"], json.loads(text)["k"]) == (1, 1)
        ok, msg = verify_certificate(boxes, parse_certificate(text))
        assert ok, msg

    def test_parse_rejects_malformed(self):
        good = {"kind": "coloring", "palette": 1, "r": 1, "k": 1, "colors": [0]}
        assert parse_certificate(json.dumps(good))["colors"] == [0]
        cases = [
            "not json",
            json.dumps([1, 2]),
            json.dumps({**good, "kind": "nope"}),
            json.dumps({**good, "kind": ["coloring"]}),
            json.dumps({k: v for k, v in good.items() if k != "palette"}),
            json.dumps({k: v for k, v in good.items() if k != "r"}),
            json.dumps({k: v for k, v in good.items() if k != "k"}),
            json.dumps({**good, "bound": 2}),
            json.dumps({**good, "r": -1}),
            json.dumps({**good, "k": 0}),
            json.dumps({**good, "r": True}),
            json.dumps({**good, "k": "1"}),
            json.dumps({**good, "palette": True}),
            json.dumps({**good, "palette": "1"}),
            json.dumps({**good, "colors": {"0": 0}}),
            json.dumps({**good, "colors": 0}),
            json.dumps({**good, "colors": ["red"]}),
            json.dumps({**good, "colors": [1.5]}),
            json.dumps({**good, "colors": [True]}),
            json.dumps({**good, "colors": [None]}),
            json.dumps({**good, "colors": [[0]]}),
            json.dumps({"kind": "induced_tree", "r": 0, "k": 1, "map": {"0": 0}}),
            json.dumps({"kind": "induced_tree", "r": -1, "k": 1, "map": []}),
            json.dumps({"kind": "induced_tree", "r": 1, "k": 0, "map": []}),
        ]
        for text in cases:
            with pytest.raises(ValueError):
                parse_certificate(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"colors":[0],"k":1,"kind":"coloring","palette":1,"r":1}',
            '{"k":1,"kind":"induced_tree","map":[0],"r":0}',
        ],
        ids=["coloring", "induced_tree"],
    )
    def test_parse_rejects_a_repeated_top_level_key(self, text):
        # a parser where the later key wins would read the second "kind"
        assert parse_certificate(text)
        with pytest.raises(ValueError, match="repeats"):
            parse_certificate('{"kind":"coloring",' + text[1:])

    def test_verify_rejects_tampering(self):
        boxes = random_boxes(9, 2, seed=4)
        cert = color_or_find_forest(boxes, r=1, k=2)
        assert isinstance(cert, ProperColoring)
        payload = roundtrip(cert)
        g = intersection_graph(boxes)
        u, v = next(iter(g.edges))
        payload["colors"][v] = payload["colors"][u]
        payload["palette"] = max(payload["colors"]) + 1
        ok, msg = verify_certificate(boxes, payload)
        assert not ok and "share color" in msg

    def test_verify_rejects_palette_overflow(self):
        # in d = 1 the bound (2 r |T| omega)^4 keys on the intervals' own
        # clique number: a palette one above it is refuted, one at it holds
        boxes = random_boxes(6, 1, seed=5)
        w = omega(intersection_graph(boxes))
        assert w >= 2
        payload = roundtrip(color_or_find_forest(boxes, r=1, k=1))
        bound = chi_bound(1, 1, 1, w)
        for palette, ok in ((bound, True), (bound + 1, False)):
            # box 0 alone takes the palette's last color, so it stays proper
            colors = [palette - 1, *payload["colors"][1:]]
            verdict, message = verify_certificate(
                boxes, {**payload, "colors": colors, "palette": palette}
            )
            assert verdict is ok, message
        assert message == (
            f"palette {bound + 1} exceeds the bound (2 r |T| w)^(4^d) for d = 1, "
            f"r = 1, k = 1, w = {w}"
        )
        # depth 0 makes the bound 0
        assert not verify_certificate(boxes, {**payload, "r": 0})[0]

    def test_verify_refutes_a_palette_above_the_colors(self):
        # the palette must be one more than the largest color: a stated
        # palette of 10**6 over a handful of colors is not the coloring's
        boxes = random_boxes(9, 2, seed=4)
        payload = roundtrip(color_or_find_forest(boxes, r=1, k=2))
        top = max(payload["colors"])
        assert payload["palette"] == top + 1
        for palette in (top + 2, 10**6):
            assert verify_certificate(boxes, {**payload, "palette": palette}) == (
                False, f"stated palette {palette} but the largest color is {top}"
            )
        assert verify_certificate(boxes, {**payload, "palette": top}) == (
            False, f"color of box {payload['colors'].index(top)} outside the stated palette"
        )

    @pytest.mark.parametrize("r, k", [(1, 2), (1, 1)], ids=["coloring", "induced_tree"])
    def test_verify_refuses_box_ids_other_than_0_to_n_minus_1(self, r, k):
        # both kinds raise the same input error before reading any entry
        rows = [[0, 9, 0, 9], [1, 2, 1, 2], [4, 5, 4, 5], [7, 8, 7, 8]]
        boxes = normalize(boxes_from_rows(rows))
        payload = roundtrip(color_or_find_forest(boxes, r=r, k=k))
        assert payload["kind"] == ("coloring" if k == 2 else "induced_tree")
        assert verify_certificate(boxes, payload)[0]
        shifted = [Box(b.id + 1, b.sides) for b in boxes]
        with pytest.raises(ValueError, match="box ids must be 0..n-1"):
            verify_certificate(shifted, payload)

    def test_verify_requires_exact_coverage(self):
        boxes = random_boxes(5, 1, seed=6)
        cert = color_or_find_forest(boxes, r=1, k=1)
        payload = roundtrip(cert)
        del payload["colors"][0]
        with pytest.raises(ValueError):
            verify_certificate(boxes, payload)

    def test_verify_tree_guards_size(self):
        boxes = random_boxes(5, 2, seed=7)
        payload = {"kind": "induced_tree", "r": 30, "k": 30, "map": [0]}
        with pytest.raises(ValueError):
            verify_certificate(boxes, payload)

    def test_verify_tree_refuses_impossible_sizes_before_counting(self, monkeypatch):
        # k ** (r + 1) for a tampered r = 10**15 would need 10**15 bits, so
        # impossible trees must be refused without counting their vertices
        boxes = random_boxes(5, 2, seed=7)
        seen = []

        def spy(depth, branching):
            seen.append((depth, branching))
            return len(boxes) + 1

        monkeypatch.setattr(pipeline, "tree_vertex_count", spy)
        for r, k in [(10**15, 2), (10**15, 1), (5, 1), (1, 10**15), (1, 5)]:
            payload = {"kind": "induced_tree", "r": r, "k": k, "map": [0]}
            with pytest.raises(ValueError, match="more vertices"):
                verify_certificate(boxes, payload)
        assert seen == []

    def test_verify_tree_refuses_huge_depth_fast(self):
        boxes = random_boxes(5, 2, seed=7)
        text = json.dumps({"kind": "induced_tree", "r": 10**15, "k": 2, "map": [0]})
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more vertices"):
            verify_certificate(boxes, parse_certificate(text))
        assert time.perf_counter() - start < 0.5

    def test_verify_tree_keeps_trees_that_fit(self):
        # a path and a star on all n boxes are checked, not refused (a
        # refusal raises ValueError)
        boxes = random_boxes(5, 2, seed=7)
        for r, k in [(4, 1), (1, 4)]:
            payload = {"kind": "induced_tree", "r": r, "k": k, "map": list(range(5))}
            verify_certificate(boxes, payload)

    def test_verify_tree_rejects_broken_map(self):
        rows = [[0, 9, 0, 9], [1, 2, 1, 2], [4, 5, 4, 5], [7, 8, 7, 8]]
        boxes = normalize(boxes_from_rows(rows))
        cert = color_or_find_forest(boxes, r=1, k=1)
        assert isinstance(cert, InducedTree)
        payload = roundtrip(cert)
        # collapsing two tree vertices onto one box breaks injectivity
        payload["map"][1] = payload["map"][0]
        ok, msg = verify_certificate(boxes, payload)
        assert not ok and msg
        # an incomplete map is an input error, not a refutation
        incomplete = roundtrip(cert)
        del incomplete["map"][1]
        with pytest.raises(ValueError):
            verify_certificate(boxes, incomplete)

    def test_verify_tree_detects_wrong_adjacency(self):
        rows = [[0, 9, 0, 9], [1, 2, 1, 2], [4, 5, 4, 5], [7, 8, 7, 8]]
        boxes = normalize(boxes_from_rows(rows))
        payload = {"kind": "induced_tree", "r": 1, "k": 1, "map": [1, 2]}
        ok, msg = verify_certificate(boxes, payload)
        assert not ok and msg

    @given(
        st.integers(0, 10**6),
        st.integers(2, 12),
        st.integers(1, 3),
        st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]),
    )
    @settings(max_examples=120, deadline=None)
    def test_verify_tree_reports_the_smallest_pair_at_fault(self, seed, n, d, shape):
        # the sweep over the mapped boxes gives the verdict of a check of
        # every pair of tree vertices, the smallest pair at fault first
        r, k = shape
        tree = complete_kary_tree(r, k)
        assume(tree.n <= n)
        boxes = random_boxes(n, d, seed=seed)
        chosen = random.Random(seed).sample(range(n), tree.n)
        payload = {"kind": "induced_tree", "r": r, "k": k, "map": chosen}
        arcs = set(tree.arcs())
        expected = (True, f"induced depth-{r} {k}-ary tree on {tree.n} boxes")
        for u in range(tree.n):
            faults = [
                v for v in range(u + 1, tree.n)
                if ((u, v) in arcs) != intersects(boxes[chosen[u]], boxes[chosen[v]])
            ]
            if faults:
                kind = "missing" if (u, faults[0]) in arcs else "extra"
                expected = (False, f"{kind} adjacency between tree vertices {u} and {faults[0]}")
                break
        assert verify_certificate(boxes, payload) == expected

    def test_verify_tree_checks_a_long_path_at_once(self):
        # a valid induced path of 3000 boxes: a check of every pair of tree
        # vertices makes about 4.5M tests, the sweep about 3000
        n = 3000
        boxes = normalize(boxes_from_rows([[2 * i, 2 * i + 3] for i in range(n)]))
        payload = {"kind": "induced_tree", "r": n - 1, "k": 1, "map": list(range(n))}
        start = time.perf_counter()
        assert verify_certificate(boxes, payload)[0]
        assert time.perf_counter() - start < 0.5
        payload["map"][5], payload["map"][6] = 6, 5
        assert verify_certificate(boxes, payload) == (
            False, "missing adjacency between tree vertices 4 and 5"
        )

    def test_verify_decides_a_vast_palette_at_once(self):
        # a palette of 9001 bits in d = 6 is past the 2 * 4^6 bits that settle
        # every real coloring; against a depth of 2^3000 the bound would have
        # about 24.6M bits, and its base alone shows it is larger
        boxes = random_boxes(8, 6, seed=1)
        payload = roundtrip(color_or_find_forest(boxes, r=1, k=1))

        def spread(palette: int) -> dict:
            # box 0 alone takes the palette's last color
            return {**payload, "colors": [palette - 1, *payload["colors"][1:]], "palette": palette}

        start = time.perf_counter()
        assert verify_certificate(boxes, {**spread(2**9000), "r": 2**3000})[0]
        # at depth 1 the bound is (2 * 2 * 1)^4096 = 2^8192
        assert verify_certificate(boxes, spread(2**8192))[0]
        assert not verify_certificate(boxes, spread(2**8192 + 1))[0]
        assert time.perf_counter() - start < 0.5

    def test_verify_finds_a_deep_interval_clique_at_once(self):
        # 12,000 nested intervals, each its own color: the bound keys on
        # omega = 12,000, found by one pass over the endpoints, with no set
        # built per depth reached
        n = 12_000
        boxes = nested_chain_boxes(n, 1)
        payload = {"kind": "coloring", "palette": n, "colors": list(range(n))}
        payload.update(r=1, k=1)
        start = time.perf_counter()
        assert verify_certificate(boxes, payload)[0]
        assert time.perf_counter() - start < 0.2
