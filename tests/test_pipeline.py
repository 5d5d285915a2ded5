"""End-to-end dichotomy, bounds, extraction, and certificate handling."""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import time
from math import ceil

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxforest import (
    CalmSearchError,
    Coloring,
    InducedTree,
    InternalInvariantError,
    OracleLimitError,
    ProperColoring,
    alpha,
    boxes_from_rows,
    certificate_to_json,
    chi,
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


class TestChiBound:
    def test_reference_values(self):
        rep = chi_bound(1, 1, 1, 1)
        assert rep.stated_bound == 16
        assert rep.derived_bound == 256
        assert rep.tree_branching == 1 and rep.tree_size == 2
        rep = chi_bound(1, 1, 2, 1)
        assert rep.stated_bound == 256
        assert rep.derived_bound == 1296
        assert rep.tree_branching == 2 and rep.tree_size == 3

    def test_formula_shape(self):
        for d in (1, 2, 3):
            for r in (0, 1, 2, 3):
                for k in (1, 2, 3):
                    for w in (1, 2, 4):
                        rep = chi_bound(d, r, k, w)
                        assert rep.stated_bound == (2 * r * k**d * w**2) ** (4**d)
                        kk = rep.tree_branching
                        assert kk == k**d * w
                        assert rep.tree_size == tree_vertex_count(r, kk)
                        expected = (2 * r * rep.tree_size * w) ** (4**d)
                        assert rep.derived_bound == expected

    def test_derived_dominates_stated_when_branching_at_least_two(self):
        for d in (1, 2, 3):
            for r in (1, 2, 3, 4):
                for k in (1, 2, 3):
                    for w in (1, 2, 3, 4):
                        if k**d * w < 2:
                            continue
                        rep = chi_bound(d, r, k, w)
                        assert rep.derived_bound >= rep.stated_bound

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
        ext = extract_independent(boxes)
        picked = [boxes[i] for i in ext.ids]
        assert len(set(ext.ids)) == len(ext.ids)
        for i, a in enumerate(picked):
            for b in picked[i + 1:]:
                assert not intersects(a, b)
        w = omega(intersection_graph(boxes))
        need = 1
        while need**d * w < n:
            need += 1
        assert len(ext.ids) >= need
        assert not ext.shortfall

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
        ext = extract_independent(prefix, target=k)
        assert not ext.shortfall and len(ext.ids) == k
        picked = [prefix[i] for i in ext.ids]
        for i, a in enumerate(picked):
            for b in picked[i + 1:]:
                assert not intersects(a, b)

    @given(
        st.integers(0, 10**6),
        st.integers(1, 30),
        st.integers(1, 5),
        st.none() | st.integers(1, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_recursive_reference(self, seed, n, d, target):
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
        assert extract_independent(boxes, target) == brute_extract_independent(plain, target)

    def test_exact_on_intervals(self):
        for seed in range(25):
            boxes = random_boxes(10, 1, seed=seed)
            ext = extract_independent(boxes)
            g = intersection_graph(boxes)
            assert len(ext.ids) == brute_alpha(g.n, g.edges)

    def test_target_truncates(self):
        boxes = grid_disjoint_boxes(9, 2)
        # the guarantee for n=9, d=2, omega=1 is ceil(sqrt(9)) = 3
        ext = extract_independent(boxes, target=2)
        assert len(ext.ids) == 2 and not ext.shortfall

    def test_target_beyond_guarantee_may_shortfall(self):
        boxes = grid_disjoint_boxes(9, 2)
        ext = extract_independent(boxes, target=4)
        assert len(ext.ids) >= 3
        if len(ext.ids) < 4:
            assert ext.shortfall

    def test_target_shortfall_flag(self):
        boxes = nested_chain_boxes(5, 2)  # pairwise intersecting
        ext = extract_independent(boxes, target=3)
        assert len(ext.ids) == 1 and ext.shortfall

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            extract_independent([])


def roundtrip(cert):
    return parse_certificate(certificate_to_json(cert))


def bound_report(derived_bound: int):
    """A bound report whose derived bound is ``derived_bound``."""
    return dataclasses.replace(chi_bound(1, 1, 1, 1), derived_bound=derived_bound)


class TestColorOrFindForest:
    def test_interval_instances_color_exactly_omega(self):
        for seed in range(10):
            boxes = random_boxes(12, 1, seed=seed)
            cert = color_or_find_forest(boxes, r=2, k=2)
            assert isinstance(cert, ProperColoring)
            g = intersection_graph(boxes)
            w = omega(g)
            assert cert.coloring.palette_size == w == chi(g)
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
        assert cert.coloring.palette_size <= cert.report.derived_bound

    def test_a_tree_outcome_builds_no_bound(self, monkeypatch):
        # the counter builds nothing: in d = 16 the bound has billions of digits
        calls = []
        monkeypatch.setattr(pipeline, "chi_bound", lambda *args: calls.append(args))
        star = [[0, 9, 0, 9], [1, 2, 1, 2], [4, 5, 4, 5], [7, 8, 7, 8]]
        star16 = [[0, 9] * 16] + [[a, a + 1] * 16 for a in (1, 4, 7)]
        for rows, r in ((star, 1), (star16, 1), (star, 0)):
            cert = color_or_find_forest(normalize(boxes_from_rows(rows)), r=r, k=1)
            assert isinstance(cert, InducedTree)
        assert calls == []
        # a coloring builds its bound once, after it is colored
        real = chi_bound
        monkeypatch.setattr(pipeline, "chi_bound", lambda *args: calls.append(args) or real(*args))
        cert = color_or_find_forest(random_boxes(6, 2, seed=3), r=3, k=3)
        assert isinstance(cert, ProperColoring)
        assert calls == [(2, 3, 3, cert.report.omega)]

    def test_depth_zero_returns_single_box_tree(self):
        boxes = random_boxes(5, 2, seed=1)
        cert = color_or_find_forest(boxes, r=0, k=3)
        assert isinstance(cert, InducedTree)
        assert cert.mapping == {0: 0}
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
            assert cert.coloring.palette_size <= cert.report.derived_bound


class TestColoringFromTheBoxes:
    """With omega given in d >= 2 and |T| > n - 1, a dense host graph is
    colored on bit rows from the boxes, and the coloring is checked by a
    sweep labelled by its colors, not on the host graph's lists."""

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

    @pytest.mark.parametrize(
        "bad",
        [
            Coloring(dict.fromkeys(range(40), 0), 1),  # every pair clashes
            Coloring({v: v for v in range(39)}, 39),  # box 39 has no color
        ],
        ids=["clash", "missing"],
    )
    def test_the_self_check_refuses_a_bad_coloring(self, dense, monkeypatch, bad):
        monkeypatch.setattr(pipeline, "smallest_last_coloring", lambda adj, rows=None: bad)
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
        expected = ProperColoring(smallest_last_coloring(g.adj), chi_bound(d, r, k, w))
        assert certificate_to_json(cert) == certificate_to_json(expected)


class TestCertificateJson:
    def test_canonical_bytes(self):
        boxes = random_boxes(8, 2, seed=2)
        cert = color_or_find_forest(boxes, r=1, k=2)
        a = certificate_to_json(cert)
        b = certificate_to_json(color_or_find_forest(boxes, r=1, k=2))
        assert a == b
        assert a.endswith("\n") and "\n" not in a[:-1]
        assert json.loads(a)["kind"] in ("coloring", "induced_tree")

    def test_bounds_too_long_to_write_are_refused(self):
        # 3 disjoint boxes, k = 2: the bound of depth 441 has 4298 digits,
        # the bound of depth 442 more than 4300, the default limit
        boxes = normalize(boxes_from_rows([[0, 1, 0, 1], [2, 3, 2, 3], [4, 5, 4, 5]]))
        payload = roundtrip(color_or_find_forest(boxes, r=441, k=2))
        assert payload["bound"] == chi_bound(2, 441, 2, 1).derived_bound
        for r in (442, 10**6, 10**50):
            with pytest.raises(ValueError, match="more than 4300 digits"):
                certificate_to_json(color_or_find_forest(boxes, r=r, k=2))
        coloring = Coloring({0: 0}, 1)
        assert certificate_to_json(ProperColoring(coloring, bound_report(10**4300 - 1)))
        with pytest.raises(ValueError, match="more than 4300 digits"):
            certificate_to_json(ProperColoring(coloring, bound_report(10**4300)))

    def test_bounds_of_any_length_are_written_without_a_limit(self):
        cert = ProperColoring(Coloring({0: 0}, 1), bound_report(10**4300))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert json.loads(certificate_to_json(cert))["bound"] == 10**4300
        finally:
            sys.set_int_max_str_digits(limit)

    def test_interpreters_without_a_digit_limit_color_and_verify(self, monkeypatch):
        """CPython before 3.10.7 has no ``sys.get_int_max_str_digits``; there
        a coloring is written and verified as where the limit is off."""
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        boxes = normalize(random_boxes(30, 2, 1))
        cert = color_or_find_forest(boxes, 1, 1, omega_bound=30)
        assert isinstance(cert, ProperColoring)
        text = certificate_to_json(cert)
        assert json.loads(text)["bound"] == cert.report.derived_bound
        ok, msg = verify_certificate(boxes, parse_certificate(text))
        assert ok, msg

    def test_parse_rejects_malformed(self):
        good = {"kind": "coloring", "palette": 1, "bound": 2, "colors": {"0": 0}}
        cases = [
            "not json",
            json.dumps([1, 2]),
            json.dumps({**good, "kind": "nope"}),
            json.dumps({k: v for k, v in good.items() if k != "palette"}),
            json.dumps({**good, "palette": True}),
            json.dumps({**good, "palette": "1"}),
            json.dumps({**good, "colors": {"x": 0}}),
            json.dumps({**good, "colors": {"0": "red"}}),
            json.dumps({**good, "colors": {"0": 1.5}}),
            json.dumps({**good, "colors": {"0": True}}),
            json.dumps({"kind": "induced_tree", "r": -1, "k": 1, "map": {}}),
            json.dumps({"kind": "induced_tree", "r": 1, "k": 0, "map": {}}),
        ]
        for text in cases:
            with pytest.raises(ValueError):
                parse_certificate(text)

    @pytest.mark.parametrize(
        "head, field",
        [
            ({"kind": "coloring", "palette": 2, "bound": 2}, "colors"),
            ({"kind": "induced_tree", "r": 1, "k": 1}, "map"),
        ],
    )
    def test_parse_rejects_keys_naming_one_box_twice(self, head, field):
        def text(body: str) -> str:
            return json.dumps(head)[:-1] + f', "{field}": {{{body}}}}}'

        assert parse_certificate(text('"0": 0, "1": 1, "10": 1'))[field] == {
            0: 0, 1: 1, 10: 1
        }
        # "01", " 1", "+1" and "1 " read as 1, "1_0" as 10, "-0" as 0
        for key in ("01", " 1", "+1", "1 ", "1_0", "-0"):
            with pytest.raises(ValueError, match="decimal ids"):
                parse_certificate(text(f'"0": 0, "1": 1, "{key}": 0'))
        with pytest.raises(ValueError, match="repeats"):
            parse_certificate(text('"0": 0, "1": 1, "1": 0'))
        with pytest.raises(ValueError, match="repeats"):
            parse_certificate(f'{{"kind": "{head["kind"]}", ' + text('"0": 0')[1:])

    def test_verify_rejects_tampering(self):
        boxes = random_boxes(9, 2, seed=4)
        cert = color_or_find_forest(boxes, r=1, k=2)
        assert isinstance(cert, ProperColoring)
        payload = roundtrip(cert)
        g = intersection_graph(boxes)
        u, v = next(iter(g.edges))
        payload["colors"][v] = payload["colors"][u]
        ok, msg = verify_certificate(boxes, payload)
        assert not ok and str(u) in msg or str(v) in msg

    def test_verify_rejects_palette_overflow(self):
        boxes = random_boxes(6, 1, seed=5)
        cert = color_or_find_forest(boxes, r=1, k=1)
        payload = roundtrip(cert)
        payload["bound"] = payload["palette"] - 1
        ok, _ = verify_certificate(boxes, payload)
        assert not ok

    def test_verify_requires_exact_coverage(self):
        boxes = random_boxes(5, 1, seed=6)
        cert = color_or_find_forest(boxes, r=1, k=1)
        payload = roundtrip(cert)
        del payload["colors"][0]
        with pytest.raises(ValueError):
            verify_certificate(boxes, payload)

    def test_verify_tree_guards_size(self):
        boxes = random_boxes(5, 2, seed=7)
        payload = {"kind": "induced_tree", "r": 30, "k": 30, "map": {0: 0}}
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
            payload = {"kind": "induced_tree", "r": r, "k": k, "map": {0: 0}}
            with pytest.raises(ValueError, match="more vertices"):
                verify_certificate(boxes, payload)
        assert seen == []

    def test_verify_tree_refuses_huge_depth_fast(self):
        boxes = random_boxes(5, 2, seed=7)
        text = json.dumps({"kind": "induced_tree", "r": 10**15, "k": 2, "map": {"0": 0}})
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more vertices"):
            verify_certificate(boxes, parse_certificate(text))
        assert time.perf_counter() - start < 0.5

    def test_verify_tree_keeps_trees_that_fit(self):
        # a path and a star on all n boxes are checked, not refused (a
        # refusal raises ValueError)
        boxes = random_boxes(5, 2, seed=7)
        for r, k in [(4, 1), (1, 4)]:
            payload = {"kind": "induced_tree", "r": r, "k": k, "map": {v: v for v in range(5)}}
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
        payload = {"kind": "induced_tree", "r": 1, "k": 1, "map": {0: 1, 1: 2}}
        ok, msg = verify_certificate(boxes, payload)
        assert not ok and msg
