"""Interval classification, patterns, normalization, and box files."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxforest import (
    Box,
    Interval,
    OverlapType,
    Pattern,
    all_patterns,
    box,
    boxes_from_rows,
    boxes_to_text,
    classify_overlap,
    intersection_pattern,
    intersects,
    load_boxes,
    normalize,
    save_boxes,
)


class TestClassifyOverlap:
    def test_containment(self):
        assert classify_overlap(Interval(0, 10), Interval(2, 5)) is OverlapType.CONTAINS
        assert classify_overlap(Interval(2, 5), Interval(0, 10)) is OverlapType.CONTAINED

    def test_crossings(self):
        assert classify_overlap(Interval(0, 5), Interval(3, 8)) is OverlapType.LEFT
        assert classify_overlap(Interval(3, 8), Interval(0, 5)) is OverlapType.RIGHT

    def test_disjoint_is_none(self):
        assert classify_overlap(Interval(0, 1), Interval(5, 6)) is None
        assert classify_overlap(Interval(5, 6), Interval(0, 1)) is None

    def test_shared_endpoints_rejected(self):
        with pytest.raises(ValueError):
            classify_overlap(Interval(0, 1), Interval(1, 2))
        with pytest.raises(ValueError):
            classify_overlap(Interval(0, 3), Interval(0, 2))
        with pytest.raises(ValueError):
            classify_overlap(Interval(0, 3), Interval(1, 3))

    def test_fractions_supported(self):
        a = Interval(Fraction(1, 3), Fraction(2, 3))
        b = Interval(Fraction(1, 2), Fraction(3, 4))
        assert classify_overlap(a, b) is OverlapType.LEFT

    @given(st.lists(st.integers(0, 40), min_size=4, max_size=4, unique=True))
    def test_swap_mirrors(self, vals):
        v0, v1, v2, v3 = sorted(vals)
        # All three interleavings of four distinct endpoints.
        for a, b in (
            (Interval(v0, v1), Interval(v2, v3)),  # disjoint
            (Interval(v0, v2), Interval(v1, v3)),  # crossing
            (Interval(v0, v3), Interval(v1, v2)),  # nested
        ):
            fwd = classify_overlap(a, b)
            rev = classify_overlap(b, a)
            if fwd is None:
                assert rev is None
            else:
                assert rev is fwd.mirrored


class TestPattern:
    def test_enumeration_count_and_order(self):
        pats = all_patterns(2)
        assert len(pats) == 16
        assert str(pats[0]) == "CC"
        assert len(set(map(str, pats))) == 16
        # Stable canonical order.
        assert [str(p) for p in all_patterns(2)] == [str(p) for p in pats]

    def test_parse_roundtrip(self):
        for p in all_patterns(3):
            assert Pattern.parse(str(p)) == p
        with pytest.raises(ValueError):
            Pattern.parse("CX")
        with pytest.raises(ValueError):
            Pattern.parse("")

    @given(st.lists(st.sampled_from(list(OverlapType)), min_size=1, max_size=5))
    def test_mirror_involution(self, axes):
        p = Pattern(tuple(axes))
        assert p.mirrored().mirrored() == p
        assert p.mirrored() != p

    def test_mirror_swaps_roles(self):
        p = Pattern.parse("CLRc")
        assert str(p.mirrored()) == "cRLC"


class TestBoxes:
    def test_box_helpers(self):
        b = box(3, (0, 2), (1, 5))
        assert b.id == 3
        assert b.dim == 2
        assert b.side(1) == Interval(1, 5)
        # Degenerate sides are allowed at load time; normalize widens them.
        assert box(0, (2, 2)).side(0) == Interval(2, 2)
        with pytest.raises(ValueError):
            box(0, (5, 1))

    def test_boxes_from_rows(self):
        bs = boxes_from_rows([[0, 1, 0, 1], [2, 3, 2, 3]])
        assert [b.id for b in bs] == [0, 1]
        assert bs[1].side(0) == Interval(2, 3)
        with pytest.raises(ValueError):
            boxes_from_rows([[0, 1, 2]])

    def test_intersection_pattern_matches_axes(self):
        a = box(0, (0, 10), (0, 5))
        b = box(1, (2, 5), (3, 8))
        p = intersection_pattern(a, b)
        assert p is not None and str(p) == "CL"
        assert intersects(a, b)

    def test_disjoint_on_one_axis_is_none(self):
        a = box(0, (0, 10), (0, 1))
        b = box(1, (2, 5), (4, 6))
        assert intersection_pattern(a, b) is None
        assert not intersects(a, b)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            intersection_pattern(box(0, (0, 1)), box(1, (0, 1), (0, 1)))


def _random_rows(draw_ints, n, d):
    rows = []
    it = iter(draw_ints)
    for _ in range(n):
        row = []
        for _ in range(d):
            u, v = next(it), next(it)
            if u == v:
                v = u + 1
            row.extend((min(u, v), max(u, v)))
        rows.append(row)
    return rows


class TestNormalize:
    def test_breaks_shared_endpoints_without_overlap(self):
        bs = normalize(boxes_from_rows([[0, 1], [1, 2]]))
        assert not intersects(bs[0], bs[1])

    def test_keeps_overlap_types(self):
        bs = normalize(boxes_from_rows([[0, 10, 0, 5], [2, 5, 3, 8]]))
        p = intersection_pattern(bs[0], bs[1])
        assert p is not None and str(p) == "CL"

    def test_endpoint_grid(self):
        bs = normalize(boxes_from_rows([[0, 7], [3, 9], [1, 2]]))
        vals = sorted(v for b in bs for v in (b.side(0).lo, b.side(0).hi))
        assert vals == list(range(6))

    @given(st.data())
    @settings(max_examples=60)
    def test_idempotent(self, data):
        n = data.draw(st.integers(1, 6))
        d = data.draw(st.integers(1, 3))
        ints = data.draw(
            st.lists(st.integers(0, 30), min_size=2 * n * d, max_size=2 * n * d)
        )
        bs = boxes_from_rows(_random_rows(ints, n, d))
        once = normalize(bs)
        twice = normalize(once)
        assert [b.sides for b in once] == [b.sides for b in twice]
        assert [b.id for b in once] == [b.id for b in bs]

    @given(st.data())
    @settings(max_examples=60)
    def test_preserves_patterns_when_endpoints_distinct(self, data):
        n = data.draw(st.integers(2, 6))
        d = data.draw(st.integers(1, 2))
        pool = data.draw(
            st.lists(
                st.integers(0, 500),
                min_size=2 * n * d,
                max_size=2 * n * d,
                unique=True,
            )
        )
        bs = boxes_from_rows(_random_rows(pool, n, d))
        nm = normalize(bs)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                before = intersection_pattern(bs[i], bs[j])
                after = intersection_pattern(nm[i], nm[j])
                if before is None:
                    assert after is None
                else:
                    assert after is not None and after == before


class TestFiles:
    def test_text_roundtrip(self, tmp_path):
        bs = normalize(boxes_from_rows([[0, 3, 1, 4], [2, 5, 0, 2]]))
        path = tmp_path / "boxes.txt"
        save_boxes(bs, path)
        back = load_boxes(path)
        assert [b.sides for b in back] == [b.sides for b in bs]

    def test_json_roundtrip(self, tmp_path):
        bs = boxes_from_rows([[0, 3, 1, 4], [2, 5, 0, 2]])
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps({"boxes": [[[0, 3], [1, 4]], [[2, 5], [0, 2]]]}))
        back = load_boxes(path)
        assert [b.sides for b in back] == [b.sides for b in bs]

    def test_text_format_shape(self):
        text = boxes_to_text(boxes_from_rows([[0, 1, 2, 3]]))
        lines = text.splitlines()
        assert lines[0] == "2 1"
        assert lines[1].split() == ["0", "1", "2", "3"]
        assert text.endswith("\n")

    def test_fractions_in_text(self, tmp_path):
        bs = [box(0, (Fraction(1, 3), Fraction(1, 2)))]
        path = tmp_path / "frac.txt"
        save_boxes(bs, path)
        back = load_boxes(path)
        assert back[0].side(0) == Interval(Fraction(1, 3), Fraction(1, 2))

    def test_bad_inputs(self, tmp_path):
        cases = [
            "",  # no header
            "2\n",  # short header
            "2 2\n0 1 0 1\n",  # missing row
            "1 1\n0 1 2\n",  # wrong width
            "1 1\n0 zero\n",  # not a number
            "0 1\n\n",  # dimension must be positive
        ]
        for i, body in enumerate(cases):
            path = tmp_path / f"bad{i}.txt"
            path.write_text(body)
            with pytest.raises(ValueError):
                load_boxes(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"boxes": [[[0, 1]], [[0, 1], [2, 3]]]}))
        with pytest.raises(ValueError):
            load_boxes(path)
