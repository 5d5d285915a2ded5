"""Interval classification, patterns, normalization, and box files."""

from __future__ import annotations

import json
import math
import operator
from dataclasses import FrozenInstanceError
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
    intersecting_pairs,
    intersection_pattern,
    intersects,
    load_boxes,
    normalize,
    random_boxes,
    save_boxes,
)
from boxforest.geometry import _parse_number
from bruteforce import brute_normalize


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

    @pytest.mark.parametrize("lo, hi", [(math.nan, 1), (0, math.nan), (math.nan, math.nan)])
    def test_nan_endpoint_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="empty interval"):
            Interval(lo, hi)

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


class TestFlatBounds:
    """A box stores its id and one flat tuple of bounds; its sides, one
    side and its dimension are derived from them when read."""

    def test_bounds_are_the_row_and_sides_are_derived(self):
        b = box(3, (0, 2), (1, 5))
        assert b.bounds == (0, 2, 1, 5)
        assert b.sides == (Interval(0, 2), Interval(1, 5))
        assert b.side(0) == Interval(0, 2) and b.side(-1) == Interval(1, 5)
        assert b.dim == 2 and box(0, *[(0, 1)] * 7).dim == 7
        with pytest.raises(IndexError):
            b.side(2)

    def test_a_box_rebuilt_from_its_sides_is_equal(self):
        family = [*random_boxes(30, 3, 1), box(7, (Fraction(1, 3), 2), (-1, 0.5))]
        for b in family:
            again = Box(b.id, b.sides)
            assert again == b and hash(again) == hash(b) and again.bounds == b.bounds
        assert Box(8, family[-1].sides) != family[-1]
        assert box(0, (0, 1)) != box(0, (0, 2))
        assert len({*family, *(Box(b.id, b.sides) for b in family)}) == len(family)

    def test_every_builder_gives_equal_boxes(self, tmp_path):
        rows = [[0, 3, 1, 2], [1, 2, 0, 3]]
        built = [box(i, *zip(r[0::2], r[1::2])) for i, r in enumerate(rows)]
        assert boxes_from_rows(rows) == built
        path = tmp_path / "boxes.txt"
        save_boxes(built, path)
        assert load_boxes(path) == built
        assert normalize(built) == built
        # raw boxes are rebuilt from their ranks: 10 < 20 < 30 < 40 and 1 < 5 < 6 < 9
        ranked = normalize(boxes_from_rows([[10, 40, 5, 6], [20, 30, 1, 9]]))
        assert ranked == built and {*ranked} == {*built}

    def test_boxes_and_their_sides_cannot_be_assigned(self):
        b = box(0, (0, 1))
        for name, value in (("id", 1), ("bounds", (0, 2))):
            with pytest.raises(FrozenInstanceError):
                setattr(b, name, value)
        # a derived name is no field; a frozen slots dataclass refuses it
        # with AttributeError or, on CPython 3.11, TypeError
        for name, value in (("sides", ()), ("dim", 2)):
            with pytest.raises((AttributeError, TypeError)):
                setattr(b, name, value)
        with pytest.raises(AttributeError):
            b.sides[0].lo = 5  # type: ignore[misc]
        assert b.bounds == (0, 1)

    def test_no_axes_and_mixed_dimensions_are_refused(self):
        for build in (lambda: Box(0, ()), lambda: box(0)):
            with pytest.raises(ValueError, match=r"^box needs at least one axis$"):
                build()
        wide, narrow = box(0, (0, 1), (0, 1)), box(1, (2, 3))
        with pytest.raises(ValueError, match=r"^dimension mismatch: box 1 has 1 axes, expected 2$"):
            normalize([wide, narrow])
        with pytest.raises(ValueError, match=r"^dimension mismatch: box 1 has 2 axes, expected 1$"):
            normalize([Box(0, narrow.sides), Box(1, wide.sides)])
        with pytest.raises(ValueError, match=r"^dimension mismatch: box 1 has 1 axes, expected 2$"):
            intersecting_pairs([wide, narrow])
        # a box file holds one dimension: its rows would not line up
        with pytest.raises(ValueError, match=r"^dimension mismatch: box 1 has 1 axes, expected 2$"):
            boxes_to_text([wide, narrow, box(2, (4, 5))])
        for pair_test in (intersects, intersection_pattern):
            with pytest.raises(ValueError, match=r"^dimension mismatch: 2 vs 1$"):
                pair_test(wide, narrow)


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

    @pytest.mark.parametrize("shift", [-1, 0, 1, 5])
    def test_only_the_ranks_themselves_pass_through(self, shift):
        # 2n distinct ints on an axis are its ranks only when they are 0..2n-1
        bs = boxes_from_rows([[2 + shift, 3 + shift, 0, 3], [shift, 1 + shift, 1, 2]])
        out = normalize(bs)
        assert out == [box(0, (2, 3), (0, 3)), box(1, (0, 1), (1, 2))]
        # the axis of ranks keeps its columns; a shifted axis is rebuilt
        assert out.columns[2:] == bs.columns[2:]
        assert all(map(operator.is_, out.columns[2:], bs.columns[2:]))
        assert all(map(operator.is_, out.columns[:2], bs.columns[:2])) == (shift == 0)

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


def _coordinate(kind: int, x: int):
    return (x, Fraction(x, 3), x / 2, Fraction(x))[kind]


class TestNormalizeAgainstTupleSort:
    """``normalize`` against the tuple-sort reference in ``bruteforce``."""

    @given(st.data())
    @settings(max_examples=200)
    def test_same_ids_ranks_and_types(self, data):
        n = data.draw(st.integers(1, 8))
        d = data.draw(st.integers(1, 4))
        # non-contiguous ids in shuffled order
        ids = data.draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))
        # a small value range makes shared endpoints and zero-width sides
        coord = st.builds(_coordinate, st.integers(0, 3), st.integers(0, 6))
        bs = []
        for i in ids:
            sides = [tuple(sorted(data.draw(st.tuples(coord, coord)))) for _ in range(d)]
            bs.append(box(i, *sides))
        got = normalize(bs)
        assert [(b.id, tuple((s.lo, s.hi) for s in b.sides)) for b in got] == brute_normalize(bs)
        assert all(type(v) is int for b in got for s in b.sides for v in (s.lo, s.hi))
        assert normalize(got) is got
        assert normalize(list(got)) == got

    def test_normalized_input_is_not_rebuilt(self):
        bs = random_boxes(2000, 3, 1)
        assert normalize(bs) is bs
        listed = list(bs)
        out = normalize(listed)
        assert out == listed and listed == out and normalize(out) is out

    @pytest.mark.parametrize("value", [Fraction(0), 0.0, False])
    def test_int_equal_coordinates_are_rebuilt_as_int(self, value):
        bs = [box(0, (value, 1))]
        (out,) = normalize(bs)
        assert out is not bs[0]
        assert type(out.sides[0].lo) is int and out.sides[0] == Interval(0, 1)


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

    @pytest.mark.parametrize(
        "token", ["007", "-0", "+5", "1_000", "١٢", "1e3", "3/1", "2.50", "--5", "0x10"]
    )
    def test_integer_tokens_parse_as_through_fraction(self, token):
        # the int() shortcut must give what the Fraction route gives
        try:
            frac = Fraction(token)
        except ValueError:
            with pytest.raises(ValueError):
                _parse_number(token)
            return
        want = int(frac) if frac.denominator == 1 else frac
        got = _parse_number(token)
        assert (got, type(got)) == (want, type(want))

    @pytest.mark.parametrize(
        "tokens",
        ["007 9", "-0 +5", "--5 9", "5- 9", "1_000 2000", "١٢ 99", "2.50 3/1", "-0 007 +5 9"],
    )
    def test_file_loads_as_token_by_token(self, tmp_path, tokens):
        # a file of ASCII integer characters takes the int() route; it must
        # give what _parse_number gives token by token, types included
        path = tmp_path / "t.txt"
        words = tokens.split()
        rows = [words[j:j + 2] for j in range(0, len(words), 2)]
        path.write_text(f"1 {len(rows)}\n" + "".join(f"{lo} {hi}\n" for lo, hi in rows))
        try:
            want = boxes_from_rows([list(map(_parse_number, row)) for row in rows])
        except ValueError:
            with pytest.raises(ValueError):
                load_boxes(path)
            return
        got = load_boxes(path)
        assert got == want
        assert [type(v) for b in got for s in b.sides for v in (s.lo, s.hi)] == [
            type(v) for b in want for s in b.sides for v in (s.lo, s.hi)
        ]

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

    @pytest.mark.parametrize(
        "bound, name",
        [
            ([[list(range(3000))]], "array"),
            ({"lo": 0}, "object"),
            (True, "boolean"),
            (None, "null"),
        ],
    )
    def test_json_bound_of_the_wrong_type_is_named_not_printed(self, tmp_path, bound, name):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"boxes": [[[0, 4], [0, 4]], [[1, 2], [1, bound]]]}))
        with pytest.raises(ValueError) as info:
            load_boxes(path)
        assert str(info.value) == (
            f"box 1: a bound must be a number or a numeric string, not JSON {name}"
        )

    def test_json_numeric_strings_and_floats_still_load(self, tmp_path):
        path = tmp_path / "strings.json"
        path.write_text(json.dumps({"boxes": [[["1/2", 3.5]], [["-7", "2.25"]]]}))
        back = load_boxes(path)
        assert [b.side(0) for b in back] == [
            Interval(Fraction(1, 2), Fraction(7, 2)),
            Interval(-7, Fraction(9, 4)),
        ]
        assert type(back[1].side(0).lo) is int
