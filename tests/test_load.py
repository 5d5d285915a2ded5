"""Bulk box building: the same boxes and the same first error as a
row-by-row build, no ``Interval`` built on the way, lossless round trips,
and the family's sequence contract, with no ``Box`` built by certify or
verify."""

from __future__ import annotations

import json
import math
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxforest import (
    Interval,
    box,
    boxes_from_rows,
    certificate_to_json,
    color_or_find_forest,
    geometry,
    load_boxes,
    normalize,
    parse_certificate,
    random_boxes,
    save_boxes,
    verify_certificate,
)
from bruteforce import brute_boxes_from_rows, brute_load_boxes

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

import workloads  # noqa: E402


def outcome(build, *args):
    """The boxes ``build`` returns, every coordinate with its type, or the
    message of the ValueError it raises."""
    try:
        boxes = build(*args)
    except ValueError as exc:
        return "error", str(exc)
    return "boxes", [
        (b.id, [(type(s.lo), s.lo, type(s.hi), s.hi) for s in b.sides]) for b in boxes
    ]


# tokens of a file that int() reads: plain, signed and zero-padded
# integers, and tokens it refuses, one of them above its digit limit
INTEGER_TOKENS = ["+3", "-0", "007", "+007", "-12", "+", "5-", "--5", "9" * 4301]
# tokens that send a file through Fraction: non-ASCII digits, fractions,
# decimals, NaN, infinities and tokens that are not numbers at all
OTHER_TOKENS = [
    "١٢", "٣", "1/3", "-7/2", "2.5", "1e1", "3.0", "nan", "NaN", "inf", "-inf", "x", "1/0",
]
small = st.integers(-3, 12).map(str)
# whitespace inside a row, and line ends: splitlines() also ends a line at
# \x0b, \x0c and \x1c-\x1e, while str.split() splits at all of them
in_row = st.sampled_from([" ", "\t", "  \t", "\x1f", " \x1f "])
line_breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])


@st.composite
def box_texts(draw) -> str:
    """A text box file with up to three faults, each in a drawn row: a
    wrong width, a special token, an inverted side, a line end inside the
    row, or a blank line after it; and rarely a wrong header."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    specials = INTEGER_TOKENS if draw(st.booleans()) else INTEGER_TOKENS + OTHER_TOKENS
    kinds = st.sampled_from(["width", "token", "inverted", "break", "blank"])
    faults = draw(st.lists(st.tuples(kinds, st.integers(0, n - 1)), max_size=3))
    header = f"{d} {n}"
    if draw(st.integers(0, 9)) == 4:  # a middle value: Hypothesis favors the ends
        header = draw(st.sampled_from([f"{d} {n + 1}", f"{d + 1} {n}", "x 1", f"{d}"]))
    lines = [header]
    for i in range(n):
        row = []
        for _ in range(d):
            lo = draw(st.integers(-3, 12))
            row += [str(lo), str(lo + draw(st.integers(0, 3)))]  # zero width too
        blank = False
        for kind, where in faults:
            if where != i:
                continue
            if kind == "width":
                row = row[:-1] if draw(st.booleans()) else row + [draw(small)]
            elif kind == "token" and row:
                row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(specials))
            elif kind == "inverted" and len(row) > 1:
                axis = draw(st.integers(0, len(row) // 2 - 1))
                row[2 * axis], row[2 * axis + 1] = row[2 * axis + 1], row[2 * axis]
            elif kind == "break" and row:
                row[0] += draw(line_breaks)
            blank |= kind == "blank"
        lines.append(draw(in_row).join(row) + draw(in_row) * draw(st.integers(0, 1)))
        if blank:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    return "".join(line + draw(line_breaks) for line in lines)


json_values = st.one_of(
    *[st.integers(-3, 12)] * 4,
    st.floats(allow_nan=True, allow_infinity=True, width=16),
    st.sampled_from(["1/3", "-7", "2.25", "7/1", "nan", "x", "9" * 4301] * 4 + [None, True, [1]]),
)


@st.composite
def json_texts(draw) -> str:
    d = draw(st.integers(1, 3))
    entries = []
    for _ in range(draw(st.integers(1, 5))):
        axes = d + draw(st.sampled_from([0, 0, 0, 0, 0, 1, -1]))
        entry = []
        for _ in range(axes):
            width = draw(st.sampled_from([2] * 16 + [1, 3]))
            entry.append(draw(st.lists(json_values, min_size=width, max_size=width)))
        entries.append(entry)
    return json.dumps({"boxes": entries})


row_values = st.one_of(
    st.integers(-3, 12),
    st.fractions(min_value=-3, max_value=12, max_denominator=4),
    st.floats(allow_nan=True, allow_infinity=True, width=16),
)


@st.composite
def row_lists(draw) -> list[list]:
    d = draw(st.integers(1, 3))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        width = 2 * d + draw(st.sampled_from([0, 0, 0, 0, 0, 0, -1, 1, 2, -2 * d]))
        rows.append(draw(st.lists(row_values, min_size=width, max_size=width)))
    return rows


@pytest.fixture(scope="module")
def box_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("box-files")


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(box_texts(), json_texts()))
def test_load_matches_the_row_by_row_reader(box_dir, text):
    path = box_dir / "boxes.txt"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(load_boxes, path) == outcome(brute_load_boxes, path)


@settings(max_examples=300, deadline=None)
@given(rows=row_lists())
def test_rows_build_as_row_by_row(rows):
    assert outcome(boxes_from_rows, rows) == outcome(brute_boxes_from_rows, rows)


@pytest.mark.parametrize(
    "text, message",
    [
        # a bad number in row 0 comes before row 1's wrong width
        ("1 2\n0 x\n0 1 2\n", "bad number 'x'"),
        # a wrong width in row 0 comes before row 1's bad number
        ("1 2\n0 1 2\n0 x\n", "row 0 '0 1 2': expected 2d bounds for header '1 2'"),
        # every bad number comes before any empty side
        ("1 2\n5 1\n0 +\n", "bad number '+'"),
        # empty sides in row order, axis by axis within a row
        ("2 2\n0 1 5 1\n9 0 0 1\n", "empty interval [5, 1]"),
        ("2 2\n0 1 0 1\n1 0 5 1\n", "empty interval [1, 0]"),
    ],
)
def test_first_fault_in_row_order(tmp_path, text, message):
    path = tmp_path / "f.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_boxes(path)
    assert str(info.value) == message


def test_rows_raise_an_empty_side_before_a_later_wrong_width():
    with pytest.raises(ValueError, match=r"^empty interval \[3, 1\]$"):
        boxes_from_rows([[0, 1], [3, 1], [0, 1, 2, 3]])
    with pytest.raises(ValueError, match=r"^row 2: expected 2 bounds, got 4$"):
        boxes_from_rows([[0, 1], [1, 3], [0, 1, 2, 3]])
    with pytest.raises(ValueError, match=r"^row 0: expected an even number of bounds, got 0$"):
        boxes_from_rows([[]])


@pytest.fixture
def interval_builds(monkeypatch):
    """Names every ``Interval`` built: "checked" for each one the public
    constructor makes (its ``__post_init__`` runs), "derived" for each one
    that reading ``Box.sides`` or ``Box.side`` makes from ``bounds``
    (through ``geometry._side``). The library has no other way to build one."""
    calls = []
    check = Interval.__post_init__
    derive = geometry._side

    def checked(self):
        calls.append("checked")
        return check(self)

    def derived(lo, hi):
        calls.append("derived")
        return derive(lo, hi)

    monkeypatch.setattr(Interval, "__post_init__", checked)
    monkeypatch.setattr(geometry, "_side", derived)
    return calls


def test_bench_sized_load_and_normalize_build_no_interval(tmp_path, interval_builds):
    raw = tmp_path / "raw.txt"
    rows = workloads.sparse_rows(4)
    raw.write_text(f"2 {len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    fans = tmp_path / "fans.txt"
    save_boxes(workloads.WORKLOADS["fans-3d"].make(4), fans)
    interval_builds.clear()
    loaded = load_boxes(raw)
    assert interval_builds == []
    out = normalize(loaded)
    assert interval_builds == [] and out != loaded
    normalize(load_boxes(fans))
    boxes_from_rows(rows)
    assert interval_builds == []
    # the public constructors still check every object they build
    with pytest.raises(ValueError, match="empty interval"):
        box(0, (5, 1))
    with pytest.raises(ValueError, match="empty interval"):
        Interval(math.nan, 1)
    assert interval_builds == ["checked", "checked"]
    # and the derived sides are counted too
    assert out[0].side(1) == out[0].sides[1]
    assert interval_builds == ["checked", "checked"] + ["derived"] * 4


ROUND_TRIPS = {
    **{name: (lambda w=w: w.make(4)) for name, w in workloads.WORKLOADS.items()},
    "random-50-1": lambda: random_boxes(50, 1, 3),
    "random-50-4": lambda: random_boxes(50, 4, 3),
}


@pytest.mark.parametrize("name", ROUND_TRIPS)
def test_save_then_load_gives_the_same_boxes(tmp_path, name):
    boxes = ROUND_TRIPS[name]()
    path = tmp_path / "boxes.txt"
    save_boxes(boxes, path)
    back = load_boxes(path)
    assert back == boxes
    assert {type(v) for b in back for s in b.sides for v in (s.lo, s.hi)} == {int}



# rows with decimal and fractional tokens, shared endpoints and a
# zero-width side: normalize ranks every axis
SHARED_ROWS = [["0.5", "2", "1", "3"], ["2", "4.25", "1", "1"], ["1/2", "3", "0", "2.5"]]


class TestFamily:
    """The family ``load_boxes``, ``boxes_from_rows`` and ``normalize``
    return is a read-only sequence of boxes, equal to a list of them."""

    def test_index_slice_and_iteration_give_boxes(self):
        family = normalize(boxes_from_rows([[0, 3, 1, 2], [1, 2, 0, 3], [4, 5, 4, 5]]))
        listed = [box(0, (0, 3), (1, 2)), box(1, (1, 2), (0, 3)), box(2, (4, 5), (4, 5))]
        assert len(family) == 3 and list(family) == listed
        assert family[0] == listed[0] and family[-1] == family[2] == listed[2]
        assert family[-3] == listed[0]
        for past in (3, -4, 10**6):
            with pytest.raises(IndexError):
                family[past]
        assert family[1:] == listed[1:] and type(family[1:]) is list
        assert family[::-1] == listed[::-1] and family[5:] == []
        assert family == listed and listed == family
        assert family != listed[:2] and listed[:2] != family and family != 3
        assert [*family[:1], box(5, (0, 1), (0, 1))] != family

    def test_a_family_cannot_be_assigned(self):
        family = boxes_from_rows([[0, 1]])
        with pytest.raises(TypeError):
            family[0] = box(0, (0, 2))  # type: ignore[index]
        with pytest.raises(AttributeError):
            family.ids = range(2)  # type: ignore[misc]

    def test_normalize_returns_a_normalized_family_itself(self):
        raw = boxes_from_rows([[float(x) for x in row] for row in [[0, 7, 1, 1], [3, 9, 0, 4]]])
        once = normalize(raw)
        assert once != raw and normalize(once) is once
        assert normalize(list(once)) == once and normalize(raw) == once

    def test_text_json_and_rows_give_equal_families_and_certificates(self, tmp_path):
        text = tmp_path / "shared.txt"
        text.write_text("2 3\n" + "".join(" ".join(row) + "\n" for row in SHARED_ROWS))
        mirror = tmp_path / "shared.json"
        pairs = [[[row[0], row[1]], [row[2], row[3]]] for row in SHARED_ROWS]
        mirror.write_text(json.dumps({"boxes": pairs}))
        rows = [[geometry._parse_number(t) for t in row] for row in SHARED_ROWS]
        families = [load_boxes(text), load_boxes(mirror), boxes_from_rows(rows)]
        assert families[0] == families[1] == families[2]
        certificates = {
            certificate_to_json(color_or_find_forest(normalize(f), 1, 1)) for f in families
        }
        assert len(certificates) == 1


@pytest.fixture
def box_builds(monkeypatch):
    """The size of each ``Box`` build of a family: a family builds boxes
    only in ``__iter__``, which indexing and slicing go through too."""
    sizes = []
    build = geometry._Family.__iter__

    def counted(self):
        sizes.append(len(self))
        return build(self)

    monkeypatch.setattr(geometry._Family, "__iter__", counted)
    return sizes


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_certify_and_verify_of_a_loaded_family_build_no_box(tmp_path, box_builds, name):
    # fans-3d ends in a tree, which prunes children and checks the mapped
    # boxes; the others color. None of it needs a Box object
    workload = workloads.WORKLOADS[name]
    path = tmp_path / "boxes.txt"
    save_boxes(workload.make(4), path)
    w = workloads.max_depth(workload.make(4))
    box_builds.clear()
    cert = color_or_find_forest(normalize(load_boxes(path)), workload.r, workload.k, omega_bound=w)
    payload = parse_certificate(certificate_to_json(cert))
    assert payload["kind"] == workload.kind
    assert verify_certificate(normalize(load_boxes(path)), payload)[0]
    assert box_builds == []
    # the counter does see a build
    family = load_boxes(path)
    assert family[-1].id == len(family) - 1 and box_builds == [1]
