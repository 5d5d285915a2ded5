"""Axis-aligned boxes, endpoint normalization, and per-axis overlap patterns.

A box in R^d is a product of d closed intervals. Two boxes intersect iff
their intervals overlap on every axis. After normalization all endpoint
values on an axis are distinct integers, so every overlapping pair of
intervals falls into exactly one of four strict types:

* ``CONTAINS``:   lo1 < lo2 < hi2 < hi1
* ``CONTAINED``:  lo2 < lo1 < hi1 < hi2
* ``LEFT``:       lo1 < lo2 < hi1 < hi2   (first interval sticks out left)
* ``RIGHT``:      lo2 < lo1 < hi2 < hi1   (first interval sticks out right)

The d-tuple of per-axis types is the ordered pair's *pattern*; swapping the
pair mirrors the pattern coordinatewise (CONTAINS <-> CONTAINED,
LEFT <-> RIGHT).
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

__all__ = [
    "OverlapType",
    "Pattern",
    "Interval",
    "Box",
    "all_patterns",
    "box",
    "boxes_from_rows",
    "boxes_to_text",
    "classify_overlap",
    "intersecting_pairs",
    "intersection_pattern",
    "intersects",
    "load_boxes",
    "normalize",
    "save_boxes",
]

Number = int | Fraction


class OverlapType(enum.Enum):
    """Strict overlap type of an ordered interval pair with distinct endpoints."""

    CONTAINS = "C"
    CONTAINED = "c"
    LEFT = "L"
    RIGHT = "R"

    @property
    def mirrored(self) -> "OverlapType":
        return _MIRROR[self]


_MIRROR = {
    OverlapType.CONTAINS: OverlapType.CONTAINED,
    OverlapType.CONTAINED: OverlapType.CONTAINS,
    OverlapType.LEFT: OverlapType.RIGHT,
    OverlapType.RIGHT: OverlapType.LEFT,
}

# Canonical axis-type order; fixes the enumeration order of all_patterns().
_TYPE_ORDER = (
    OverlapType.CONTAINS,
    OverlapType.CONTAINED,
    OverlapType.LEFT,
    OverlapType.RIGHT,
)


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [lo, hi]; nonempty, so lo <= hi."""

    lo: Number
    hi: Number

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def overlaps(self, other: "Interval") -> bool:
        """Strict interior overlap; correct whenever endpoints are distinct."""
        return self.lo < other.hi and other.lo < self.hi


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned box: one closed interval per axis, plus a stable id."""

    id: int
    sides: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if not self.sides:
            raise ValueError("box needs at least one axis")

    @property
    def dim(self) -> int:
        return len(self.sides)

    def side(self, axis: int) -> Interval:
        return self.sides[axis]


def box(id: int, *bounds: tuple[Number, Number]) -> Box:
    """Convenience constructor: ``box(3, (0, 2), (1, 5))`` is a 2d box."""
    return Box(id, tuple(Interval(lo, hi) for lo, hi in bounds))


def boxes_from_rows(rows: Sequence[Sequence[Number]]) -> list[Box]:
    """Build boxes from rows of 2d flat bounds ``lo_1 hi_1 ... lo_d hi_d``."""
    out = []
    width = None
    for i, row in enumerate(rows):
        if len(row) < 2 or len(row) % 2:
            raise ValueError(f"row {i}: expected an even number of bounds, got {len(row)}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"row {i}: expected {width} bounds, got {len(row)}")
        out.append(box(i, *[(row[j], row[j + 1]) for j in range(0, len(row), 2)]))
    return out


@dataclass(frozen=True, slots=True)
class Pattern:
    """Ordered intersection pattern: one overlap type per axis."""

    axes: tuple[OverlapType, ...]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("pattern needs at least one axis")

    @property
    def dim(self) -> int:
        return len(self.axes)

    def mirrored(self) -> "Pattern":
        """Pattern seen from the other endpoint of the ordered pair."""
        return Pattern(tuple(t.mirrored for t in self.axes))

    def __str__(self) -> str:
        return "".join(t.value for t in self.axes)

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        try:
            return cls(tuple(OverlapType(ch) for ch in text))
        except ValueError:
            raise ValueError(f"bad pattern string {text!r}") from None


def all_patterns(d: int) -> list[Pattern]:
    """All 4^d patterns in canonical (lexicographic by axis type) order."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return [Pattern(axes) for axes in itertools.product(_TYPE_ORDER, repeat=d)]


def classify_overlap(a: Interval, b: Interval) -> OverlapType | None:
    """Overlap type of ``a`` relative to ``b``, or None when disjoint.

    Requires all four endpoints pairwise distinct (normalized input);
    raises ValueError on a shared endpoint since the strict types are
    undefined there.
    """
    if a.lo == b.lo or a.lo == b.hi or a.hi == b.lo or a.hi == b.hi:
        raise ValueError(f"shared endpoint between [{a.lo},{a.hi}] and [{b.lo},{b.hi}]")
    if a.hi < b.lo or b.hi < a.lo:
        return None
    if a.lo < b.lo:
        return OverlapType.CONTAINS if b.hi < a.hi else OverlapType.LEFT
    return OverlapType.CONTAINED if a.hi < b.hi else OverlapType.RIGHT


def intersection_pattern(a: Box, b: Box) -> Pattern | None:
    """Pattern of ``a`` relative to ``b``; None when the boxes are disjoint."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    axes = []
    for i in range(a.dim):
        t = classify_overlap(a.side(i), b.side(i))
        if t is None:
            return None
        axes.append(t)
    return Pattern(tuple(axes))


def intersects(a: Box, b: Box) -> bool:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return all(a.side(i).overlaps(b.side(i)) for i in range(a.dim))


def intersecting_pairs(
    boxes: Sequence[Box], labels: Mapping[int, Hashable] | None = None
) -> list[tuple[int, int, int]]:
    """Every intersecting pair once as ``(u, v, code)`` with ids u < v, in no
    particular order.

    ``code`` is the index of u's pattern relative to v in ``all_patterns``
    order: one base-4 digit per axis, axis 0 most significant, digit 0..3
    for CONTAINS, CONTAINED, LEFT, RIGHT. Mirroring flips the low bit of
    every digit.

    One sweep over axis 0 in order of lower endpoints keeps the boxes whose
    axis-0 side is still open and tests each arriving box against those
    only, so the cost is O(n log n) plus one test per pair that overlaps on
    axis 0. Boxes must be normalized (distinct endpoints on every axis);
    ValueError otherwise.

    ``labels`` maps every box id to a label, such as its color. When given,
    the sweep keeps one open list per label and tests an arriving box only
    against open boxes with its label, so the result is the pairs above
    whose two boxes share a label, at the cost of one test per such pair
    that overlaps on axis 0.
    """
    if not boxes:
        return []
    d = boxes[0].dim
    for b in boxes:
        if b.dim != d:
            raise ValueError(f"dimension mismatch: box {b.id} has {b.dim} axes, expected {d}")
    sides = [tuple((s.lo, s.hi) for s in b.sides) for b in boxes]
    for axis in range(d):
        if len({x for bounds in sides for x in bounds[axis]}) != 2 * len(boxes):
            raise ValueError(f"shared endpoint on axis {axis}: normalize the boxes first")
    ids = [b.id for b in boxes]
    flip = (4**d - 1) // 3  # the low bit of every base-4 digit
    tags = [None] * len(ids) if labels is None else [labels[i] for i in ids]
    order = sorted(range(len(boxes)), key=lambda i: sides[i][0][0])
    open_by_tag: dict[Hashable, list[int]] = {}
    found = []
    for j in order:
        mine = sides[j]
        start = mine[0][0]
        active = [i for i in open_by_tag.get(tags[j], ()) if sides[i][0][1] > start]
        for i in active:
            # code of the open box i relative to the arriving box j
            code = 0
            for (lo, hi), (olo, ohi) in zip(sides[i], mine):
                if hi < olo or ohi < lo:
                    break
                if lo < olo:
                    code = 4 * code + (0 if ohi < hi else 2)
                else:
                    code = 4 * code + (1 if hi < ohi else 3)
            else:
                if ids[i] < ids[j]:
                    found.append((ids[i], ids[j], code))
                else:
                    found.append((ids[j], ids[i], code ^ flip))
        active.append(j)
        open_by_tag[tags[j]] = active
    return found


def normalize(boxes: Sequence[Box]) -> list[Box]:
    """Replace coordinates by per-axis integer ranks; exact and idempotent.

    On each axis the 2n endpoints are sorted by (value, box id, lo-before-hi)
    and replaced by their rank 0..2n-1, so all endpoints become distinct
    while the relative order of distinct input values is preserved. The tie
    rule resolves shared endpoints deterministically (the earlier box id
    wins the smaller rank) and widens zero-width sides, since a box's lo
    always ranks before its own equal hi.
    """
    if not boxes:
        raise ValueError("empty box collection")
    d = boxes[0].dim
    for b in boxes:
        if b.dim != d:
            raise ValueError(f"dimension mismatch: box {b.id} has {b.dim} axes, expected {d}")
    ranked: dict[int, list[list[int]]] = {b.id: [[0, 0] for _ in range(d)] for b in boxes}
    if len(ranked) != len(boxes):
        raise ValueError("duplicate box ids")
    for axis in range(d):
        # endpoint record: (value, box id, 0 for lo / 1 for hi)
        records = []
        for b in boxes:
            side = b.side(axis)
            records.append((side.lo, b.id, 0))
            records.append((side.hi, b.id, 1))
        records.sort()
        for rank, (_, bid, which) in enumerate(records):
            ranked[bid][axis][which] = rank
    return [
        Box(b.id, tuple(Interval(lo, hi) for lo, hi in ranked[b.id]))
        for b in boxes
    ]


def _parse_number(token: str) -> Number:
    frac = Fraction(token)
    return int(frac) if frac.denominator == 1 else frac


def load_boxes(path: str) -> list[Box]:
    """Read a box file (header ``d n``, then n rows of 2d decimals).

    A JSON mirror is accepted: an object with a ``boxes`` key whose entries
    are per-axis ``[lo, hi]`` pairs. Ids are assigned by 0-based order.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _boxes_from_json(stripped)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty box file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header {lines[0]!r}: expected 'd n'")
    try:
        d, n = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"bad header {lines[0]!r}: expected integers") from None
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if n < 1:
        raise ValueError("box count must be at least 1")
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} box rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        tokens = ln.split()
        if len(tokens) != 2 * d:
            raise ValueError(f"row {ln!r}: expected {2 * d} bounds")
        rows.append([_parse_number(t) for t in tokens])
    return boxes_from_rows(rows)


def _boxes_from_json(text: str) -> list[Box]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON box file: {exc}") from None
    if not isinstance(payload, dict) or "boxes" not in payload:
        raise ValueError("JSON box file needs a 'boxes' key")
    entries = payload["boxes"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("'boxes' must be a nonempty list")
    rows = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, list) or not entry:
            raise ValueError(f"box {i}: expected a list of [lo, hi] pairs")
        flat: list[Number] = []
        for pair in entry:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"box {i}: each axis must be a [lo, hi] pair")
            flat.extend(_parse_number(str(v)) for v in pair)
        rows.append(flat)
    return boxes_from_rows(rows)


def boxes_to_text(boxes: Sequence[Box]) -> str:
    """Text box file format (header ``d n``, ids follow row order)."""
    if not boxes:
        raise ValueError("empty box collection")
    d = boxes[0].dim
    lines = [f"{d} {len(boxes)}"]
    for b in sorted(boxes, key=lambda b: b.id):
        flat: Iterable[str] = (
            str(v) for side in b.sides for v in (side.lo, side.hi)
        )
        lines.append(" ".join(flat))
    return "\n".join(lines) + "\n"


def save_boxes(boxes: Sequence[Box], path: str) -> None:
    """Write the text box file format (ids follow row order)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(boxes_to_text(boxes))
