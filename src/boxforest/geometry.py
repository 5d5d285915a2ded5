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

One event sweep along axis 0 gathers, per arriving box, the open boxes
that share a cell of an index on axis 1 and filters them axis by axis, so
its work follows the pairs that meet on two axes rather than n^2. Only
``intersecting_pairs`` and the pattern decomposition classify the pairs.

Boxes that come from rows, from a box file or from ``normalize`` are built
column-wise by ``_boxes_from_columns``: each axis's lower and upper
endpoints are checked in one pass, and the objects are then made without a
Python-level call per box. ``box``, ``Interval`` and ``Box`` check each
object they build themselves.
"""

from __future__ import annotations

import enum
import itertools
import json
import operator
import re
from collections import defaultdict, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

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
        if not self.lo <= self.hi:  # also refuses a NaN endpoint
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
    """Build boxes from rows of 2d flat bounds ``lo_1 hi_1 ... lo_d hi_d``.

    Box i comes from row i. Every row must have the first row's even,
    nonzero width. The rows are transposed into per-axis endpoint columns
    and built by ``_boxes_from_columns``, and the first fault in row order
    is raised: a row of the wrong width, or an empty side (axis by axis
    within a row), with the messages a row-by-row build would give.
    """
    if not rows:
        return []
    widths = list(map(len, rows))
    width = widths[0]
    if width < 2 or width % 2 or widths.count(width) != len(widths):
        bad = next(i for i, w in enumerate(widths) if w < 2 or w % 2 or w != width)
        boxes_from_rows(rows[:bad])  # the rows before it raise their empty sides first
        if widths[bad] < 2 or widths[bad] % 2:
            raise ValueError(f"row {bad}: expected an even number of bounds, got {widths[bad]}")
        raise ValueError(f"row {bad}: expected {width} bounds, got {widths[bad]}")
    columns = list(zip(*rows))
    return _boxes_from_columns(range(len(rows)), columns[0::2], columns[1::2])


# building blocks of _boxes_from_columns: a bare instance, each slot's
# setter, and a sink that runs a map of them to the end in C
_new = object.__new__
_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__
_set_id = Box.id.__set__
_set_sides = Box.sides.__set__
_exhaust = deque(maxlen=0).extend


def _boxes_from_columns(
    ids: Sequence[int],
    los: Sequence[Sequence[Number]],
    his: Sequence[Sequence[Number]],
) -> list[Box]:
    """``Box(ids[i], (Interval(los[0][i], his[0][i]), ...))`` for each i.

    ``los[a]`` and ``his[a]`` are axis a's lower and upper endpoints, one
    per id, and there is at least one axis. Each axis is checked in one
    pass of ``operator.le`` (which also refuses NaN); the first empty side
    in row order, axis by axis within a row, raises ``Interval``'s
    ValueError. The checked objects are then made with ``object.__new__``
    and their slots filled through the slot descriptors inside ``map``, so
    no ``__init__`` or ``__post_init__`` runs per box.
    """
    first = None  # (row, axis) of the first empty side
    for axis, (lo, hi) in enumerate(zip(los, his)):
        if not all(map(operator.le, lo, hi)):
            row = next(i for i, ok in enumerate(map(operator.le, lo, hi)) if not ok)
            if first is None or row < first[0]:
                first = (row, axis)
    if first is not None:
        row, axis = first
        raise ValueError(f"empty interval [{los[axis][row]}, {his[axis][row]}]")
    n = len(ids)
    sides = []
    for lo, hi in zip(los, his):
        axis_sides = list(map(_new, itertools.repeat(Interval, n)))
        _exhaust(map(_set_lo, axis_sides, lo))
        _exhaust(map(_set_hi, axis_sides, hi))
        sides.append(axis_sides)
    boxes = list(map(_new, itertools.repeat(Box, n)))
    _exhaust(map(_set_id, boxes, ids))
    _exhaust(map(_set_sides, boxes, zip(*sides)))
    return boxes


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
    particular order: the batches of ``_sweep``, classified by
    ``_pattern_codes`` (``code`` is u's pattern relative to v).

    The sweep passes over the 2n axis-0 endpoints and files each open box in
    a cell index on axis 1, cells one mean axis-1 side wide, under the cell
    where its axis-1 side starts and each later cell it passes through. An
    arriving box gathers the open boxes passing through its first cell and
    those starting in one of its cells: each open box that meets it on axis
    1, once, and all of them meet it on axis 0. The batch is then filtered
    axis by axis, axes 1 to d - 1. So the cost is O(n log n), at most about
    3n cell entries, and a test per axis per pair that overlaps on axis 0
    and shares a cell on axis 1. Boxes must be normalized (distinct
    endpoints on every axis); ValueError otherwise.

    ``labels`` maps every box id to a label, such as its color. Each label
    then gets cells of its own, as many times wider as there are labels,
    and only pairs of boxes with one label are gathered and returned.
    """
    return _pattern_codes(
        boxes, ((min(i, j), max(i, j)) for j, hits in _sweep(boxes, labels) for i in hits)
    )


def _pattern_codes(
    boxes: Sequence[Box], pairs: Iterable[tuple[int, int]]
) -> list[tuple[int, int, int]]:
    """``(u, v, code)`` per pair of ids of meeting boxes, where ``code`` is
    u's pattern relative to v as an index into ``all_patterns``: one base-4
    digit per axis, axis 0 most significant, 0..3 for CONTAINS, CONTAINED,
    LEFT, RIGHT. Mirroring flips the low bit of every digit.

    Each axis's endpoints are read once as two columns indexed by id: lists
    when the boxes are listed with ids 0..n-1 in order, maps from id
    otherwise."""
    if not boxes:
        return []
    ids = [b.id for b in boxes]
    dense = ids == list(range(len(ids)))
    columns = []
    for axis in range(boxes[0].dim):
        sides = [b.sides[axis] for b in boxes]
        lo, hi = [s.lo for s in sides], [s.hi for s in sides]
        columns.append((lo, hi) if dense else (dict(zip(ids, lo)), dict(zip(ids, hi))))
    out = []
    for u, v in pairs:
        code = 0
        for lo, hi in columns:
            if lo[u] < lo[v]:
                code = 4 * code + (0 if hi[v] < hi[u] else 2)
            else:
                code = 4 * code + (1 if hi[u] < hi[v] else 3)
        out.append((u, v, code))
    return out


def _common_dim(boxes: Sequence[Box]) -> int:
    """The number of axes every box has; ValueError when two differ."""
    d = boxes[0].dim
    for b in boxes:
        if len(b.sides) != d:
            raise ValueError(f"dimension mismatch: box {b.id} has {b.dim} axes, expected {d}")
    return d


def _require_ids(boxes: Sequence[Box]) -> None:
    """ValueError unless the box ids are exactly 0..n-1, in any order."""
    if sorted(b.id for b in boxes) != list(range(len(boxes))):
        raise ValueError("box ids must be 0..n-1")


def _sweep(
    boxes: Sequence[Box], labels: Mapping[int, Hashable] | None
) -> Iterator[tuple[int, list[int]]]:
    """The sweep of ``intersecting_pairs`` in batches ``(j, hits)``: the id
    of an arriving box and the ids of the open boxes that meet it (and share
    its label), in a fixed order. Each pair is in one batch, and a batch
    holds at most the open boxes of one label."""
    if not boxes:
        return
    n = len(boxes)
    d = _common_dim(boxes)
    lows = [[b.sides[axis].lo for b in boxes] for axis in range(d)]
    highs = [[b.sides[axis].hi for b in boxes] for axis in range(d)]
    for axis in range(d):
        if len(set(lows[axis] + highs[axis])) != 2 * n:
            raise ValueError(f"shared endpoint on axis {axis}: normalize the boxes first")
    ids = [b.id for b in boxes]
    renamed = ids != list(range(n))  # positions are not the ids
    # labels become dense integers 0..kinds-1, and the index key of cell c
    # for label t is c * kinds + t, so every label has cells of its own
    if labels is None:
        kinds, tags = 1, [0] * n
    else:
        named = list(map(labels.__getitem__, ids))
        dense = {label: t for t, label in enumerate(dict.fromkeys(named))}
        kinds, tags = len(dense), list(map(dense.__getitem__, named))
    if d == 1:
        first = last = tags  # one cell: every open box meets on axis 0
    else:
        # cells are one mean axis-1 side wide times the number of labels:
        # a label has n / kinds boxes on average, so its cells hold about
        # as many of them as unlabelled cells hold boxes
        base = min(lows[1])
        total = (sum(highs[1]) - sum(lows[1])) * kinds
        width = total // n if isinstance(total, int) else total / n
        first = [(x - base) // width * kinds + t for x, t in zip(lows[1], tags)]
        last = [(x - base) // width * kinds + t for x, t in zip(highs[1], tags)]
        if not isinstance(width, int):  # a float floors to a float
            first, last = list(map(int, first)), list(map(int, last))
    filters = list(zip(lows[1:], highs[1:]))  # axes 1..d-1
    ends = lows[0] + highs[0]  # event e < n: box e arrives; e >= n: box e - n leaves
    # an open box is filed under its first cell in ``starting`` and under
    # each later cell it spans in ``passing``
    starting: defaultdict[int, dict[int, None]] = defaultdict(dict)
    passing: defaultdict[int, dict[int, None]] = defaultdict(dict)
    for j in sorted(range(2 * n), key=ends.__getitem__):
        if j >= n:  # box j - n leaves
            j -= n
            lo_cell, hi_cell = first[j], last[j]
            del starting[lo_cell][j]
            if hi_cell != lo_cell:
                for c in range(lo_cell + kinds, hi_cell + 1, kinds):
                    del passing[c][j]
            continue
        lo_cell, hi_cell = first[j], last[j]
        # the open boxes passing through j's first cell, then those that
        # start in one of j's cells: once each open box that meets j on axis
        # 1, and every open box meets j on axis 0
        hits = [*passing.get(lo_cell, ())]
        for c in range(lo_cell, hi_cell + 1, kinds):
            hits += starting.get(c, ())
        for lo, hi in filters:
            if not hits:
                break
            bottom, top = lo[j], hi[j]
            hits = [i for i in hits if lo[i] < top and bottom < hi[i]]
        if hits:
            yield (ids[j], [ids[i] for i in hits]) if renamed else (j, hits)
        starting[lo_cell][j] = None
        if hi_cell != lo_cell:
            for c in range(lo_cell + kinds, hi_cell + 1, kinds):
                passing[c][j] = None


def normalize(boxes: Sequence[Box]) -> list[Box]:
    """Replace coordinates by per-axis integer ranks; exact and idempotent.

    On each axis the 2n endpoints are ranked 0..2n-1 by (value, box id,
    lo-before-hi), so all endpoints become distinct while the relative
    order of distinct input values is preserved. The tie rule resolves
    shared endpoints deterministically (the earlier box id wins the smaller
    rank) and widens zero-width sides, since a box's lo always ranks before
    its own equal hi. Each axis is ranked by one stable sort of endpoint
    indices, with the endpoints laid out ``lo, hi`` box by box in ascending
    id order, so the sort's own tie order is the tie rule.

    Boxes come back in input order, each built once. When the input is
    already normalized (on every axis its coordinates are the ints
    0..2n-1, which are then their own ranks), the result is a new list of
    the same box objects. Otherwise every box is rebuilt from the per-axis
    rank columns by ``_boxes_from_columns``, so a coordinate such as
    ``Fraction(3)``, ``3.0`` or ``True`` becomes an int. Each axis's
    endpoint and rank lists are dropped once its columns are cut from them.
    """
    if not boxes:
        raise ValueError("empty box collection")
    d = _common_dim(boxes)
    ids = [b.id for b in boxes]
    ordered = boxes
    if not all(map(operator.lt, ids, ids[1:])):  # strictly ascending ids are distinct
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate box ids")
        ordered = sorted(boxes, key=operator.attrgetter("id"))
        ids = [b.id for b in ordered]
    size = 2 * len(ids)
    # one int object per rank, shared by every axis's sort and ranks
    positions = list(range(size))
    every = set(positions)
    los, his = [], []
    unchanged = True
    for axis in range(d):
        sides = [b.sides[axis] for b in ordered]
        vals: list[Number] = [0] * size
        vals[0::2] = [s.lo for s in sides]
        vals[1::2] = [s.hi for s in sides]
        if {*map(type, vals)} == {int} and set(vals) == every:
            ranks = vals  # the ints 0..2n-1 are their own ranks
        else:
            unchanged = False
            ranks = [0] * size
            _exhaust(map(ranks.__setitem__, sorted(positions, key=vals.__getitem__), positions))
        los.append(ranks[0::2])
        his.append(ranks[1::2])
        del vals, ranks
    if unchanged:
        return list(boxes)
    del positions, every
    built = _boxes_from_columns(ids, los, his)
    if ordered is boxes:
        return built
    by_id = dict(zip(ids, built))
    return [by_id[b.id] for b in boxes]


# a plain ASCII integer token, which int() reads far faster than Fraction()
_INTEGER = re.compile(r"[+-]?[0-9]+")
# text made only of these characters splits into tokens that int() accepts
# exactly when they match _INTEGER, and then reads as _parse_number does
_INTEGER_TEXT = re.compile(r"[0-9+\-\s]*")
# Fraction builds 10 ** exponent (1e99999999999 would take ~10^11 digits),
# so an exponent above the interpreter's default digit limit is refused
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*\Z")


def _quote(text: str) -> str:
    """``text`` quoted for an error message, a long one by a short prefix."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def _parse_number(token: str) -> Number:
    if _INTEGER.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # above the interpreter's limit of 4300 digits
            raise ValueError(f"bad number {_quote(token)}") from None
    exponent = _EXPONENT.search(token)
    digits = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > 4 or int(digits or 0) > 4300:
        raise ValueError(f"bad number {_quote(token)}: exponent above 4300")
    try:
        frac = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad number {_quote(token)}") from None
    return int(frac) if frac.denominator == 1 else frac


def _numbers(tokens: list[str], parse) -> list[Number]:
    """``tokens`` read by ``parse`` in one pass. The first token refused
    raises ``_parse_number``'s error, whichever reader refused it."""
    try:
        return list(map(parse, tokens))
    except ValueError:
        for token in tokens:
            _parse_number(token)
        raise


def load_boxes(path: str) -> list[Box]:
    """Read a box file (header ``d n``, then n rows of 2d decimals).

    A JSON mirror is accepted: an object with a ``boxes`` key whose entries
    are per-axis ``[lo, hi]`` pairs. Ids are assigned by 0-based order.

    A text file is read column-wise. Each row's width is checked on its
    own, and the rows are dropped; then the whole text is split into
    tokens once and read in one pass, by ``int`` when the file is made of
    plain ASCII integers and by ``_parse_number`` otherwise. Every
    ``2d``-th number from a given offset is one endpoint column, and
    ``_boxes_from_columns`` builds the boxes. The first fault in row order
    is raised: a row of the wrong width or a bad number, and only then an
    empty side.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return _boxes_from_json(text.lstrip())
    rows = [ln for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise ValueError("empty box file")
    header = rows.pop(0)
    try:
        d, n = map(int, header.split())
    except ValueError:  # not two tokens, or not integers
        raise ValueError(f"bad header {_quote(header)}: expected two integers 'd n'") from None
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if n < 1:
        raise ValueError("box count must be at least 1")
    if len(rows) != n:
        raise ValueError(f"header {_quote(header)} does not match the {len(rows)} box rows")
    parse = int if text.isascii() and _INTEGER_TEXT.fullmatch(text) else _parse_number
    width = 2 * d
    if not all(map(width.__eq__, map(len, map(str.split, rows)))):
        bad = next(i for i, row in enumerate(rows) if len(row.split()) != width)
        _numbers(" ".join(rows[:bad]).split(), parse)  # the rows before it raise first
        raise ValueError(
            f"row {bad} {_quote(rows[bad])}: expected 2d bounds for header {_quote(header)}"
        )
    del rows
    tokens = text.split()
    del text, tokens[:2]  # the header's two tokens
    values = _numbers(tokens, parse)
    del tokens
    los = [values[a::width] for a in range(0, width, 2)]
    his = [values[a::width] for a in range(1, width, 2)]
    del values
    return _boxes_from_columns(range(n), los, his)


_JSON_TYPE_NAMES = {list: "array", dict: "object", bool: "boolean", type(None): "null"}


def _boxes_from_json(text: str) -> list[Box]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON box file: {exc}") from None
    except RecursionError:
        raise ValueError("bad JSON box file: nested too deeply") from None
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
            for v in pair:
                kind = type(v)
                if kind is int:
                    flat.append(v)
                elif kind in (float, str):
                    flat.append(_parse_number(str(v)))
                else:
                    # never str() the value: it may be a huge nested list
                    raise ValueError(
                        f"box {i}: a bound must be a number or a numeric string, "
                        f"not JSON {_JSON_TYPE_NAMES[kind]}"
                    )
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
