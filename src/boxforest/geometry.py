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

A ``Box`` stores its id and one flat tuple ``bounds = (lo_0, hi_0, ...,
lo_{d-1}, hi_{d-1})``, the row a box file holds; its ``Interval`` sides
are derived on each read. The sides of rows and of a box file are checked
in one pass; their boxes, and those ``normalize`` rebuilds from ranks, are
then one tuple and one ``Box`` each, made by ``_boxes`` without a
Python-level call per box. The library reads endpoints as the columns of
``_columns``, one transpose of the boxes' ``bounds``. ``box``,
``Interval`` and ``Box`` check each object they build themselves.
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


# building blocks of the bulk builds: a bare instance, each slot's
# setter, and a sink that runs a map of them to the end in C
_new = object.__new__
_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__
_exhaust = deque(maxlen=0).extend


def _side(lo: Number, hi: Number) -> Interval:
    """``Interval(lo, hi)`` for endpoints already checked: no check runs."""
    side = _new(Interval)
    _set_lo(side, lo)
    _set_hi(side, hi)
    return side


@dataclass(frozen=True, slots=True, init=False)
class Box:
    """Axis-aligned box: a stable id and one flat tuple of bounds,
    ``(lo_0, hi_0, ..., lo_{d-1}, hi_{d-1})``, a box file's row.

    ``Box(id, sides)`` takes one ``Interval`` per axis. Equality and hash
    follow ``(id, bounds)``; ``sides``, ``side`` and ``dim`` are derived
    from ``bounds`` when read, and ``sides`` builds its intervals anew on
    every read, so the library reads ``bounds`` instead.
    """

    id: int
    bounds: tuple[Number, ...]

    def __init__(self, id: int, sides: Sequence[Interval]) -> None:
        if not sides:
            raise ValueError("box needs at least one axis")
        _set_id(self, id)
        _set_bounds(self, tuple(itertools.chain.from_iterable(map(_lo_hi, sides))))

    @property
    def dim(self) -> int:
        return len(self.bounds) // 2

    @property
    def sides(self) -> tuple[Interval, ...]:
        bounds = self.bounds
        return tuple(map(_side, bounds[0::2], bounds[1::2]))

    def side(self, axis: int) -> Interval:
        return self.sides[axis]


_set_id = Box.id.__set__
_set_bounds = Box.bounds.__set__
_lo_hi = operator.attrgetter("lo", "hi")
_id = operator.attrgetter("id")
_bounds = operator.attrgetter("bounds")


def box(id: int, *bounds: tuple[Number, Number]) -> Box:
    """Convenience constructor: ``box(3, (0, 2), (1, 5))`` is a 2d box."""
    return Box(id, tuple(Interval(lo, hi) for lo, hi in bounds))


def boxes_from_rows(rows: Sequence[Sequence[Number]]) -> list[Box]:
    """Build boxes from rows of 2d flat bounds ``lo_1 hi_1 ... lo_d hi_d``.

    Box i comes from row i. Every row must have the first row's even,
    nonzero width. The rows are flattened into one list of endpoints and
    built by ``_boxes_from_values``, and the first fault in row order is
    raised: a row of the wrong width, or an empty side (axis by axis
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
    return _boxes_from_values(list(itertools.chain.from_iterable(rows)), width)


def _boxes_from_values(values: list[Number], width: int) -> list[Box]:
    """Boxes 0, 1, ... whose bounds are the consecutive runs of ``width``
    (an even, nonzero number) values: box i's are
    ``values[i * width:(i + 1) * width]``.

    Every side is checked in one pass of ``operator.le`` over the lower
    and upper endpoints (which also refuses NaN); the first empty side in
    row order, axis by axis within a row, raises ``Interval``'s
    ValueError. The bounds are then cut straight from the values and the
    boxes made by ``_boxes``.
    """
    los, his = values[0::2], values[1::2]
    if not all(map(operator.le, los, his)):
        k = next(i for i, ok in enumerate(map(operator.le, los, his)) if not ok)
        raise ValueError(f"empty interval [{los[k]}, {his[k]}]")
    del los, his
    return _boxes(range(len(values) // width), zip(*[iter(values)] * width))


def _boxes(ids: Sequence[int], bounds: Iterable[tuple[Number, ...]]) -> list[Box]:
    """``Box``es of the given ids and bounds tuples, unchecked: made with
    ``object.__new__`` and their two slots filled through the slot
    descriptors inside ``map``, so there is no Python-level call per box."""
    boxes = list(map(_new, itertools.repeat(Box, len(ids))))
    _exhaust(map(_set_id, boxes, ids))
    _exhaust(map(_set_bounds, boxes, bounds))
    return boxes


def _columns(boxes: Sequence[Box]) -> list[tuple[Number, ...]]:
    """The 2d endpoint columns of the boxes in ``bounds`` order, ``[lo_0,
    hi_0, lo_1, ...]``, each a tuple in listing order: one transpose of the
    boxes' ``bounds``, which also checks that they have one dimension
    (ValueError naming the first box of another)."""
    try:
        return list(zip(*map(_bounds, boxes), strict=True))
    except ValueError:
        _width(boxes)  # raises, naming the first box of another dimension
        raise


def _width(boxes: Sequence[Box]) -> int:
    """The length of every box's ``bounds``, twice their common dimension;
    ValueError naming the first box of another."""
    width = len(boxes[0].bounds)
    if not all(map(width.__eq__, map(len, map(_bounds, boxes)))):
        b = next(b for b in boxes if len(b.bounds) != width)
        raise ValueError(f"dimension mismatch: box {b.id} has {b.dim} axes, expected {width // 2}")
    return width


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
    return _overlap_type(a.lo, a.hi, b.lo, b.hi)


def _overlap_type(alo: Number, ahi: Number, blo: Number, bhi: Number) -> OverlapType | None:
    """``classify_overlap`` of the sides [alo, ahi] and [blo, bhi]."""
    if alo == blo or alo == bhi or ahi == blo or ahi == bhi:
        raise ValueError(f"shared endpoint between [{alo},{ahi}] and [{blo},{bhi}]")
    if ahi < blo or bhi < alo:
        return None
    if alo < blo:
        return OverlapType.CONTAINS if bhi < ahi else OverlapType.LEFT
    return OverlapType.CONTAINED if ahi < bhi else OverlapType.RIGHT


def intersection_pattern(a: Box, b: Box) -> Pattern | None:
    """Pattern of ``a`` relative to ``b``; None when the boxes are disjoint."""
    x, y = a.bounds, b.bounds
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    axes = []
    for i in range(0, len(x), 2):
        t = _overlap_type(x[i], x[i + 1], y[i], y[i + 1])
        if t is None:
            return None
        axes.append(t)
    return Pattern(tuple(axes))


def intersects(a: Box, b: Box) -> bool:
    """Whether the sides overlap strictly on every axis."""
    x, y = a.bounds, b.bounds
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return all(map(operator.lt, x[0::2], y[1::2])) and all(map(operator.lt, y[0::2], x[1::2]))


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

    Each axis's endpoints are read once as two columns indexed by id: the
    columns of ``_columns`` when the boxes are listed with ids 0..n-1 in
    order, maps from id otherwise."""
    if not boxes:
        return []
    ids = list(map(_id, boxes))
    dense = ids == list(range(len(ids)))
    ends = _columns(boxes)
    columns = []
    for lo, hi in zip(ends[0::2], ends[1::2]):
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


def _require_ids(boxes: Sequence[Box]) -> None:
    """ValueError unless the box ids are exactly 0..n-1, in any order."""
    if sorted(map(_id, boxes)) != list(range(len(boxes))):
        raise ValueError("box ids must be 0..n-1")


def _sweep(
    boxes: Sequence[Box], labels: Mapping[int, Hashable] | Sequence[Hashable] | None
) -> Iterator[tuple[int, list[int]]]:
    """The sweep of ``intersecting_pairs`` in batches ``(j, hits)``: the id
    of an arriving box and the ids of the open boxes that meet it (and share
    its label), in a fixed order. Each pair is in one batch, and a batch
    holds at most the open boxes of one label."""
    if not boxes:
        return
    n = len(boxes)
    columns = _columns(boxes)
    d = len(columns) // 2
    lows, highs = columns[0::2], columns[1::2]
    for axis in range(d):
        if len(set(lows[axis] + highs[axis])) != 2 * n:
            raise ValueError(f"shared endpoint on axis {axis}: normalize the boxes first")
    ids = list(map(_id, boxes))
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

    Boxes come back in input order, each built once. The endpoints are
    read as the columns of ``_columns``, one transpose of the boxes'
    ``bounds``. When the input is already normalized (on every axis its
    coordinates are the ints 0..2n-1, which are then their own ranks), the
    result is a new list of the same box objects. Otherwise every box gets
    one new ``bounds`` tuple, cut from the columns with each ranked axis's
    columns replaced by its ranks, so a coordinate such as ``Fraction(3)``,
    ``3.0`` or ``True`` becomes an int; ranks are ordered sides, so no
    check runs. Each axis's endpoint and rank lists are dropped once its
    columns are cut from them.
    """
    if not boxes:
        raise ValueError("empty box collection")
    columns = _columns(boxes)
    d = len(columns) // 2
    ids = list(map(_id, boxes))
    ordered = boxes
    if not all(map(operator.lt, ids, ids[1:])):  # strictly ascending ids are distinct
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate box ids")
        ordered = sorted(boxes, key=_id)
        ids = list(map(_id, ordered))
        columns = _columns(ordered)
    size = 2 * len(ids)
    positions: list[int] = []  # one int object per rank, shared by every axis's sort and ranks
    for axis in range(d):
        lo, hi = columns[2 * axis], columns[2 * axis + 1]
        # 2n distinct ints between 0 and 2n - 1 (every lo <= its hi) are
        # the ints 0..2n-1, their own ranks
        if (
            max(hi) < size
            and min(lo) >= 0
            and len({*lo, *hi}) == size
            and {*map(type, lo), *map(type, hi)} == {int}
        ):
            continue
        positions = positions or list(range(size))
        vals: list[Number] = [0] * size
        vals[0::2], vals[1::2] = lo, hi
        ranks = [0] * size
        _exhaust(map(ranks.__setitem__, sorted(positions, key=vals.__getitem__), positions))
        columns[2 * axis], columns[2 * axis + 1] = ranks[0::2], ranks[1::2]
        del vals, ranks
    if not positions:
        return list(boxes)
    del positions
    built = _boxes(ids, zip(*columns))
    del columns
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

    A text file is read in bulk. Each row's width is checked on its own,
    and the rows are dropped; then the whole text is split into tokens
    once and read in one pass, by ``int`` when the file is made of plain
    ASCII integers and by ``_parse_number`` otherwise. Each run of ``2d``
    consecutive numbers is one box's ``bounds``, and
    ``_boxes_from_values`` checks the sides and builds the boxes. The first
    fault in row order is raised: a row of the wrong width or a bad number,
    and only then an empty side.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return _boxes_from_json(text.lstrip())
    rows = list(filter(str.strip, text.splitlines()))  # the nonblank lines
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
    return _boxes_from_values(values, width)


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
    width = _width(boxes)
    # one row per box in id order, its bounds each written by str, all
    # filled in by one format
    row = " ".join(["%s"] * width) + "\n"
    values = tuple(itertools.chain.from_iterable(map(_bounds, sorted(boxes, key=_id))))
    return f"{width // 2} {len(boxes)}\n" + row * len(boxes) % values


def save_boxes(boxes: Sequence[Box], path: str) -> None:
    """Write the text box file format (ids follow row order)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(boxes_to_text(boxes))
