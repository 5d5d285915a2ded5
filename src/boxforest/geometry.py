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

One sweep files the boxes once, in axis-0 order, into the cells of an
index on axis 1. Each box takes its partners in a cell as one bisect
slice of the cell's axis-0 order, so each pair that shares a cell is
found once, in the later of its two first cells, and the slices are
filtered axis by axis: the work follows the pairs that meet on two axes
rather than n^2. Only ``intersecting_pairs`` and the pattern
decomposition classify the pairs. The sweep and the classifier read
ranks, and box i at position i: each library entry that takes a family
with ids 0..n-1 ranks it and puts it in id order once, by ``_by_id``.

A ``Box`` stores its id and one flat tuple ``bounds = (lo_0, hi_0, ...,
lo_{d-1}, hi_{d-1})``, the row a box file holds; its ``Interval`` sides
are derived on each read. A family is a ``_Family``: the ids and the 2d
endpoint columns, which the kernels read. A box file, rows and
``normalize`` give one cut straight from their values, every side checked
in one pass, and it builds ``Box`` objects only when indexed. ``box``,
``Interval`` and ``Box`` check each object they build themselves.
"""

from __future__ import annotations

import enum
import itertools
import json
import operator
import re
import sys
from bisect import bisect_left
from collections import defaultdict, deque
from collections.abc import Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

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


def box(id: int, *bounds: tuple[Number, Number]) -> Box:
    """Convenience constructor: ``box(3, (0, 2), (1, 5))`` is a 2d box."""
    return Box(id, tuple(Interval(lo, hi) for lo, hi in bounds))


def boxes_from_rows(rows: Sequence[Sequence[Number]]) -> _Family:
    """Build boxes from rows of 2d flat bounds ``lo_1 hi_1 ... lo_d hi_d``.

    Box i comes from row i. Every row must have the first row's even,
    nonzero width. The rows are flattened into one list of endpoints and
    read by ``_from_values``, and the first fault in row order is raised:
    a row of the wrong width, or an empty side (axis by axis within a
    row), with the messages a row-by-row build would give.
    """
    if not rows:
        return _Family(range(0), ())
    widths = list(map(len, rows))
    width = widths[0]
    if width < 2 or width % 2 or widths.count(width) != len(widths):
        bad = next(i for i, w in enumerate(widths) if w < 2 or w % 2 or w != width)
        boxes_from_rows(rows[:bad])  # the rows before it raise their empty sides first
        if widths[bad] < 2 or widths[bad] % 2:
            raise ValueError(f"row {bad}: expected an even number of bounds, got {widths[bad]}")
        raise ValueError(f"row {bad}: expected {width} bounds, got {widths[bad]}")
    return _from_values(list(itertools.chain.from_iterable(rows)), width)


def _from_values(values: list[Number], width: int) -> _Family:
    """The family of boxes 0, 1, ... whose bounds are the runs of ``width``
    (even, nonzero) values, its columns cut straight from them. Each side
    is checked by ``operator.le`` over two columns (NaN fails too); the
    first empty side in row order raises ``Interval``'s ValueError."""
    columns = tuple(tuple(values[a::width]) for a in range(width))
    if not all(all(map(operator.le, lo, hi)) for lo, hi in zip(columns[0::2], columns[1::2])):
        los, his = values[0::2], values[1::2]
        k = next(i for i, ok in enumerate(map(operator.le, los, his)) if not ok)
        raise ValueError(f"empty interval [{los[k]}, {his[k]}]")
    return _Family(range(len(values) // width), columns)


@dataclass(frozen=True, slots=True, eq=False)
class _Family(Sequence):
    """The library's box family: box i has id ``ids[i]`` and bounds
    ``tuple(c[i] for c in columns)``, where ``columns`` are the 2d endpoint
    columns in ``bounds`` order, each a tuple, which the kernels read. A
    read-only ``Sequence[Box]``, equal to any sequence of equal boxes, it
    builds ``Box`` objects only when indexed or iterated."""

    ids: Sequence[int]
    columns: tuple[tuple[Number, ...], ...]

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if not isinstance(index, slice):  # a slice of one: IndexError past either end
            return self[index : index + 1 or None][0]
        return list(_Family(self.ids[index], tuple(c[index] for c in self.columns)))

    def __iter__(self) -> Iterator[Box]:
        # unchecked boxes, made with ``object.__new__`` and their two slots
        # filled through the slot descriptors inside ``map``: no call per box
        boxes = list(map(_new, itertools.repeat(Box, len(self.ids))))
        _exhaust(map(_set_id, boxes, self.ids))
        _exhaust(map(_set_bounds, boxes, zip(*self.columns)))
        return iter(boxes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and (
            len(self) == len(other) and all(map(operator.eq, self, other))
        )

    def take(self, positions: Sequence[int]) -> _Family:
        """The boxes at ``positions``, in that order, as a family."""
        return _Family(
            list(map(self.ids.__getitem__, positions)),
            tuple(tuple(map(c.__getitem__, positions)) for c in self.columns),
        )


class _Ranked(_Family):
    """A family ``normalize`` returned: each axis's ends are the ints 0..2n-1."""

    __slots__ = ()


def _as_family(boxes: Sequence[Box]) -> _Family:
    """``boxes`` as a family: itself when it is one, else its boxes' ids and
    the columns of their ``bounds``, one transpose; ValueError names the
    first box of another dimension than box 0's."""
    if isinstance(boxes, _Family):
        return boxes
    try:
        columns = tuple(zip(*(b.bounds for b in boxes), strict=True))
    except ValueError:
        width = len(boxes[0].bounds)
        b = next(b for b in boxes if len(b.bounds) != width)
        raise ValueError(
            f"dimension mismatch: box {b.id} has {b.dim} axes, expected {width // 2}"
        ) from None
    return _Family(tuple(b.id for b in boxes), columns)


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

    The sweep sorts the boxes once by axis-0 lo and, in that order, files
    each box in a cell index on axis 1, cells one mean axis-1 side wide,
    under every cell its axis-1 side spans. A cell lists all its members
    and, apart, its starters: the boxes whose first cell it is. A pair
    that shares a cell is found once, in the later of its two first cells,
    by whichever of the two starts first on axis 0: a starter takes the
    later members that start before it ends, one ``bisect_left`` slice of
    the cell's sorted lo keys, and a box that only passes through takes
    the starters within its axis-0 side, two bisects. Every box in a slice
    meets it on axis 0, and the slice is then filtered axis by axis, axes
    1 to d - 1. So the cost is O(n log n), plus at most about 3n cell
    entries, plus one test per axis per candidate, a pair that overlaps on
    axis 0 and shares a cell on axis 1. The boxes are ranked first, by
    ``normalize``, so raw input gives the pairs and patterns of its ranks.

    ``labels`` maps every box id to a label, such as its color. Each label
    then gets cells of its own, as many times wider as there are labels,
    and only pairs of boxes with one label are found and returned.

    The ids may be any distinct ints: the sweep and the classifier read
    the boxes by position in id order, and the positions are mapped back
    to ids here.
    """
    family = normalize(boxes)
    ordered = family.take(sorted(range(len(family)), key=family.ids.__getitem__))
    ids = ordered.ids
    tags = None if labels is None else list(map(labels.__getitem__, ids))
    pairs = ((min(i, j), max(i, j)) for j, hits in _sweep(ordered, tags) for i in hits)
    return [(ids[u], ids[v], code) for u, v, code in _pattern_codes(ordered, pairs)]


def _pattern_codes(boxes: _Family, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """``(u, v, code)`` per pair of positions of meeting boxes, where
    ``code`` is u's pattern relative to v as an index into
    ``all_patterns``: one base-4 digit per axis, axis 0 most significant,
    0..3 for CONTAINS, CONTAINED, LEFT, RIGHT. Mirroring flips the low bit
    of every digit. Each axis's endpoints are read as its two columns."""
    ends = boxes.columns
    columns = list(zip(ends[0::2], ends[1::2]))
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


def _by_id(boxes: Sequence[Box]) -> _Ranked:
    """The family ranked and in id order, box i at position i, when its ids
    are 0..n-1, and ValueError otherwise: ``boxes`` itself, in O(1), when
    ``normalize`` returned it and it is in id order, as a loaded file is.
    The library's family entries call it once, and everything behind them
    reads ranks, and a box's id as its position."""
    family = _as_family(boxes)
    n = len(family)
    if family.ids != range(n) and list(family.ids) != list(range(n)):
        order = sorted(range(n), key=family.ids.__getitem__)
        if list(map(family.ids.__getitem__, order)) != list(range(n)):
            raise ValueError("box ids must be 0..n-1")
        # a permutation of a ranked family's boxes keeps its ranks
        family = type(family)(range(n), family.take(order).columns)
    return normalize(family)


def _sweep(boxes: _Family, labels: Sequence[Hashable] | None) -> Iterator[tuple[int, list[int]]]:
    """The sweep of ``intersecting_pairs`` in batches ``(j, hits)``: the
    position of a box and the positions of boxes that meet it (and share
    its label, ``labels[i]`` for box i) and that it finds in one cell, in a
    fixed order. Each pair is in one batch, and a batch holds at most the
    members of one cell. ``boxes`` is a ``_Ranked`` family or a ``take``
    of one, so the endpoints on each axis are distinct ints."""
    if not boxes:
        return
    n = len(boxes)
    columns = boxes.columns
    d = len(columns) // 2
    lows, highs = columns[0::2], columns[1::2]
    # labels become dense integers 0..kinds-1 (verified colors already are),
    # and the cell key of cell c for label t is c * kinds + t, so every
    # label has cells of its own
    kinds, tags = 1, None
    if labels is not None:
        tags = list(labels)
        kinds = len(named := dict.fromkeys(tags))
        if named.keys() != set(range(kinds)) or {*map(type, named)} != {int}:
            tags = list(map(dict(zip(named, range(kinds))).__getitem__, tags))
    if d == 1:
        first = last = tags or [0] * n  # no axis 1: one cell per label
    else:
        # cells are one mean axis-1 side wide times the number of labels:
        # a label has n / kinds boxes on average, so its cells hold about
        # as many of them as unlabelled cells hold boxes
        width = (sum(highs[1]) - sum(lows[1])) * kinds // n
        first, last = (_cells(ends, width, kinds, tags) for ends in (lows[1], highs[1]))
    filters = list(zip(lows[1:], highs[1:]))  # axes 1..d-1
    # each cell lists, in axis-0 order, its members and its starters (the
    # boxes whose first cell it is); see ``intersecting_pairs``
    lo0, hi0 = lows[0], highs[0]
    members: defaultdict[int, list[int]] = defaultdict(list)
    starters: defaultdict[int, list[int]] = defaultdict(list)
    for j in sorted(range(n), key=lo0.__getitem__):
        c, end = first[j], last[j]
        starters[c].append(j)
        members[c].append(j)
        while c != end:
            c += kinds
            members[c].append(j)
    for c, starts in starters.items():
        cell = members[c]
        keys = list(map(lo0.__getitem__, cell))
        begins = list(map(lo0.__getitem__, starts)) if len(starts) < len(cell) else ()
        for p, j in enumerate(cell, 1):
            if first[j] == c:  # the later members that start before j ends
                hits = cell[p : bisect_left(keys, hi0[j], p)]
            else:  # the starters within j's axis-0 side
                hits = starts[bisect_left(begins, lo0[j]) : bisect_left(begins, hi0[j])]
            for lo, hi in filters:
                if not hits:
                    break
                bottom, top = lo[j], hi[j]
                hits = [i for i in hits if lo[i] < top and bottom < hi[i]]
            if hits:
                yield j, hits


def _cells(ends: Sequence[int], width: int, kinds: int, tags: list[int] | None) -> list[int]:
    """The cell key of each endpoint x: its cell ``x // width``, times
    ``kinds`` plus its box's label when there is more than one."""
    cells = map(operator.floordiv, ends, itertools.repeat(width))
    if kinds > 1:
        cells = map(operator.add, map(operator.mul, cells, itertools.repeat(kinds)), tags)
    return list(cells)


def normalize(boxes: Sequence[Box]) -> _Ranked:
    """Replace coordinates by per-axis integer ranks; exact and idempotent.

    On each axis the 2n endpoints are ranked 0..2n-1 by (value, box id,
    lo before hi): one stable sort of endpoint indices, laid out ``lo, hi``
    box by box in ascending id order. So all endpoints become distinct, the
    order of distinct values is kept, and a zero-width side is widened.
    Two touching sides, one box's hi equal to another's lo, meet exactly
    when the box with the smaller id is on the right, so whether they meet
    can depend on the order in which a file lists the boxes.

    The result lists the boxes in input order, each ranked axis's columns
    replaced by its ranks, so ``Fraction(3)``, ``3.0`` or ``True`` becomes
    an int; an axis whose coordinates are the ints 0..2n-1 keeps its
    columns. No ``Box`` is built. The result is a ``_Ranked`` family,
    which comes back as it is, in O(1).
    """
    if isinstance(boxes, _Ranked):
        return boxes
    if not boxes:
        raise ValueError("empty box collection")
    family = _as_family(boxes)
    ids, columns = family.ids, list(family.columns)
    size = 2 * len(ids)
    order: list[int] = []  # the boxes' positions in id order, when not ascending
    if not all(map(operator.lt, ids, ids[1:])):  # strictly ascending ids are distinct
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate box ids")
        order = sorted(range(len(ids)), key=ids.__getitem__)
    positions: list[int] = []  # one int object per rank, shared by every axis's sort and ranks
    for axis in range(len(columns) // 2):
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
        if not positions:
            positions = list(range(size))
            layout = [positions[e] for p in order for e in (2 * p, 2 * p + 1)] or positions
        vals: list[Number] = [0] * size
        vals[0::2], vals[1::2] = lo, hi
        ranks = [0] * size
        _exhaust(map(ranks.__setitem__, sorted(layout, key=vals.__getitem__), positions))
        columns[2 * axis], columns[2 * axis + 1] = tuple(ranks[0::2]), tuple(ranks[1::2])
        del vals, ranks
    return _Ranked(ids, tuple(columns))


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


def load_boxes(path: str) -> _Family:
    """Read a box file (header ``d n``, then n rows of 2d decimals).

    A JSON mirror is accepted: an object with a ``boxes`` key whose entries
    are per-axis ``[lo, hi]`` pairs. Ids are assigned by 0-based order.

    A text file is read in bulk. Each row's width is checked on its own,
    and the rows are dropped; then the whole text is split into tokens
    once and read in one pass, by ``int`` when the file is made of plain
    ASCII integers and by ``_parse_number`` otherwise. Each run of ``2d``
    consecutive numbers is one box's ``bounds``, and
    ``_from_values`` checks the sides and cuts the columns. The first
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
    return _from_values(values, width)


_JSON_TYPE_NAMES = {list: "array", dict: "object", bool: "boolean", type(None): "null"}


def _load_json(text: str, what: str, object_pairs_hook=None):
    """``json.loads``, its failures as one-line ValueErrors led by ``what``.
    A ValueError subclass that the hook raises passes through as it is."""
    try:
        return json.loads(text, object_pairs_hook=object_pairs_hook)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what}: {exc}") from None
    except ValueError as exc:
        if type(exc) is not ValueError:
            raise
        # an integer past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{what}: an integer has more than {limit} digits") from None
    except RecursionError:
        raise ValueError(f"{what}: nested too deeply") from None


def _boxes_from_json(text: str) -> _Family:
    payload = _load_json(text, "bad JSON box file")
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
    family = _as_family(boxes)
    ordered = family.take(sorted(range(len(family)), key=family.ids.__getitem__))
    # one row per box in id order, its bounds each written by str, all
    # filled in by one format
    width = len(ordered.columns)
    row = " ".join(["%s"] * width) + "\n"
    values = tuple(itertools.chain.from_iterable(zip(*ordered.columns)))
    return f"{width // 2} {len(boxes)}\n" + row * len(boxes) % values


def save_boxes(boxes: Sequence[Box], path: str) -> None:
    """Write the text box file format (ids follow row order)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(boxes_to_text(boxes))
