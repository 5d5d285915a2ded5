"""Instance generators: random, nested, grid-disjoint, and a probed recursion.

All generators return normalized boxes with ids 0..n-1. The probed
recursion (``burling_like``) builds a triangle-free 3d family whose boxes
are threaded through an explicit list of probe regions; its invariants
(each probe meets exactly its recorded roots, root sets are independent,
probe slabs are pairwise disjoint in x) are what tests exercise, and they
are what forces the clique number to stay at 2 while the family grows.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .geometry import Box, boxes_from_rows, normalize

__all__ = [
    "burling_like",
    "burling_size",
    "grid_disjoint_boxes",
    "nested_chain_boxes",
    "random_boxes",
]


def random_boxes(n: int, d: int, seed: int = 0) -> list[Box]:
    """Uniform random boxes on a coarse integer lattice, then normalized."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        row: list[int] = []
        for _ in range(d):
            a = rng.randrange(0, 4 * n + 1)
            b = rng.randrange(0, 4 * n + 1)
            row.extend((min(a, b), max(a, b)))
        rows.append(row)
    return normalize(boxes_from_rows(rows))


def nested_chain_boxes(n: int, d: int) -> list[Box]:
    """Box i strictly contains box i+1 on every axis; the graph is complete."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    rows = [[i, 2 * n - 1 - i] * d for i in range(n)]
    return normalize(boxes_from_rows(rows))


def grid_disjoint_boxes(n: int, d: int) -> list[Box]:
    """Pairwise disjoint unit cells on a grid; the graph is edgeless."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    side = max(1, math.ceil(n ** (1 / d)))
    while side**d < n:
        side += 1
    rows = []
    for i in range(n):
        row: list[int] = []
        cell = i
        for _ in range(d):
            digit = cell % side
            cell //= side
            row.extend((3 * digit, 3 * digit + 1))
        rows.append(row)
    return normalize(boxes_from_rows(rows))


@dataclass(frozen=True)
class _Probe:
    """Open-ended viewport: the region x-range x [y0, 1] x z-range.

    ``roots`` are exactly the boxes meeting the region. They are pairwise
    disjoint, their x- and z-ranges strictly contain the probe's, and their
    y-ranges all start strictly above y0, leaving an empty slab at the
    bottom of the region where the next level builds.
    """

    x0: Fraction
    x1: Fraction
    y0: Fraction
    z0: Fraction
    z1: Fraction
    roots: tuple[int, ...]


_Row = tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]


def _base_family() -> tuple[list[_Row], list[_Probe]]:
    f = Fraction
    boxes = [(f(1, 4), f(3, 4), f(1, 2), f(3, 4), f(1, 4), f(3, 4))]
    probes = [_Probe(f(3, 8), f(5, 8), f(3, 8), f(3, 8), f(5, 8), (0,))]
    return boxes, probes


def _grow(boxes: list[_Row], probes: list[_Probe]) -> tuple[list[_Row], list[_Probe]]:
    """One level: into each probe's empty slab, insert a scaled copy of the
    whole current family plus one apex box per copied probe, and replace the
    probe with two narrower ones (one rooted through the copy, one through
    the apex)."""
    template_boxes = list(boxes)
    template_probes = list(probes)
    out_boxes = list(boxes)
    out_probes: list[_Probe] = []
    for p in template_probes:
        c0p = min(out_boxes[i][2] for i in p.roots)
        wx = p.x1 - p.x0
        h = c0p - p.y0
        zeta = p.z1 - p.z0
        # affine copy frame: middle third in x, lower half of the empty
        # slab in y, left part of the probe's z-range
        ax, bx = p.x0 + wx / 3, wx / 3
        ay, by = p.y0 + h / 8, 3 * h / 8
        az, bz = p.z0 + zeta / 8, 3 * zeta / 8
        offset = len(out_boxes)
        for (x0, x1, y0, y1, z0, z1) in template_boxes:
            out_boxes.append(
                (ax + bx * x0, ax + bx * x1, ay + by * y0, ay + by * y1,
                 az + bz * z0, az + bz * z1)
            )
        w_ytop = ay + by
        w_zhi = az + bz
        v_top = (w_ytop + c0p) / 2
        margin = (p.z1 - w_zhi) / 8
        for q in template_probes:
            xq0, xq1 = ax + bx * q.x0, ax + bx * q.x1
            yq0 = ay + by * q.y0
            zq0, zq1 = az + bz * q.z0, az + bz * q.z1
            sq = tuple(offset + i for i in q.roots)
            c0q = min(out_boxes[i][2] for i in sq)
            apex_bottom = (yq0 + c0q) / 2
            apex_z0 = zq0 + 3 * (zq1 - zq0) / 4
            wq = xq1 - xq0
            # the apex takes only the middle half of the probe's x-slab so
            # the first successor probe can dodge it inside the left margin
            apex_id = len(out_boxes)
            out_boxes.append(
                (xq0 + wq / 4, xq1 - wq / 4, apex_bottom, v_top,
                 apex_z0, p.z1 - margin)
            )
            dz = apex_z0 - zq0
            out_probes.append(
                _Probe(
                    xq0 + wq / 16,
                    xq0 + 3 * wq / 16,
                    (apex_bottom + c0q) / 2,
                    zq0 + dz / 4,
                    zq0 + 3 * dz / 4,
                    tuple(sorted(set(p.roots) | set(sq))),
                )
            )
            out_probes.append(
                _Probe(
                    xq0 + 3 * wq / 8,
                    xq1 - 3 * wq / 8,
                    (p.y0 + ay) / 2,
                    w_zhi + 2 * margin,
                    p.z1 - 2 * margin,
                    tuple(sorted(set(p.roots) | {apex_id})),
                )
            )
    return out_boxes, out_probes


def _burling_sizes() -> Iterator[int]:
    """Box counts of the probed recursion at levels 1, 2, 3, ...: 1, 3, 13, ..."""
    n, p = 1, 1
    while True:
        yield n
        n, p = n + p * (n + p), 2 * p * p


def burling_size(level: int) -> int:
    """Box count of the probed recursion at the given level (1, 3, 13, ...)."""
    if level < 1:
        raise ValueError("level must be >= 1")
    return next(itertools.islice(_burling_sizes(), level - 1, None))


def _burling_raw(level: int) -> tuple[list[_Row], list[_Probe]]:
    boxes, probes = _base_family()
    for _ in range(level - 1):
        boxes, probes = _grow(boxes, probes)
    return boxes, probes


def burling_like(level: int, limit: int = 2000) -> list[Box]:
    """Triangle-free 3d family from the probed recursion, normalized.

    Refuses levels whose predicted size exceeds ``limit`` before building
    anything, so callers cannot stumble into the doubly-exponential blowup.
    The sizes are counted level by level only until one passes ``limit``.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if any(size > limit for size in itertools.islice(_burling_sizes(), level)):
        raise ValueError(f"level {level} would produce more than {limit} boxes")
    raw, _ = _burling_raw(level)
    rows = [list(row) for row in raw]
    return normalize(boxes_from_rows(rows))


def _probe_hits(boxes: Sequence[_Row], probe: _Probe) -> tuple[int, ...]:
    """Ids of raw boxes meeting the probe's region, by strict overlap."""
    hits = []
    for i, (x0, x1, y0, y1, z0, z1) in enumerate(boxes):
        if x1 <= probe.x0 or x0 >= probe.x1:
            continue
        if y1 <= probe.y0 or y0 >= 1:
            continue
        if z1 <= probe.z0 or z0 >= probe.z1:
            continue
        hits.append(i)
    return tuple(hits)
