"""Benchmark workloads: instance generators, exact clique number, run specs.

Every generator takes the workload seed and returns normalized boxes with
ids 0..n-1, so a box file written from them loads back unchanged. The
clique number is computed here from the geometry, because the exact
graph oracle refuses instances above 40 boxes and an understated
``omega_bound`` breaks the pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from boxforest.generators import random_boxes
from boxforest.geometry import Box, boxes_from_rows, normalize

SPARSE_N = 1600
SPARSE_RANGE = 1_000_000
SPARSE_SIDE_CAP = SPARSE_RANGE // 20  # 5% of the range per axis

FANS_CLUSTERS = 40
FANS_LEAVES = (2, 3, 4)  # leaf grid inside each hub: 24 leaves
FANS_CELL = 1000  # clusters sit in disjoint cells of a coarse 3d grid
FANS_GRID = (4, 4, 3)  # 48 cells, 40 of them used


def sparse_rows(seed: int) -> list[list[int]]:
    """Raw rows of sparse-2d: uniform corners, sides at most 5% of the range."""
    rng = random.Random(seed)
    rows = []
    for _ in range(SPARSE_N):
        row: list[int] = []
        for _ in range(2):
            side = rng.randint(1, SPARSE_SIDE_CAP)
            lo = rng.randrange(0, SPARSE_RANGE - side + 1)
            row.extend((lo, lo + side))
        rows.append(row)
    return rows


def sparse_2d(seed: int) -> list[Box]:
    """1600 boxes, about 3k intersecting pairs, omega around 6 to 8."""
    return normalize(boxes_from_rows(sparse_rows(seed)))


def _fan_rows(rng: random.Random, corner: Sequence[int]) -> list[list[int]]:
    """One hub strictly containing 24 pairwise-disjoint leaves.

    The hub spans most of its grid cell; each leaf sits strictly inside
    its own sub-cell of the hub, with a random margin, so leaves never
    touch each other or the hub's boundary.
    """
    hub: list[int] = []
    for axis in range(3):
        lo = corner[axis] + rng.randint(10, 60)
        hi = corner[axis] + FANS_CELL - rng.randint(10, 60)
        hub.extend((lo, hi))
    rows = [hub]
    steps = [
        (hub[2 * a + 1] - hub[2 * a]) // FANS_LEAVES[a] for a in range(3)
    ]
    for i in range(FANS_LEAVES[0]):
        for j in range(FANS_LEAVES[1]):
            for l in range(FANS_LEAVES[2]):
                leaf: list[int] = []
                for axis, slot in enumerate((i, j, l)):
                    base = hub[2 * axis] + slot * steps[axis]
                    lo = base + rng.randint(2, steps[axis] // 4)
                    hi = base + steps[axis] - rng.randint(2, steps[axis] // 4)
                    leaf.extend((lo, hi))
                rows.append(leaf)
    return rows


def fans_3d(seed: int) -> list[Box]:
    """40 disjoint clusters, each a hub box around 24 disjoint leaf boxes.

    n = 1000, m = 960 (only hub-leaf pairs meet), omega = 2. Cells and row
    order are shuffled by the seed, so box ids differ between seeds.
    """
    rng = random.Random(seed)
    cells = [
        (x * FANS_CELL, y * FANS_CELL, z * FANS_CELL)
        for x in range(FANS_GRID[0])
        for y in range(FANS_GRID[1])
        for z in range(FANS_GRID[2])
    ]
    rows: list[list[int]] = []
    for corner in rng.sample(cells, FANS_CLUSTERS):
        rows.extend(_fan_rows(rng, corner))
    rng.shuffle(rows)
    return normalize(boxes_from_rows(rows))


def dense_2d(seed: int) -> list[Box]:
    """The library's random generator: about half of all pairs intersect."""
    return random_boxes(800, 2, seed)


def max_depth(boxes: Sequence[Box]) -> int:
    """Largest number of boxes sharing one point: the exact clique number.

    Boxes have the Helly property, so pairwise-intersecting boxes share a
    point and omega is the depth of the deepest point. On each axis a
    deepest point can be moved to the largest lower end among the boxes
    covering it, so a sweep recurses, at each box's lower end, into the
    covering boxes that also meet that box on the next axis. Closed
    intervals: at equal coordinates a lower end comes before an upper end.
    """
    if not boxes:
        raise ValueError("empty box collection")
    sides = [tuple((s.lo, s.hi) for s in b.sides) for b in boxes]
    return _depth(sides, 0)


def _depth(sides: list[tuple[tuple, ...]], axis: int) -> int:
    d = len(sides[0])
    events = sorted(
        [(s[axis][0], 0, i) for i, s in enumerate(sides)]
        + [(s[axis][1], 1, i) for i, s in enumerate(sides)]
    )
    active: dict[int, tuple] = {}
    best = 0
    for _, is_hi, i in events:
        if is_hi:
            del active[i]
            continue
        active[i] = sides[i]
        if len(active) <= best:
            continue
        if axis == d - 1:
            best = len(active)
            continue
        lo, hi = sides[i][axis + 1]
        near = [s for s in active.values() if s[axis + 1][0] <= hi and lo <= s[axis + 1][1]]
        if len(near) > best:
            best = max(best, _depth(near, axis + 1))
    return best


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], list[Box]]
    r: int
    k: int
    kind: str  # certificate kind every op must produce
    why: str


# each ``why`` matches the workload's entry in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-2d", dense_2d, 2, 2, "coloring",
            "random_boxes n=800 d=2, half of all pairs meet: decompose, peeling, "
            "product coloring and edge checks dominate; the side where a pair "
            "sweep must not lose",
        ),
        Workload(
            "sparse-2d", sparse_2d, 2, 2, "coloring",
            "1600 boxes, sides <= 5% of the range, ~3k edges: all-pairs scans of "
            "1.28M pairs in intersection_graph, decompose and verify dominate; "
            "a pair sweep gains most here",
        ),
        Workload(
            "fans-3d", fans_3d, 1, 2, "induced_tree",
            "40 disjoint hubs of 24 disjoint leaves in d=3: the only induced-tree "
            "outcome (grading, calm embedding, MIS oracle), 64 patterns with 62 "
            "empty; verify is almost only load",
        ),
    )
}
