"""The verdict on a certificate, worked out without the package.

``verdict(box_path, cert_path)`` returns the exit code that ``boxforest
verify`` documents for the certificate:

- 2, an input error: malformed JSON, a repeated key, a wrong kind or key
  set, r, k or the palette not an integer, r < 0 or k < 1, entries that
  are not an array of integers or not one per box (one per tree vertex),
  a tree with more vertices than there are boxes, a box id out of range;
- 5, a refutation: a color outside the palette, a palette that is not
  one more than the largest color, a palette over the bound, two meeting
  boxes of one color, a tree map that is not injective, or a tree pair
  whose boxes meet where the tree has no edge or miss where it has one;
- 0 otherwise.

The box file is read as text rows of integers, with distinct endpoints on
each axis, so closed sides meet as their ranks do; every pair of boxes is
scanned by the references in ``bruteforce``. The bound is
(2 r |T| w)^(4^d), |T| the vertex count of the complete (k^d w)-ary tree
of depth r, with w = 1 in d >= 2 and the exact interval depth in d = 1.
Only its comparison with the palette is read, and it grows with |T|, so
|T| is counted only until it passes the palette: any r and k are decided.
"""

from __future__ import annotations

import json

from bruteforce import brute_first_clash, brute_interval_depth, brute_patterns

INPUT, REFUTED = 2, 5


def read_sides(path) -> list[tuple]:
    """Each box's per-axis (lo, hi) pairs, in file order, from a text box
    file whose first row is ``d n``."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.split() for line in fh if line.strip()]
    d = int(rows[0][0])
    sides = [tuple((int(row[2 * a]), int(row[2 * a + 1])) for a in range(d)) for row in rows[1:]]
    for a in range(d):
        ends = [end for box in sides for end in box[a]]
        assert len(set(ends)) == len(ends), "endpoints repeat on an axis"
    return sides


def tree_size_past(r: int, branching: int, cap: int) -> int:
    """The vertex count of the complete ``branching``-ary tree of depth r,
    or some number above ``cap`` when the count is."""
    if branching == 1:
        return r + 1
    size, level = 0, 1
    for _ in range(r + 1):
        size += level
        if size > cap:
            break
        level *= branching
    return size


def _unique_keys(pairs: list[tuple]) -> dict:
    if len({key for key, _ in pairs}) != len(pairs):
        raise ValueError("repeated key")
    return dict(pairs)


def verdict(box_path, cert_path) -> int:
    sides = read_sides(box_path)
    n, d = len(sides), len(sides[0])
    try:
        with open(cert_path, encoding="utf-8") as fh:
            cert = json.loads(fh.read(), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError):  # an integer of too many digits too
        return INPUT
    if type(cert) is not dict or cert.get("kind") not in ("coloring", "induced_tree"):
        return INPUT
    entries = "colors" if cert["kind"] == "coloring" else "map"
    numbers = ["r", "k"] + (["palette"] if entries == "colors" else [])
    if set(cert) != {"kind", entries, *numbers}:
        return INPUT
    if any(type(cert[key]) is not int for key in numbers):
        return INPUT
    r, k, array = cert["r"], cert["k"], cert[entries]
    if r < 0 or k < 1 or type(array) is not list:
        return INPUT
    if any(type(e) is not int for e in array):
        return INPUT

    if entries == "colors":
        palette = cert["palette"]
        if len(array) != n:
            return INPUT
        if any(not 0 <= c < palette for c in array) or palette != max(array) + 1:
            return REFUTED
        w = 1 if d >= 2 else brute_interval_depth([box[0] for box in sides])
        base = 2 * r * tree_size_past(r, k**d * w, palette) * w
        if base <= palette and palette > base ** (4**d):  # r = 0 gives 0
            return REFUTED
        return REFUTED if brute_first_clash(sides, array) else 0

    size = tree_size_past(r, k, n)
    if size > n or len(array) != size or any(not 0 <= b < n for b in array):
        return INPUT
    if len(set(array)) != size:
        return REFUTED
    tree_edges = {((v - 1) // k, v) for v in range(1, size)}
    met = set(brute_patterns([sides[b] for b in array]))
    return 0 if met == tree_edges else REFUTED
