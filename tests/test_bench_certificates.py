"""The benchmark's certificates stay byte-identical.

Each workload's first instance at seed 1 (``make(4)``) is certified as the
benchmark certifies it, with omega from the geometry, and the certificate
bytes are pinned by their sha256. The two coloring workloads are pinned
again at r = k = 1, where the tree is small enough that certify decomposes
and searches the pattern digraphs before it colors; no benchmark workload
times that branch. A change that alters certificate bytes on purpose
updates these values and says so.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import random
import sys

import pytest

from boxforest import (
    Box,
    ProperColoring,
    boxes_from_rows,
    certificate_to_json,
    color_or_find_forest,
    embedding,
    intersection_graph,
    load_boxes,
    normalize,
    oracles,
    parse_certificate,
    pipeline,
    random_boxes,
    save_boxes,
    verify_certificate,
)
from boxforest.graphs import smallest_last_coloring

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

import workloads  # noqa: E402

PINNED = {
    "dense-2d": "133e73210d275f15fea73c296852a2a966300b4ca364409cbb05b5dd93b3b548",
    "sparse-2d": "e51dd9aef62299a7f288f8c8068dc9bb72fa29f2a352a54d787373547711968b",
    "fans-3d": "7d3385b32f1b329b0b726ff49a274e4981d8d511e61bc7e330864dde1844ef5c",
}

# (sha256, palette) at r = k = 1; both palettes equal omega
DECOMPOSED = {
    "dense-2d": ("143175f288c515aedd7ad49802e3834e132acd4751c88037ae41568cf7f14b94", 216),
    "sparse-2d": ("017579a9cc55d2221cb3055a01c3e1b52c4d440d1b9b53cbe3a8ed03522bedf9", 7),
}


@pytest.mark.parametrize("name", PINNED)
def test_bench_certificate_bytes_are_pinned(name):
    workload = workloads.WORKLOADS[name]
    boxes = workload.make(4)
    cert = color_or_find_forest(
        boxes, workload.r, workload.k, omega_bound=workloads.max_depth(boxes)
    )
    data = certificate_to_json(cert).encode()
    assert hashlib.sha256(data).hexdigest() == PINNED[name]


@pytest.mark.parametrize("name", DECOMPOSED)
def test_decomposed_certificate_bytes_are_pinned(name):
    boxes = workloads.WORKLOADS[name].make(4)
    w = workloads.max_depth(boxes)
    cert = color_or_find_forest(boxes, 1, 1, omega_bound=w)
    digest, palette = DECOMPOSED[name]
    assert cert.coloring.palette_size == palette == w
    data = certificate_to_json(cert).encode()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("name", PINNED)
def test_no_library_path_reads_box_sides(tmp_path, monkeypatch, name):
    # the library reads endpoints from ``Box.bounds``; ``sides`` and
    # ``side`` build their intervals anew on each read, for callers only.
    # fans-3d ends in a tree and prunes its children, the others color
    workload = workloads.WORKLOADS[name]
    w = workloads.max_depth(workload.make(4))  # it reads sides itself
    reads, pruned = [], []
    sides, side, prune = Box.sides, Box.side, pipeline.prune_children
    monkeypatch.setattr(Box, "sides", property(lambda b: reads.append("sides") or sides.fget(b)))
    monkeypatch.setattr(Box, "side", lambda b, axis: reads.append("side") or side(b, axis))
    monkeypatch.setattr(pipeline, "prune_children", lambda *a: pruned.append(a) or prune(*a))
    path = tmp_path / "boxes.txt"
    save_boxes(workload.make(4), path)
    cert = color_or_find_forest(
        normalize(load_boxes(path)), workload.r, workload.k, omega_bound=w
    )
    payload = parse_certificate(certificate_to_json(cert))
    assert verify_certificate(normalize(load_boxes(path)), payload)[0]
    assert reads == []
    assert len(pruned) == (name == "fans-3d")
    # the counters do see a read
    assert load_boxes(path)[0].side(0) and reads == ["side", "sides"]


@pytest.mark.parametrize("name", ["fans-3d", "sparse-2d", "dense-2d"])
def test_certificate_bytes_do_not_depend_on_listing_order(name):
    # fans-3d ends in a tree, sparse-2d in a coloring on the host graph's
    # lists and dense-2d in one on bit rows, which must be indexed by box
    # id; the same boxes listed in another order give the same certificate
    workload = workloads.WORKLOADS[name]
    for seed in (1, 2):
        boxes = workload.make(seed)
        shuffled = boxes[:]
        random.Random(seed).shuffle(shuffled)
        w = workloads.max_depth(boxes)
        certs = [
            certificate_to_json(color_or_find_forest(b, workload.r, workload.k, omega_bound=w))
            for b in (boxes, shuffled)
        ]
        assert certs[0] == certs[1]


def test_tree_search_builds_nothing_for_the_whole_digraph(monkeypatch):
    """fans-3d finds its tree with no whole-graph bit masks and no clique
    search: a tournament query is a longest-chain pass over its universe,
    and the path-induced check reads arc sets."""

    def refuse(*args):
        raise AssertionError("bit masks or a clique search on the tree branch")

    monkeypatch.setattr(oracles, "_adjacency_masks", refuse)
    monkeypatch.setattr(oracles, "_max_clique_bitset", refuse)
    monkeypatch.setattr(embedding, "_max_clique_bitset", refuse, raising=False)
    workload = workloads.WORKLOADS["fans-3d"]
    boxes = workload.make(4)
    w = workloads.max_depth(boxes)
    cert = color_or_find_forest(boxes, 1, 2, omega_bound=w)
    data = certificate_to_json(cert).encode()
    assert hashlib.sha256(data).hexdigest() == PINNED["fans-3d"]


def test_smallest_last_pushes_far_fewer_entries_than_edges(monkeypatch):
    """The bucket queue files a vertex only near the minimum degree, so most
    of the degree decrements push nothing: on dense-2d, and on a 6-d family
    sparse enough that certify colors it on the host graph's lists."""
    pushes = 0
    push = heapq.heappush

    def counted(heap, item):
        nonlocal pushes
        pushes += 1
        push(heap, item)

    monkeypatch.setattr(heapq, "heappush", counted)
    # dense-2d: about 37.5k of 136,891; random 6-d: about 11.3k of 63,173.
    # One push per decrement would be all of them
    for boxes, dense in ((workloads.dense_2d(4), True), (random_boxes(1200, 6, seed=1), False)):
        g = intersection_graph(boxes)
        two_m = sum(map(len, g.adj))
        assert pipeline._dense(two_m, g.n) == dense
        pushes = 0
        smallest_last_coloring(g.adj)
        assert 0 < pushes < two_m // 4


@pytest.fixture
def stages(monkeypatch):
    """Records, in order, each host graph ("graph") and each set of bit rows
    ("rows") certify builds, and each list-based self-check ("proper")."""
    calls = []

    def counted(label, original):
        def wrapper(*args):
            calls.append(label)
            return original(*args)

        return wrapper

    monkeypatch.setattr(pipeline, "intersection_rows", counted("rows", pipeline.intersection_rows))
    monkeypatch.setattr(
        pipeline, "intersection_graph", counted("graph", pipeline.intersection_graph)
    )
    monkeypatch.setattr(
        pipeline.Coloring, "is_proper_on", counted("proper", pipeline.Coloring.is_proper_on)
    )
    return calls


@pytest.mark.parametrize("name, built", [("dense-2d", 1), ("sparse-2d", 0), ("fans-3d", 0)])
def test_only_the_dense_host_graph_is_colored_on_bit_rows(stages, name, built):
    # dense-2d has |T| > n - 1 and 2m / n^2 about 0.43, so it is colored on
    # rows from the boxes, with no host graph and no check on its lists;
    # sparse-2d (0.003) and fans-3d (0.002) have |T| <= n - 1, build one
    # host graph and never build rows
    workload = workloads.WORKLOADS[name]
    boxes = workload.make(4)
    cert = color_or_find_forest(
        boxes, workload.r, workload.k, omega_bound=workloads.max_depth(boxes)
    )
    on_lists = ["graph"] + (["proper"] if isinstance(cert, ProperColoring) else [])
    assert stages == (["rows"] if built else on_lists)
    data = certificate_to_json(cert).encode()
    assert hashlib.sha256(data).hexdigest() == PINNED[name]


def bars(half: int) -> list:
    """A star in a family where every axis is dense: ``half`` bars long on
    axis 0 stacked on axis 1, ``half`` bars long on axis 1 side by side
    on axis 0 and apart from the first stack, and one more long bar on
    axis 1 that crosses every bar of the first stack. Each stack meets
    itself on its long axis, so each axis has about n^2 / 8 pairs that
    meet, while the graph has ``half`` edges."""
    wide = 3 * half
    rows = [[0, wide, 3 * i, 3 * i + 1] for i in range(half)]
    rows += [[wide + 1 + 3 * j, wide + 2 + 3 * j, 0, wide] for j in range(half)]
    rows.append([1, 2, 0, wide])
    return normalize(boxes_from_rows(rows))


def assert_colored_on_the_lists(boxes, r, k, w):
    cert = color_or_find_forest(boxes, r, k, omega_bound=w)
    expected = ProperColoring(smallest_last_coloring(intersection_graph(boxes).adj), r, k)
    assert certificate_to_json(cert) == certificate_to_json(expected)


def test_a_sparse_axis_builds_no_rows(stages):
    # at r = 3 the tree (1 + 28 + 28^2 + 28^3 vertices) has more than
    # n - 1 = 1599, but axis 0 alone shows 2m / n^2 at most about 0.05
    boxes = workloads.sparse_2d(4)
    assert_colored_on_the_lists(boxes, 3, 2, workloads.max_depth(boxes))
    assert stages == ["graph", "proper"]


def test_dense_axes_over_a_sparse_graph_fall_back_to_the_lists(stages):
    boxes = bars(30)
    assert_colored_on_the_lists(boxes, 2, 2, 2)
    # the rows are built, counted sparse and dropped
    assert stages == ["rows", "graph", "proper"]


def test_above_the_cap_no_rows_are_built_up_front(stages, monkeypatch):
    boxes = random_boxes(40, 2, 1)
    w = workloads.max_depth(boxes)
    monkeypatch.setattr(pipeline, "_ROWS_CAP", len(boxes))
    assert_colored_on_the_lists(boxes, 2, 2, w)
    assert stages == ["rows"]
    stages.clear()
    monkeypatch.setattr(pipeline, "_ROWS_CAP", len(boxes) - 1)
    assert_colored_on_the_lists(boxes, 2, 2, w)
    # the host graph is dense, so its exit colors it on rows, after the lists
    assert stages == ["graph", "rows", "proper"]


def test_the_real_cap_holds_back_rows_on_dense_axes(stages):
    boxes = bars(pipeline._ROWS_CAP // 2)
    assert len(boxes) == pipeline._ROWS_CAP + 1
    # 1 + 8 + ... + 8^5 tree vertices, more than n - 1
    assert_colored_on_the_lists(boxes, 5, 2, 2)
    assert stages == ["graph", "proper"]
