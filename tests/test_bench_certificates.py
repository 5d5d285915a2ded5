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
import sys

import pytest

from boxforest import (
    certificate_to_json,
    color_or_find_forest,
    embedding,
    intersection_graph,
    oracles,
)
from boxforest.graphs import smallest_last_coloring

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))

import workloads  # noqa: E402

PINNED = {
    "dense-2d": "78eccc5779de19ac21e28b380de01d1ccbd65c8807d38fdc9842a5c2a756cbae",
    "sparse-2d": "3b10f0a5be8a3504dad2c5c289ca11867986994d7f31109ecd09c10ef6088c4b",
    "fans-3d": "88604f7aadccb0ac907f6ac539bc7048e9934006c5048a55d3d288c30d258b15",
}

# (sha256, palette) at r = k = 1; both palettes equal omega
DECOMPOSED = {
    "dense-2d": ("93645b906c5231873448f6c3f906d59de49d734837cd19771669cc63df9223c8", 216),
    "sparse-2d": ("3c72889242396352a13f60ff0c34bd387304fda110f069fae8efbdb16a53eff7", 7),
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
    """The bucket queue files a vertex only near the minimum degree, so on
    dense-2d most of the degree decrements push nothing."""
    g = intersection_graph(workloads.dense_2d(4))
    pushes = 0
    push = heapq.heappush

    def counted(heap, item):
        nonlocal pushes
        pushes += 1
        push(heap, item)

    monkeypatch.setattr(heapq, "heappush", counted)
    smallest_last_coloring(g.adj)
    edges = sum(map(len, g.adj)) // 2
    # about 37.5k of 136,891; one push per decrement would be all of them
    assert 0 < pushes < edges // 2
