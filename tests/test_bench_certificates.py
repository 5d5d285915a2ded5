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
import os
import sys

import pytest

from boxforest import certificate_to_json, color_or_find_forest

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
