"""The benchmark's certificates stay byte-identical.

Each workload's first instance at seed 1 (``make(4)``) is certified as the
benchmark certifies it, with omega from the geometry, and the certificate
bytes are pinned by their sha256. A change that alters certificate bytes
on purpose updates these values and says so.
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
    "fans-3d": "f161b7edfd391228846f09d080cb4a87fa9d5772a4089c65ae01dd9e1f5a848b",
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
