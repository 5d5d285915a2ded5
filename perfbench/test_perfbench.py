"""Checks for the benchmark's own code: generators, clique number, tracer.

Run from the repository root with ``python3 -m pytest perfbench``; the
repository's own test run (``testpaths = tests``) does not collect them.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

from boxforest import pipeline  # noqa: E402
from boxforest.generators import random_boxes  # noqa: E402
from boxforest.geometry import Box, normalize  # noqa: E402
from boxforest.graphs import intersection_graph  # noqa: E402
from boxforest.oracles import omega  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, max_depth  # noqa: E402


def test_sparse_sides_stay_within_five_percent_of_the_range():
    for seed in (0, 1, 2):
        rows = workloads.sparse_rows(seed)
        assert len(rows) == workloads.SPARSE_N
        for row in rows:
            for lo, hi in (row[0:2], row[2:4]):
                assert 0 <= lo < hi <= workloads.SPARSE_RANGE
                assert hi - lo <= workloads.SPARSE_RANGE // 20


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_seeded_and_normalized(name):
    make = WORKLOADS[name].make
    boxes = make(3)
    assert boxes == make(3)
    assert boxes != make(4)
    assert [b.id for b in boxes] == list(range(len(boxes)))
    assert normalize(boxes) == boxes  # a written box file loads back unchanged


def test_fans_have_disjoint_clusters_disjoint_leaves_and_omega_two():
    boxes = workloads.fans_3d(5)
    g = intersection_graph(boxes)
    assert len(boxes) == 1000
    assert len(g.edges) == 960
    hubs = {v for v in range(g.n) if g.degree(v) == 24}
    assert len(hubs) == 40
    # hubs never meet, so clusters are disjoint
    assert not any(g.adjacent(a, b) for a, b in itertools.combinations(sorted(hubs), 2))
    for v in set(range(g.n)) - hubs:
        # a leaf meets its own hub and nothing else: leaves are disjoint
        (hub,) = g.neighbors(v)
        assert hub in hubs
        assert all(
            h.lo < s.lo and s.hi < h.hi
            for h, s in zip(boxes[hub].sides, boxes[v].sides)
        )
    assert max_depth(boxes) == 2


def _relabeled(sample):
    return [Box(i, b.sides) for i, b in enumerate(sample)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_depth_matches_exact_oracle_on_workload_samples(name):
    boxes = WORKLOADS[name].make(7)
    rng = random.Random(name)
    samples = [rng.sample(boxes, 40) for _ in range(3)]
    g = intersection_graph(boxes)
    for _ in range(3):
        # a box with its neighbours keeps cliques inside the sample
        centre = rng.randrange(len(boxes))
        ids = sorted(g.neighbors(centre) | {centre})
        samples.append([boxes[i] for i in rng.sample(ids, min(40, len(ids)))])
    for sample in samples:
        sample = _relabeled(sample)
        assert max_depth(sample) == omega(intersection_graph(sample))


def test_depth_matches_exact_oracle_on_small_instances():
    for seed in range(200):
        rng = random.Random(seed)
        boxes = random_boxes(rng.randint(1, 14), rng.randint(1, 3), seed)
        assert max_depth(boxes) == omega(intersection_graph(boxes))


def _wrapped_names():
    return [(owner, attr) for owner, attr, *_ in spans.SPANNED + spans.COUNTED]


def test_traced_run_matches_untraced_and_restores_every_name():
    originals = [owner.__dict__[attr] for owner, attr in _wrapped_names()]
    boxes = random_boxes(40, 2, 1)
    w = max_depth(boxes)
    expected = pipeline.certificate_to_json(
        pipeline.color_or_find_forest(boxes, 2, 2, omega_bound=w)
    )
    tracer = spans.Tracer()
    tracer.op = 1
    tracer.install()
    try:
        with tracer.span("op"):
            cert = pipeline.color_or_find_forest(boxes, 2, 2, omega_bound=w)
            text = pipeline.certificate_to_json(cert)
    finally:
        tracer.restore()
    assert text == expected
    assert [o.__dict__[a] for o, a in _wrapped_names()] == originals

    for s in tracer.spans:
        assert s.op == 1
        if s.parent is not None:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    metrics = tracer.op_metrics(1)
    assert all(v >= -1e-9 for k, v in metrics.items() if k.endswith(".self_s"))
    (top,) = [i for i, s in enumerate(tracer.spans) if s.name == "pipeline.color_or_find_forest"]
    span = tracer.spans[top]
    children = sum(s.end - s.start for s in tracer.spans if s.parent == top)
    assert children > 0
    assert metrics["pipeline.color_or_find_forest.self_s"] == pytest.approx(
        span.end - span.start - children
    )
    m = metrics["graphs.edges"]
    assert metrics["graphs.intersection_graph.calls"] == 1
    assert metrics["graphs.edge_yield"] == m / (40 * 39 // 2)
    assert metrics["patterns.arcs"] == 2 * m
    assert metrics["geometry.pair_tests"] >= 2 * (40 * 39 // 2)
    assert tracer.calls(1, "oracles.omega") == 0
    assert tracer.calls(1, "pipeline.color_or_find_forest") == 1
    assert metrics["pipeline.max_pattern_palette"] >= 1


def test_a_call_to_the_clique_oracle_fails_the_op():
    boxes = random_boxes(20, 2, 1)
    tracer = spans.Tracer()
    tracer.op = 1
    tracer.install()
    try:
        with tracer.span("op"):
            cert = pipeline.color_or_find_forest(boxes, 2, 2)  # no omega_bound
    finally:
        tracer.restore()
    data = pipeline.certificate_to_json(cert).encode()
    payload = pipeline.parse_certificate(data.decode())
    ok, message = pipeline.verify_certificate(boxes, payload)
    op = run.Op(0.0, 0.0, data, payload["kind"], payload.get("palette"), ok, message)
    workload = WORKLOADS["dense-2d"]
    assert run.problem_with(op, workload, data) is None
    calls = tracer.calls(1, "oracles.omega")
    assert calls >= 1
    assert "oracles.omega" in run.problem_with(op, workload, data, calls)


def test_one_more_op_on_one_instance_keeps_the_instance_mix():
    def ops(*seconds):
        return [run.Op(t, 0.0, b"", "coloring", 1, True, "") for t in seconds]

    # instances 0 and 1 are fast, 2 and 3 slow; 0 and 1 already got a second op
    groups = {0: ops(1.0, 1.0), 1: ops(1.1, 1.1), 2: ops(3.0), 3: ops(3.2)}
    certify = lambda op: op.certify_s  # noqa: E731
    before = run.per_instance_median(groups, certify)
    groups[2] += ops(3.0)
    assert run.per_instance_median(groups, certify) == before == (1.1 + 3.0) / 2


def test_restore_after_a_raising_call():
    originals = [owner.__dict__[attr] for owner, attr in _wrapped_names()]
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(ValueError):
            with tracer.span("op"):
                pipeline.color_or_find_forest(random_boxes(5, 2, 0), -1, 2)
    finally:
        tracer.restore()
    assert [o.__dict__[a] for o, a in _wrapped_names()] == originals
    assert all(s.end >= s.start for s in tracer.spans)


def test_benchmark_spec_names_every_layer_metric_and_workload():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    traced = set(spans.Tracer().op_metrics(0)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == traced
