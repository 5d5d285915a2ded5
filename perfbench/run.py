"""boxforest benchmark: time `color` and `verify` end to end on one workload.

Run from the repository root, one fresh process per workload:

    python3 perfbench/run.py --workload dense-2d --seed 1 --seconds 40 --trace 0

Set-up generates four instances of the workload from the seed, computes
each one's exact clique number from the geometry and writes the box files.
``setup_s`` is the median of three such set-ups, each with a fresh import
of boxforest. One op then runs the same
public calls as ``boxforest color`` (load_boxes, normalize,
color_or_find_forest, certificate_to_json) and ``boxforest verify``
(load_boxes, normalize, parse_certificate, verify_certificate) on one
instance, in one thread. Ops cycle through the instances while another op
is likely to end within ``--seconds``; every metric is a median over
instances of per-instance medians, so the instance mix behind it does not
depend on how many ops fit. Every certificate must verify,
have the workload's kind and match the bytes of the instance's first
certificate; a traced op must not call the exact clique oracle, since
omega_bound is passed. An op that raises is counted as failed and the
run goes on.

Time metrics are calibrated against host drift: each half of an op is
bracketed by a fixed stdlib loop (``calibrate``), and its wall time is
rescaled to a host on which that loop takes CALIBRATION_S. The raw wall medians are
printed too.

With ``--trace 0`` the metrics are the end-to-end ones, tracing off. With
``--trace 1`` each instance in turn gets an untraced and then a traced
op: the traced ops give the per-layer metrics (medians as above)
and the gap between the two kinds of op gives the tracing overhead, both
in raw wall seconds. Spans go to
``perfbench/out/spans-<workload>-seed<seed>.json`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from statistics import median
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 3
# instances per run, derived from the seed; several of them average out
# how much omega (and so palette / omega) varies between instances
INSTANCES = 4
# nominal wall time of calibrate() on a quiet host; see calibrate()
CALIBRATION_S = 0.035


@dataclass
class Instance:
    path: str
    omega: int
    n: int
    d: int


@dataclass
class Op:
    certify_s: float
    verify_s: float
    data: bytes
    kind: str
    palette: int | None
    ok: bool
    message: str
    # CALIBRATION_S / calibrate() time, around each half of the op
    certify_scale: float = 1.0
    verify_scale: float = 1.0


def calibrate() -> float:
    """Wall time of a fixed stdlib workload that does not use boxforest.

    The host's speed drifts by up to 2x over minutes (contention from other
    machines, not stolen time: CPU time drifts with wall time), and that
    drift dominates run-to-run spread. Dict and frozenset churn like the
    library's own slows down with it, so time metrics are divided by this
    loop's time around the same half of an op and reported at
    CALIBRATION_S. The
    table stays near 2 MB, far below any workload's peak memory, so the
    loop never sets peak_rss_mb.
    """
    t0 = time.perf_counter()
    for _ in range(10):
        table = {}
        for i in range(6_000):
            table[(i, i ^ 7)] = frozenset((i, i + 1))
        total = 0
        for key, value in table.items():
            total += len(value) + key[1]
    return time.perf_counter() - t0


def git_commit(root: str) -> str:
    """HEAD's commit; "unknown" when ``root`` is not a git checkout.

    Git may not look above ``root`` or read config from outside it.
    """
    env = dict(
        os.environ,
        GIT_CEILING_DIRECTORIES=os.path.dirname(root),
        GIT_CONFIG_NOSYSTEM="1",
        GIT_CONFIG_GLOBAL=os.devnull,
    )
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def set_up(name: str, seed: int, work: str) -> tuple[object, list[Instance], float]:
    """Import, generate, measure and write the run's instances.

    Returns the workload, its instances and the median calibrated time of
    SETUP_REPEATS set-ups. Each set-up imports boxforest and the workloads
    module afresh, so the last import is the one every later caller binds
    to; import ``spans`` only after this.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        for module in [m for m in sys.modules if m.split(".")[0] in ("boxforest", "workloads")]:
            del sys.modules[module]
        before = calibrate()
        t0 = time.perf_counter()
        workloads = importlib.import_module("workloads")
        geometry = importlib.import_module("boxforest.geometry")
        workload = workloads.WORKLOADS[name]
        instances = []
        for i in range(INSTANCES):
            boxes = workload.make(seed * INSTANCES + i)
            path = os.path.join(work, f"instance{i}.boxes")
            geometry.save_boxes(boxes, path)
            instances.append(
                Instance(path, workloads.max_depth(boxes), len(boxes), boxes[0].dim)
            )
        elapsed = time.perf_counter() - t0
        times.append(elapsed * CALIBRATION_S / ((before + calibrate()) / 2))
    return workload, instances, median(times)


def run_op(workload, instance: Instance) -> Op:
    """One color-then-verify op, each half bracketed by ``calibrate``.
    Library names are looked up at call time, so a tracer's wrappers see
    them."""
    from boxforest import geometry, pipeline

    before = calibrate()
    t0 = time.perf_counter()
    boxes = geometry.normalize(geometry.load_boxes(instance.path))
    cert = pipeline.color_or_find_forest(
        boxes, workload.r, workload.k, omega_bound=instance.omega
    )
    data = pipeline.certificate_to_json(cert).encode()
    t1 = time.perf_counter()
    middle = calibrate()
    t2 = time.perf_counter()
    boxes = geometry.normalize(geometry.load_boxes(instance.path))
    payload = pipeline.parse_certificate(data.decode())
    ok, message = pipeline.verify_certificate(boxes, payload)
    t3 = time.perf_counter()
    after = calibrate()
    op = Op(t1 - t0, t3 - t2, data, payload["kind"], payload.get("palette"), ok, message)
    op.certify_scale = 2 * CALIBRATION_S / (before + middle)
    op.verify_scale = 2 * CALIBRATION_S / (middle + after)
    return op


def problem_with(op: Op, workload, expected: bytes, omega_calls: int = 0) -> str | None:
    if not op.ok:
        return f"certificate rejected: {op.message}"
    if op.kind != workload.kind:
        return f"{op.kind} certificate, expected {workload.kind}"
    if op.data != expected:
        return "certificate bytes differ from the instance's first certificate"
    if omega_calls:
        return f"oracles.omega called {omega_calls} times although omega_bound was passed"
    return None


@dataclass
class Tally:
    """Completed ops, grouped by instance index."""

    attempted: int = 0
    failed: int = 0
    ops: dict[int, list[Op]] = field(default_factory=dict)
    traced_ops: dict[int, list[Op]] = field(default_factory=dict)
    layer_metrics: dict[int, list[dict[str, float]]] = field(default_factory=dict)
    palette_ratios: dict[int, float] = field(default_factory=dict)


def per_instance_median(groups: dict[int, list[Op]], value: Callable[[Op], float]) -> float:
    """Median over instances of the median of ``value`` over each one's ops.

    How many ops an instance gets depends on the host's speed; taking one
    value per instance keeps a faster commit, which fits another op, from
    moving the metric by changing the mix of instances behind it.
    """
    return median(median(value(op) for op in ops) for ops in groups.values())


def measure(workload, instances: list[Instance], seconds: float, tracer) -> Tally:
    """Run ops until another would likely end after ``seconds``.

    Ops cycle through the instances, and every instance gets at least one.
    With a tracer, each instance gets an untraced op and then a traced one.
    """
    tally = Tally()
    reference: dict[int, bytes] = {}
    durations: list[float] = []
    kinds = (False, True) if tracer else (False,)
    schedule = [(index, traced) for index in range(len(instances)) for traced in kinds]
    deadline = time.perf_counter() + seconds
    while tally.attempted < len(schedule) or (
        time.perf_counter() + median(durations) < deadline
    ):
        index, traced = schedule[tally.attempted % len(schedule)]
        started = time.perf_counter()
        attempt(tally, workload, index, instances[index], tracer if traced else None, reference)
        durations.append(time.perf_counter() - started)
    return tally


def attempt(tally: Tally, workload, index: int, instance: Instance, tracer, reference) -> None:
    """One op on one instance, traced if a tracer is given; a failure is
    counted and printed, never raised."""
    tally.attempted += 1
    gc.collect()
    try:
        if tracer:
            tracer.op = tally.attempted
            tracer.install()
            try:
                with tracer.span("op"):
                    op = run_op(workload, instance)
            finally:
                tracer.restore()
        else:
            op = run_op(workload, instance)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        tally.failed += 1
        return
    omega_calls = tracer.calls(tally.attempted, "oracles.omega") if tracer else 0
    problem = problem_with(op, workload, reference.setdefault(index, op.data), omega_calls)
    if problem:
        print(f"op {tally.attempted} failed: {problem}", file=sys.stderr)
        tally.failed += 1
        return
    print(
        f"op {tally.attempted} instance {index}{' traced' if tracer else ''}: "
        f"certify {op.certify_s:.4f} s, verify {op.verify_s:.4f} s, "
        f"calibration scales {op.certify_scale:.3f} {op.verify_scale:.3f}, {op.kind}, "
        f"sha256 {hashlib.sha256(op.data).hexdigest()}"
    )
    if tracer:
        tally.traced_ops.setdefault(index, []).append(op)
        tally.layer_metrics.setdefault(index, []).append(tracer.op_metrics(tally.attempted))
    else:
        tally.ops.setdefault(index, []).append(op)
        # induced-tree certificates carry no palette: neutral 1
        tally.palette_ratios[index] = (
            op.palette / instance.omega if op.palette is not None else 1.0
        )


def end_to_end(tally: Tally, setup_s: float) -> tuple[dict[str, float], dict[str, str]]:
    """Time metrics are calibrated: each half's wall time times its scale."""
    ratios = tally.palette_ratios.values()
    print(
        "raw wall medians: "
        f"certify {per_instance_median(tally.ops, lambda op: op.certify_s):.4f} s, "
        f"verify {per_instance_median(tally.ops, lambda op: op.verify_s):.4f} s"
    )
    metrics = {
        "certify_s": per_instance_median(tally.ops, lambda op: op.certify_s * op.certify_scale),
        "verify_s": per_instance_median(tally.ops, lambda op: op.verify_s * op.verify_scale),
        "palette_ratio": sum(ratios) / len(ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    units = {
        "certify_s": "s",
        "verify_s": "s",
        "palette_ratio": "colors/omega",
        "peak_rss_mb": "MB",
        "setup_s": "s",
    }
    return metrics, units


def per_layer(tally: Tally) -> tuple[dict[str, float], dict[str, str]]:
    import spans

    metrics = spans.median_metrics(
        [spans.median_metrics(per_op) for per_op in tally.layer_metrics.values()]
    )
    metrics["trace.overhead_s"] = per_instance_median(
        tally.traced_ops, lambda op: op.certify_s
    ) - per_instance_median(tally.ops, lambda op: op.certify_s)
    units = {
        name: "s" if name.endswith("_s") else "ratio" if name.endswith("yield") else "count"
        for name in metrics
    }
    return metrics, units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "boxforest", "pipeline.py")):
        print(f"perfbench: no boxforest sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    print(
        f"machine: {platform.python_implementation()} {platform.python_version()}, "
        f"{os.cpu_count()} cores, {platform.platform()}, commit {git_commit(ROOT)}, "
        "threads=1, no worker processes"
    )
    print(f"workload {args.workload}: {workloads.WORKLOADS[args.workload].why}")

    os.makedirs(OUT, exist_ok=True)
    calibrate()  # the first call grows the heap; later calls reuse it
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        workload, instances, setup_s = set_up(args.workload, args.seed, work)
        import spans  # binds to the modules of the last fresh import

        tracer = spans.Tracer() if args.trace else None
        print(
            f"instances: n={[i.n for i in instances]} d={instances[0].d} "
            f"omega={[i.omega for i in instances]} r={workload.r} k={workload.k}"
        )
        tally = measure(workload, instances, args.seconds, tracer)
    if tracer:
        name = f"spans-{workload.name}-seed{args.seed}.json"
        with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
            json.dump([s.as_dict() for s in tracer.spans], fh)

    if not tally.ops or (tracer and not tally.traced_ops):
        print("perfbench: no op completed", file=sys.stderr)
        return 1
    if tracer:
        metrics, units = per_layer(tally)
    else:
        metrics, units = end_to_end(tally, setup_s)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_rate = {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted} ops)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
