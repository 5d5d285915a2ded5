"""Run every workload of BENCHMARK.json in a fresh process; print one table.

From the repository root:

    python3 perfbench/report.py --seed 1 --seconds 40

Each workload gets its own process, so one workload's peak memory cannot
hide another's. The table has one row per end-to-end metric, including
``fail_rate``, and one column per workload. Per-layer metrics come from
``run.py --trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    results = {name: run(name, args.seed, args.seconds) for name in names}
    width = max(len(m) for r in results.values() for m in r["metrics"]) + 2
    print("metric".ljust(width) + "".join(n.rjust(14) for n in names) + "  unit")
    for metric, first in results[names[0]]["metrics"].items():
        cells = [results[n]["metrics"][metric]["value"] for n in names]
        print(metric.ljust(width) + "".join(f"{v:14.6g}" for v in cells) + f"  {first['unit']}")
    rates = [results[n]["failed"] / results[n]["attempted"] for n in names]
    print("fail_rate".ljust(width) + "".join(f"{v:14.6g}" for v in rates) + "  failed/attempted")
    correct = all(r["correct"] for r in results.values())
    print(f"correct: {correct}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
