"""Steadiness check: run each workload with several seeds and print each metric's spread.

    python3 perfbench/steady.py --runs 10 [--workloads geometric-cli ...] [--first-seed 1]

The spread of a metric is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share
of their median; it is printed next to the metric's bound from
BENCHMARK.json.  Runs go one at a time, from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ns = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    worst = 0.0
    for workload in ns.workloads:
        runs = []
        for seed in range(ns.first_seed, ns.first_seed + ns.runs):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
            done = subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        print(f"\n{workload}: {'metric':<44} {'median':>12} {'min':>10} {'max':>10} {'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) >= 2 else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, s / bound)
                flag = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            print(f"  {name:<52} {statistics.median(values):12.6g} {min(values):10.4g} {max(values):10.4g} {s:8.4f} "
                  f"{bound if bound is not None else '-':>6} {flag}")
        print(flush=True)
    print(f"largest spread / bound (setup_s aside): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
