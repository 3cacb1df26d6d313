"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/stability.py [--runs 10] [--seconds S] [--first-seed 1] [--trace] [WORKLOAD ...]

Runs each workload once per seed, sequentially, and prints for every
end-to-end metric its median and its spread: the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of the
median.  It also prints the failed share of each run.  S defaults to
run_seconds in BENCHMARK.json.  With --trace the runs are traced, and the
figure is op_p50_ms from each run's raw output, to set against the
untraced one: their difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if args.trace:
                raw = HERE / "out" / f"run-{workload}-seed{seed}-trace1.json"
                result["metrics"] = {"op_p50_ms": {
                    "value": json.loads(raw.read_text())["op_p50_ms"], "unit": "ms"}}
            if not result["correct"]:
                print(f"{workload} seed {seed}: output checks failed", file=sys.stderr)
                return 1
            shares.add(f"{result['failed']}/{result['attempted']}"
                       f" = {result['failed'] / result['attempted']:.4f}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: failed share per run {sorted(shares)}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:40s} median {med:12.6g}  spread {100 * spread:6.2f} %"
                  f"  min {min(vals):.6g} max {max(vals):.6g}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
