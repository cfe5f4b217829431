#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 exabench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Runs exabench/run.py once per (workload, seed) with tracing off and prints,
per workload and metric, the median of the runs and the spread: the distance
between the first and third quartiles (statistics.quantiles(values, n=4)) as
a share of the median, next to a third of the metric's bound from
BENCHMARK.json. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, "exabench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
                ok = False
                continue
            result = json.loads(last)
            if not result["correct"]:
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{n}={v[-1]:.4f}" for n, v in values.items()), flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            s = spread(vals)
            print(f"  {workload:18s} {name:13s} median {statistics.median(vals):10.4f}  "
                  f"spread {s:.4f}  (bound/3 {bounds[name] / 3:.4f})", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
