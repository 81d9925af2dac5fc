"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads mh_value,mc_condition --seeds 1-10
        [--seconds 12] [--trace 0|1] [--out perfbench/baseline.json]

Runs ``run.py`` once per (workload, seed), one run at a time, and prints
for every metric the median, the quartiles, the sample count and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
With ``--out`` the summary, with every run's values and environment, is
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    top = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    top.add_argument("--workloads", required=True, help="comma-separated")
    top.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    top.add_argument("--seconds", type=float, default=None,
                     help="default: run_seconds from BENCHMARK.json")
    top.add_argument("--trace", type=int, choices=(0, 1), default=0)
    top.add_argument("--out", type=Path, default=None)
    args = top.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    failed = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            run_s = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            env = next((json.loads(line[5:]) for line in lines
                        if line.startswith("env: ")), None)
            if proc.returncode != 0 or not result.get("correct"):
                failed = True
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout}{proc.stderr}", file=sys.stderr)
            runs.append({"seed": seed, "run_s": run_s, "env": env, **result})
            print(f"{workload} seed {seed}: {run_s:.1f} s, attempted "
                  f"{result.get('attempted')}", flush=True)
        metrics = {}
        for name in runs[0].get("metrics", {}):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else (values[0],) * 3)
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"],
                             "median": med, "q1": q1, "q3": q3, "n": len(values)}
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:44} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" n {len(values)}  spread {spread:.3f}"
                  + (f" (bound {bound})" if bound is not None else ""))
        print(f"  run_s median {statistics.median(r['run_s'] for r in runs):.1f}")
        summary[workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps({"seconds": seconds, "trace": args.trace,
                                        "workloads": summary}, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
