#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload smooth --seeds 1-10 [--trace 0] [--out FILE]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread: (Q3 - Q1) / median.  End-to-end metrics are also compared with
their bound in BENCHMARK.json.  ``--out`` writes every run's result line
and the summary as JSON.
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


def seeds_of(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in args.workload:
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"], result["wall_s"] = seed, time.perf_counter() - start
            result["notes"] = [line for line in lines[:-1] if line.startswith("#")]
            runs.append(result)
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f}s "
                  f"correct={result['correct']} {result['attempted']} ops "
                  f"{result['failed']} failed", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = spread(values) if len(values) > 1 else {"median": values[0]}
            s = summary[name]
            line = f"  {name:48s} median {s['median']:.6g}"
            if "spread" in s:
                line += f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}"
            if name in bounds and "spread" in s:
                line += f"  bound {bounds[name]}"
                worst = max(worst, s["spread"] / bounds[name])
            print(line, flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if not args.trace:
        print(f"largest spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
